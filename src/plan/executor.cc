#include "plan/executor.h"

#include <memory>
#include <string>
#include <utility>

#include "collectives/halving_doubling.h"
#include "collectives/ring.h"
#include "common/check.h"
#include "sim/simulator.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::plan {

coll::GradientSummationResult RunLoweredPlan(
    net::Network& network, const LoweredPlan& lowered,
    const PlanExecutionConfig& config, StageTimeline* timeline) {
  const int ns = static_cast<int>(lowered.stages.size());
  const int num_chips = network.topology().num_chips();
  const coll::CollectiveOptions options = lowered.plan.collective_options();
  sim::Simulator& simulator = network.simulator();
  const bool monitored = config.deadline.enabled();
  const SimTime start = simulator.now();

  std::vector<SimTime> stage_end(ns, -1.0);
  std::vector<SimTime> stage_expected(ns, 0.0);
  SimTime update_end = -1.0;
  SimTime finish = -1.0;

  // The sequence per transition — record the stage's end, estimate the next
  // stage, label it for the causal observer, start it — is the event order
  // every caller's timing depends on.
  std::function<void(int)> launch = [&](int i) {
    if (i == ns) {
      finish = simulator.now();
      return;
    }
    const LoweredStage& stage = lowered.stages[i];
    if (monitored) {
      stage_expected[i] =
          stage.algorithm == PhaseAlgorithm::kRing
              ? coll::ExpectedRingPhaseSeconds(network, *stage.specs, options)
              : coll::ExpectedHdPhaseSeconds(network, *stage.specs, options);
    }
    if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
      observer->OnPhase(stage.name);
    }
    std::function<void()> next = [&, i] {
      stage_end[i] = simulator.now();
      if (i != lowered.update_after || !config.shard_update_seconds) {
        launch(i + 1);
        return;
      }
      // Sharded weight update (Section 3.2) on every chip's owned elements;
      // the barrier callback continues the chain.
      if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
        observer->OnPhase("sharded-update");
      }
      auto barrier = std::make_shared<sim::Barrier>(num_chips, [&, i] {
        update_end = simulator.now();
        launch(i + 1);
      });
      for (int chip = 0; chip < num_chips; ++chip) {
        simulator.Schedule(
            config.shard_update_seconds(lowered.owned_elems[chip]),
            [barrier] { barrier->Notify(); });
      }
    };
    if (stage.specs->empty()) {
      // Degenerate stage (payload already fully sharded away): complete in
      // zero time without touching the network.
      simulator.Schedule(0.0, std::move(next));
      return;
    }
    const bool rs = stage.op == LoweredStage::Op::kReduceScatter;
    if (stage.algorithm == PhaseAlgorithm::kRing) {
      rs ? coll::StartReduceScatter(network, *stage.specs, options,
                                    std::move(next))
         : coll::StartAllGather(network, *stage.specs, options,
                                std::move(next));
    } else {
      rs ? coll::StartHdReduceScatter(network, *stage.specs, options,
                                      std::move(next))
         : coll::StartHdAllGather(network, *stage.specs, options,
                                  std::move(next));
    }
  };
  launch(0);
  simulator.Run();
  TPU_CHECK_GE(finish, 0.0);
  if (update_end < 0) update_end = stage_end[lowered.update_after];

  timeline->start = start;
  timeline->stage_end = std::move(stage_end);
  timeline->update_end = update_end;
  coll::GradientSummationResult result =
      SummarizeTimeline(lowered, *timeline);
  if (!monitored) return result;

  // Deadline scoring. A stage starts where the previous one (or the update
  // after it) ended.
  SimTime stage_start = start;
  for (int i = 0; i < ns; ++i) {
    coll::PhaseTiming timing;
    timing.name = lowered.stages[i].name;
    timing.start = stage_start;
    timing.expected = stage_expected[i];
    timing.actual = result.stages[i].seconds;
    timing.deadline = config.deadline.DeadlineFor(stage_expected[i]);
    timing.timed_out = timing.actual > timing.deadline;
    if (timing.timed_out && !result.timed_out) {
      result.timed_out = true;
      result.detected_at = stage_start + timing.deadline;
      result.timed_out_phase = timing.name;
    }
    result.phases.push_back(timing);
    stage_start = i == lowered.update_after ? update_end
                                            : timeline->stage_end[i];
  }
  return result;
}

coll::GradientSummationResult SummarizeTimeline(
    const LoweredPlan& lowered, const StageTimeline& timeline) {
  const std::vector<SimTime>& stage_end = timeline.stage_end;
  const SimTime update_end = timeline.update_end;
  coll::GradientSummationResult result;
  result.max_owned_elems = lowered.max_owned_elems;
  result.reduce_seconds = stage_end[lowered.update_after] - timeline.start;
  result.update_seconds = update_end - stage_end[lowered.update_after];
  result.broadcast_seconds = stage_end.back() - update_end;
  result.update_after = lowered.update_after;

  // A stage starts where the previous one (or the update after it) ended.
  result.stages.reserve(lowered.stages.size());
  SimTime stage_start = timeline.start;
  for (std::size_t i = 0; i < lowered.stages.size(); ++i) {
    result.stages.push_back({lowered.stages[i].name,
                             stage_end[i] - stage_start});
    stage_start = static_cast<int>(i) == lowered.update_after ? update_end
                                                              : stage_end[i];
  }
  return result;
}

coll::GradientSummationResult ExecutePlan(net::Network& network,
                                          const CollectivePlan& plan,
                                          std::int64_t elems,
                                          const PlanExecutionConfig& config,
                                          std::vector<float*> chip_buffers) {
  TPU_CHECK_GT(elems, 0);
  std::string error;
  TPU_CHECK(ValidatePlan(network.topology(), plan, &error)) << error;
  if (plan.chunks > 1) {
    // No stage boundaries: the pipelined summation reports one fused stage.
    coll::GradientSummationConfig summation;
    summation.elems = elems;
    summation.collective = plan.collective_options();
    summation.model_parallel_stride = plan.phases[1].stride;
    summation.shard_update_seconds = config.shard_update_seconds;
    summation.deadline = config.deadline;
    return coll::PipelinedTwoDGradientSummation(
        network, summation, plan.chunks, std::move(chip_buffers));
  }

  const LoweredPlan lowered =
      LowerPlan(network.topology(), plan, elems, std::move(chip_buffers));
  StageTimeline timeline;
  coll::GradientSummationResult result =
      RunLoweredPlan(network, lowered, config, &timeline);
  const SimTime finish = timeline.stage_end.back();

  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    const trace::TraceRecorder::TrackId track =
        recorder->Track("system", "plan");
    recorder->Begin(track, "plan " + plan.name(), timeline.start);
    SimTime span_start = timeline.start;
    for (std::size_t i = 0; i < lowered.stages.size(); ++i) {
      const SimTime end = timeline.stage_end[i];
      recorder->Complete(track, lowered.stages[i].name, span_start, end);
      span_start = end;
      if (static_cast<int>(i) == lowered.update_after &&
          timeline.update_end > end) {
        recorder->Complete(track, "sharded-update", end, timeline.update_end);
        span_start = timeline.update_end;
      }
    }
    recorder->End(track, finish);
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("plan.exec.runs").Add(1);
    metrics->Histogram("plan.exec.total_us")
        .Record(ToMicros(finish - timeline.start));
  }
  return result;
}

}  // namespace tpu::plan
