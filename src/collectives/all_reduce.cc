#include "collectives/all_reduce.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/math_util.h"
#include "plan/executor.h"
#include "plan/schedule.h"
#include "sim/simulator.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::coll {
namespace {

// The paper's schedule for `config`: ring 2-D [Y->X] with its wire options
// and model-parallel stride.
plan::CollectivePlan PaperPlanFor(const GradientSummationConfig& config) {
  plan::PlanRequest request;
  request.model_parallel_stride = config.model_parallel_stride;
  request.allow_bidirectional = config.collective.bidirectional;
  request.allow_bfloat16 = config.collective.bfloat16_wire;
  return plan::PaperPlan(request);
}

}  // namespace

// All rings run concurrently; a ring pass is (n-1) barrier-synchronized
// steps, each as long as its slowest hop, so the phase estimate is max over
// rings of (n-1) * slowest-hop time. Uses EstimateArrival, which
// deliberately ignores injected degradation — the deadline compares sick
// reality against healthy expectation. Folded (mesh-dimension) rings put two
// ring edges on each physical link; the resulting ~2x contention is not
// modeled here, which is why deadline multiples below ~2 are prone to false
// positives on X rings.
SimTime ExpectedRingPhaseSeconds(net::Network& network,
                                 const std::vector<RingSpec>& rings,
                                 const CollectiveOptions& options) {
  const SimTime now = network.simulator().now();
  SimTime worst = 0;
  for (const RingSpec& spec : rings) {
    const int n = spec.size();
    if (n <= 1 || spec.range.size() == 0) continue;
    // Per-direction payload split mirrors the bidirectional schedule.
    std::int64_t dir_elems[2] = {spec.range.size(), 0};
    if (options.bidirectional && n > 2) {
      dir_elems[0] = spec.range.size() / 2;
      dir_elems[1] = spec.range.size() - dir_elems[0];
    }
    for (const std::int64_t elems : dir_elems) {
      if (elems == 0) continue;
      const Bytes bytes = CeilDiv(elems, n) * options.wire_bytes_per_elem();
      SimTime slowest_hop = 0;
      for (int rank = 0; rank < n; ++rank) {
        const topo::ChipId from = spec.order[rank];
        const topo::ChipId to = spec.order[(rank + 1) % n];
        slowest_hop = std::max(slowest_hop,
                               network.EstimateArrival(from, to, bytes) - now);
      }
      worst = std::max(worst, (n - 1) * slowest_hop);
    }
  }
  return worst;
}

std::vector<topo::ChipId> SnakeRingOverMesh(const topo::MeshTopology& topo) {
  std::vector<topo::ChipId> ring;
  ring.reserve(topo.num_chips());
  for (int y = 0; y < topo.size_y(); ++y) {
    if (y % 2 == 0) {
      for (int x = 0; x < topo.size_x(); ++x) ring.push_back(topo.ChipAt({x, y}));
    } else {
      for (int x = topo.size_x() - 1; x >= 0; --x) {
        ring.push_back(topo.ChipAt({x, y}));
      }
    }
  }
  return ring;
}

GradientSummationResult TwoDGradientSummation(
    net::Network& network, const GradientSummationConfig& config,
    std::vector<float*> chip_buffers) {
  plan::PlanExecutionConfig exec;
  exec.shard_update_seconds = config.shard_update_seconds;
  exec.deadline = config.deadline;
  plan::StageTimeline timeline;
  GradientSummationResult result = plan::RunLoweredPlan(
      network,
      plan::LowerPlan(network.topology(), PaperPlanFor(config), config.elems,
                      std::move(chip_buffers)),
      exec, &timeline);
  const SimTime start = timeline.start;
  const SimTime end_y_rs = timeline.stage_end[0];
  const SimTime end_x_rs = timeline.stage_end[1];
  const SimTime end_update = timeline.update_end;
  const SimTime end_x_ag = timeline.stage_end[2];
  const SimTime end_y_ag = timeline.stage_end[3];

  // Phase boundaries are known only after the run, so spans are emitted
  // retroactively with explicit timestamps: one umbrella B/E pair wrapping a
  // complete span per phase on the shared summation track.
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    const trace::TraceRecorder::TrackId track =
        recorder->Track("system", "summation");
    recorder->Begin(track, "2d-summation", start);
    recorder->Complete(track, "reduce-scatter-Y", start, end_y_rs);
    recorder->Complete(track, "reduce-scatter-X", end_y_rs, end_x_rs);
    recorder->Complete(track, "sharded-update", end_x_rs, end_update);
    recorder->Complete(track, "broadcast-X", end_update, end_x_ag);
    recorder->Complete(track, "broadcast-Y", end_x_ag, end_y_ag);
    recorder->End(track, end_y_ag);
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("summation.runs").Add(1);
    metrics->Histogram("summation.total_us").Record(ToMicros(end_y_ag - start));
    metrics->Histogram("summation.y_reduce_scatter_us")
        .Record(ToMicros(result.phase_seconds.y_reduce_scatter));
    metrics->Histogram("summation.x_reduce_scatter_us")
        .Record(ToMicros(result.phase_seconds.x_reduce_scatter));
    metrics->Histogram("summation.update_us")
        .Record(ToMicros(result.phase_seconds.update));
    metrics->Histogram("summation.x_all_gather_us")
        .Record(ToMicros(result.phase_seconds.x_all_gather));
    metrics->Histogram("summation.y_all_gather_us")
        .Record(ToMicros(result.phase_seconds.y_all_gather));
  }
  return result;
}

SimTime PipelinedTwoDGradientSummation(
    net::Network& network, const GradientSummationConfig& config, int chunks,
    std::vector<float*> chip_buffers, PipelinedSummationReport* report) {
  const topo::MeshTopology& topo = network.topology();
  TPU_CHECK_GT(config.elems, 0);
  TPU_CHECK_GT(chunks, 0);
  sim::Simulator& simulator = network.simulator();
  trace::TraceRecorder* recorder = trace::CurrentTrace();
  const SimTime start = simulator.now();
  if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
    // Chunk phases overlap, so a single label covers the fused collective.
    observer->OnPhase("pipelined-2d");
  }
  const plan::CollectivePlan paper = PaperPlanFor(config);

  // Slice phases overlap, so deadline monitoring watches the fused collective
  // as a whole: the expectation is the *sequential* full-payload schedule
  // (Y-RS + X-RS + X-AG + Y-AG), an upper bound on the pipelined time, so
  // pipelining itself can never trip the deadline. The sharded-update hook is
  // compute, not communication, and is excluded from the expectation.
  const bool monitored = report != nullptr && config.deadline.enabled();
  if (monitored) {
    const plan::LoweredPlan full = plan::LowerPlan(topo, paper, config.elems);
    const SimTime y_phase = ExpectedRingPhaseSeconds(
        network, *full.stages[0].specs, config.collective);
    const SimTime x_phase = ExpectedRingPhaseSeconds(
        network, *full.stages[1].specs, config.collective);
    report->expected = 2 * y_phase + 2 * x_phase;
    report->deadline = config.deadline.DeadlineFor(report->expected);
  }

  // Completion is timestamped by the barrier callback (not by queue drain),
  // so armed fault events pending past the collective don't inflate it.
  SimTime completed_at = -1;
  auto all_done = std::make_shared<sim::Barrier>(
      chunks, [&completed_at, &simulator] { completed_at = simulator.now(); });
  const std::int64_t slice = CeilDiv(config.elems, chunks);
  for (int c = 0; c < chunks; ++c) {
    const Range range{std::min<std::int64_t>(config.elems, c * slice),
                      std::min<std::int64_t>(config.elems, (c + 1) * slice)};
    if (range.size() == 0) {
      all_done->Notify();
      continue;
    }
    // The slice's rings: the paper's plan lowered over the slice's length,
    // shifted to its offset (chunk and direction layouts are shift-invariant,
    // so ownership and owned counts carry over). Stages 0 and 1 are the Y
    // and X reduce-scatters; the all-gathers share their spec lists.
    plan::LoweredPlan lowered =
        plan::LowerPlan(topo, paper, range.size(), chip_buffers);
    const std::shared_ptr<std::vector<RingSpec>> y_rings =
        lowered.stages[0].specs;
    const std::shared_ptr<std::vector<RingSpec>> x_rings =
        lowered.stages[1].specs;
    for (const auto& rings : {y_rings, x_rings}) {
      for (RingSpec& spec : *rings) {
        spec.range.begin += range.begin;
        spec.range.end += range.begin;
        // "Y x=3" -> "Y s<c> x=3", "X y=0 g1" -> "X s<c> y=0 g1".
        if (recorder != nullptr) spec.label.insert(1, " s" + std::to_string(c));
      }
    }
    auto owned_elems = std::make_shared<std::vector<std::int64_t>>(
        std::move(lowered.owned_elems));

    // Phase chain for this slice: Y-RS -> X-RS -> [update] -> X-AG -> Y-AG.
    net::Network* net_ptr = &network;
    const CollectiveOptions options = config.collective;
    auto after_xag = [net_ptr, y_rings, options, all_done] {
      StartAllGather(*net_ptr, *y_rings, options,
                     [all_done] { all_done->Notify(); });
    };
    auto after_update = [net_ptr, x_rings, options, after_xag] {
      StartAllGather(*net_ptr, *x_rings, options, after_xag);
    };
    auto after_xrs = [net_ptr, owned_elems,
                      update_hook = config.shard_update_seconds,
                      after_update] {
      if (!update_hook) {
        after_update();
        return;
      }
      // Sharded weight update on each chip's owned slice portion.
      auto barrier = std::make_shared<sim::Barrier>(
          static_cast<int>(owned_elems->size()), after_update);
      for (const std::int64_t elems : *owned_elems) {
        net_ptr->simulator().Schedule(update_hook(elems),
                                      [barrier] { barrier->Notify(); });
      }
    };
    StartReduceScatter(network, *y_rings, options,
                       [net_ptr, x_rings, options, after_xrs] {
                         StartReduceScatter(*net_ptr, *x_rings, options,
                                            after_xrs);
                       });
  }
  simulator.Run();
  TPU_CHECK_GE(completed_at, 0.0);
  const SimTime elapsed = completed_at - start;
  // Slice phases interleave, so the fused collective gets a single umbrella
  // span; per-slice phase activity is visible through the ring spans.
  if (recorder != nullptr) {
    recorder->Complete(recorder->Track("system", "summation"),
                       "pipelined-2d-summation x" + std::to_string(chunks),
                       start, completed_at);
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("summation.pipelined_runs").Add(1);
    metrics->Histogram("summation.pipelined_total_us")
        .Record(ToMicros(elapsed));
  }
  if (monitored) {
    report->actual = elapsed;
    report->timed_out = elapsed > report->deadline;
    report->detected_at = report->timed_out ? start + report->deadline : -1.0;
  }
  return elapsed;
}

SimTime OneDGradientSummation(net::Network& network,
                              const GradientSummationConfig& config,
                              std::vector<float*> chip_buffers) {
  const topo::MeshTopology& topo = network.topology();
  RingSpec spec;
  spec.order = SnakeRingOverMesh(topo);
  if (!chip_buffers.empty()) {
    for (const topo::ChipId chip : spec.order) {
      spec.data.push_back(chip_buffers[chip]);
    }
  }
  spec.range = Range{0, config.elems};
  std::vector<RingSpec> rings;
  rings.push_back(std::move(spec));
  return AllReduce(network, rings, config.collective);
}

}  // namespace tpu::coll
