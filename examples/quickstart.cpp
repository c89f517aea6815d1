// Quickstart: build a TPU-v3 multipod, run one BERT training step on it,
// and print where the time goes — then show the same step at a smaller
// scale for contrast.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Pass --trace=PATH to also export a Chrome/Perfetto timeline of the traced
// mini-run below (open it at ui.perfetto.dev); docs/quickstart_trace.json in
// the repo is this file's committed output. --metrics dumps the metrics
// registry at exit.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "collectives/all_reduce.h"
#include "core/multipod.h"
#include "fault/fault_injector.h"
#include "fault/health_monitor.h"
#include "frameworks/runtime_model.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "optim/optimizer.h"
#include "sim/event_observer.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "trace/critical_path.h"
#include "trace/step_profiler.h"
#include "trace/trace.h"

namespace {

// A deliberately tiny slice (4x4, wrapped Y) running two 2-D gradient
// summations with a link flap injected mid-flight: every trace feature on a
// timeline small enough to commit — the six summation phase spans, per-ring
// async spans, per-hop link spans, pod counter tracks, and the fault
// injection / detection instants.
void TracedMiniRun() {
  using namespace tpu;
  std::printf("Traced mini-run: 4x4 slice, two 2-D summations, one link flap\n");

  sim::Simulator simulator;
  topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, /*wrap_y=*/true));
  net::Network network(&topo, {}, &simulator);

  coll::GradientSummationConfig config;
  config.elems = 1 << 16;
  config.collective.bfloat16_wire = true;
  // Weight-update sharding hook: roughly one ns per owned element.
  config.shard_update_seconds = [](std::int64_t owned) {
    return Seconds(static_cast<double>(owned) * 1e-9);
  };
  config.deadline.multiple = 3.0;  // monitored: detections become instants
  // The default 50us floor would swallow these ~5us phases entirely.
  config.deadline.min_deadline = Micros(15);

  // One hand-written transient link flap, armed to fire inside the first
  // summation (so its phase overruns and the health monitor detects it).
  fault::FaultModelConfig fault_config;
  fault::FaultInjector injector(&network, fault_config);
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kLinkFlap;
  flap.link = 5;
  flap.duration = Micros(300);
  flap.degrade_factor = 64.0;
  simulator.Schedule(Micros(5), [&] { injector.Apply(flap); });

  // Causal tracking: the tracker records which event released which, so the
  // critical path of the mini-run — and the flow arrows through the
  // timeline — come out of the same run. Observers only record; the
  // simulated times are bit-identical with or without it.
  trace::CriticalPathTracker tracker;
  sim::ScopedEventObserver observe(&tracker);

  fault::HealthMonitor monitor(
      {/*deadline_multiple=*/3.0, /*min_deadline=*/Micros(15)});
  for (int step = 0; step < 2; ++step) {
    const SimTime begin = simulator.now();
    const coll::GradientSummationResult result =
        coll::TwoDGradientSummation(network, config);
    monitor.ObserveSummation(
        result, injector.AnyFaultActiveIn(begin, simulator.now()));
    std::printf(
        "  summation %d: reduce %.1f us, update %.1f us, broadcast %.1f us%s\n",
        step, ToMicros(result.reduce_seconds), ToMicros(result.update_seconds),
        ToMicros(result.broadcast_seconds),
        result.timed_out ? "  [deadline exceeded]" : "");
  }
  std::printf(
      "  health monitor: %d phases, %d detections (%d true, %d false)\n",
      monitor.stats().phases_observed, monitor.stats().detections,
      monitor.stats().true_detections, monitor.stats().false_positives);

  // Critical path of the whole mini-run: the flapped link shows up as the
  // top contributor. With --trace, the path lands on its own track with
  // flow arrows stitching the causal chain through the timeline.
  const trace::CriticalPathReport report = tracker.Analyze();
  std::printf(
      "  critical path: %.1f us over %d events, top contributor link %d\n",
      ToMicros(report.makespan), report.path_nodes, report.top_link());
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    trace::EmitCriticalPathToTrace(report, *recorder);
  }
}

}  // namespace

int main() {
  using namespace tpu;
  bench::Init();  // --trace=PATH / --metrics (see bench/bench_util.h)

  TracedMiniRun();
  // The multipod-scale sections below would add millions of trace events;
  // the mini-run above is the committed example timeline, so tracing stops
  // here (metrics stay on — they aggregate, not accumulate events).
  sim::CurrentRunContext().trace = nullptr;

  // The paper's machine: four 32x32 TPU-v3 pods joined along X (4096 chips).
  core::MultipodSystem multipod(4096);
  std::printf("\nmachine: %s\n\n", multipod.topology().ToString().c_str());

  const models::ModelSpec& bert = models::GetModelSpec(models::Benchmark::kBert);
  const auto lamb = optim::MakeLamb({});

  trace::StepProfiler profiler;
  std::printf("%-8s %-12s %-12s %-12s %-12s %-8s\n", "chips", "step(ms)",
              "compute(ms)", "allreduce", "wt-update", "AR%");
  for (int chips : {256, 1024, 4096}) {
    core::MultipodSystem system(chips);
    // Per-chip batch 2 at 4096 chips, as in the submission.
    const std::int64_t batch = 2LL * chips;
    const core::StepBreakdown step =
        system.SimulateStep(bert, batch, /*model_parallel_cores=*/1,
                            lamb.get(), &profiler);
    std::printf("%-8d %-12.3f %-12.3f %-12.3f %-12.3f %-8.1f\n", chips,
                ToMillis(step.step()), ToMillis(step.compute),
                ToMillis(step.allreduce), ToMillis(step.weight_update),
                100.0 * step.allreduce_fraction());
  }
  std::printf("\nPhase breakdown over those three steps (per-step mean):\n");
  profiler.WriteTable(std::cout);

  // End-to-end at the MLPerf v0.7 submission scale, both frameworks.
  std::printf("\nBERT end-to-end at the submission scale (4096 chips):\n");
  for (auto framework :
       {frameworks::Framework::kTensorFlow, frameworks::Framework::kJax}) {
    const core::EndToEndResult result =
        multipod.SimulateSubmission(models::Benchmark::kBert, framework);
    const frameworks::InitBreakdown init = frameworks::EstimateInitTime(
        framework, models::Benchmark::kBert, multipod.num_chips());
    std::printf("  %-11s %6lld steps  train %.1f s  eval %.1f s  "
                "run %.2f min  (init %.0f s, reported separately)\n",
                frameworks::FrameworkName(framework),
                static_cast<long long>(result.steps), result.train_seconds,
                result.eval_seconds, result.minutes(), init.total());
  }
  return 0;
}
