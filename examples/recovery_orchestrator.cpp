// Recovery orchestrator walkthrough: the policy-driven fault recovery
// controller on a degraded 16x8 slice.
//
// Four canonical faults hit the same DLRM run, and the controller prices the
// five strategies (wait-for-heal / route-around / elastic-shrink /
// spare-swap-in / checkpoint-restart) against each, picking the minimum
// predicted time-to-healthy-step:
//   1. a short optical-link flap        -> wait out with exponential backoff
//   2. a permanently degraded Y link    -> re-plan the collective around it
//   3. a dead chip, no spare capacity   -> shrink to the largest healthy
//                                          sub-mesh or restart, whichever
//                                          prices cheaper
//   4. the same dead chip, 1 spare host -> swap the spare in
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/recovery_orchestrator
#include <cstdio>
#include <vector>

#include "core/multipod.h"
#include "fault/fault_injector.h"
#include "models/model_specs.h"
#include "topology/topology.h"

int main() {
  using namespace tpu;

  core::MultipodSystem system(topo::TopologyConfig::Slice(16, 8, true));
  const models::Benchmark benchmark = models::Benchmark::kDlrm;
  const std::int64_t global_batch = 65536;
  const auto framework = frameworks::Framework::kTensorFlow;

  const auto baseline =
      system.SimulateTraining(benchmark, global_batch, 1, framework);
  const SimTime base = baseline.train_seconds + baseline.eval_seconds;
  std::printf("DLRM on a 16x8 slice (%d chips, %d hosts)\n",
              system.num_chips(), system.topology().num_hosts());
  std::printf("  failure-free run %.1f s, step %.2f ms\n\n", base,
              ToMillis(baseline.step.step()));

  core::FaultToleranceOptions recovery_options;
  recovery_options.recovery.enabled = true;
  recovery_options.checkpoint_interval = Seconds(600);

  const auto run_scenario = [&](const char* title,
                                const std::vector<fault::FaultEvent>& faults,
                                int spare_hosts) {
    core::FaultToleranceOptions options = recovery_options;
    options.scripted_faults = faults;
    options.recovery.spare_hosts = spare_hosts;
    const auto result = system.SimulateTrainingUnderFailures(
        benchmark, global_batch, 1, framework, options);
    std::printf("%s\n", title);
    if (result.timeline.completed) {
      std::printf(
          "  makespan %.1f s (+%.1f s over fault-free), goodput %.1f%%\n",
          result.expected_seconds,
          result.expected_seconds - result.timeline.base_seconds,
          100.0 * result.timeline.goodput());
    } else {
      std::printf("  did not complete by %.1f s\n", result.expected_seconds);
    }
    for (const auto& decision : result.timeline.decisions) {
      std::printf("  t=%7.1f s attempt %d: %-18s  downtime %6.1f s  "
                  "step-after %.2f ms  predicted extra %.1f s%s\n",
                  decision.decided_at, decision.attempt,
                  recover::StrategyName(decision.strategy),
                  decision.predicted_downtime,
                  ToMillis(decision.predicted_step_after),
                  decision.predicted_extra_seconds,
                  decision.verified ? "" : "  (superseded)");
    }
    std::printf("  micro-stalls %d, probes %d, restarts %d, lost work %.1f s, "
                "stalled %.1f s\n\n",
                result.timeline.micro_stalls, result.timeline.probes,
                result.timeline.restarts, result.timeline.lost_work_seconds,
                result.timeline.stalled_seconds);
    return result;
  };

  const topo::MeshTopology& topo = system.topology();
  const SimTime fault_at = Seconds(50);

  // Scenario 1 needs a transient fault that NO schedule can route around: a
  // link-level degrade always leaves an alternative (the flat snake ring
  // avoids any interior Y link), so the planner would re-plan instead of
  // waiting. A thermally slowed host degrades every link of its four chips —
  // and every all-reduce must move those chips' gradients — so the only
  // options left are waiting out the transient or paying a full restart.
  // The controller's residual-heal prior is the configured mean duration;
  // the scripted fault matches it.
  fault::FaultEvent slow_host;
  slow_host.kind = fault::FaultKind::kSlowHost;
  slow_host.host = topo.HostOf(topo.ChipAt({3, 3}));
  slow_host.at = fault_at;
  slow_host.duration = Seconds(30);
  slow_host.degrade_factor = 4096.0;
  recovery_options.faults.slow_host_mean_duration = Seconds(30);
  run_scenario("1. 30 s slowed host (every link x4096)", {slow_host}, 0);

  fault::FaultEvent dead_link;
  dead_link.kind = fault::FaultKind::kLinkFlap;
  dead_link.link = topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3}));
  dead_link.at = fault_at;
  dead_link.duration = 0;  // permanent
  dead_link.degrade_factor = 1024.0;
  run_scenario("2. permanently degraded Y link (x1024)", {dead_link}, 0);

  fault::FaultEvent dead_chip;
  dead_chip.kind = fault::FaultKind::kChipFailure;
  dead_chip.chip = topo.ChipAt({5, 3});
  dead_chip.at = fault_at;
  run_scenario("3. dead chip, no spares", {dead_chip}, 0);

  // Same dead chip, but the operator holds a standby host and refuses to run
  // below 95% width — the controller swaps the spare in instead of shrinking.
  recovery_options.recovery.min_shrink_fraction = 0.95;
  run_scenario("4. dead chip, 1 spare host, shrink floor 95%", {dead_chip}, 1);
  recovery_options.recovery.min_shrink_fraction = 0.25;

  // How the strategy choice crosses over as the transient lengthens: short
  // stalls are waited out with backoff, long ones exhaust the wait deadline
  // and promote to the checkpoint-restart fallback.
  std::printf("slow-host-duration sweep (x4096, strategy of the final "
              "decision)\n");
  std::printf("  %10s %-18s %12s %10s\n", "duration_s", "strategy", "extra_s",
              "goodput");
  for (const SimTime duration :
       {Seconds(2), Seconds(10), Seconds(30), Seconds(120), Seconds(600)}) {
    fault::FaultEvent sweep_fault = slow_host;
    sweep_fault.duration = duration;
    core::FaultToleranceOptions options = recovery_options;
    options.scripted_faults = {sweep_fault};
    const auto result = system.SimulateTrainingUnderFailures(
        benchmark, global_batch, 1, framework, options);
    const char* strategy = result.timeline.decisions.empty()
                               ? "(none: micro-stall)"
                               : recover::StrategyName(
                                     result.timeline.decisions.back().strategy);
    std::printf("  %10.0f %-18s %12.1f ", duration, strategy,
                result.expected_seconds - result.timeline.base_seconds);
    if (result.timeline.completed) {
      std::printf("%9.1f%%\n", 100.0 * result.timeline.goodput());
    } else {
      std::printf("did not complete by %.1f s\n", result.expected_seconds);
    }
  }
  return 0;
}
