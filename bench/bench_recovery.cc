// The recovery orchestrator: policy-driven fault recovery on a degraded
// 16x8 slice.
//
// Three experiments on one DLRM run (batch 65536, TensorFlow):
//   1. Canonical scenario suite — one scripted fault per scenario, each
//      exercising a different strategy of the recovery controller:
//      wait-for-heal (transient slowed host), route-around (permanently
//      degraded link), elastic-shrink (dead chip, no spares), spare-swap-in
//      (dead chip, standby host held back). Each row prints the decision,
//      the predicted extra makespan, and what the re-simulated recovery
//      actually cost — the two must agree within 10% (asserted in
//      tests/recovery_test.cc; printed here for the record).
//   2. Slow-host duration sweep — where the strategy choice crosses over:
//      short transients are waited out with exponential backoff, long ones
//      exhaust the wait deadline and promote to checkpoint-restart.
//   3. Chip-death fault-time sweep — lost work (and the recovery bill) grows
//      with the time since the last checkpoint.
//
// --json=PATH writes the purely simulated results (no wall clock) as JSON,
// including a full RunReport with the recovery timeline embedded: identical
// builds produce byte-identical files, which tools/bench_compare.py diffs
// against bench/baselines/bench_recovery_smoke.json as a bit-exactness gate.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/multipod.h"
#include "fault/fault_injector.h"
#include "models/model_specs.h"
#include "recover/recovery.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"
#include "trace/metrics.h"
#include "trace/run_report.h"

namespace {

// %.17g: doubles round-trip exactly, so the JSON is a bit-exactness probe.
std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// The goodput column: a percentage, or where the clock stopped when the work
// never finished (every fault horizon expired first).
std::string GoodputCell(const tpu::recover::RecoveryTimeline& timeline) {
  char buf[64];
  if (timeline.completed) {
    std::snprintf(buf, sizeof(buf), "%7.1f%%", 100.0 * timeline.goodput());
  } else {
    std::snprintf(buf, sizeof(buf), "did not complete by %.1f s",
                  timeline.makespan);
  }
  return buf;
}

}  // namespace

int main() {
  using namespace tpu;
  bench::Header("Recovery orchestrator — policy-driven fault recovery",
                "robustness extension of the Section 5 dedicated-machine "
                "assumption");
  const bool smoke = bench::Smoke();

  core::MultipodSystem system(topo::TopologyConfig::Slice(16, 8, true));
  const models::Benchmark benchmark = models::Benchmark::kDlrm;
  const std::int64_t global_batch = 65536;
  const auto framework = frameworks::Framework::kTensorFlow;
  const topo::MeshTopology& topo = system.topology();
  const SimTime fault_at = Seconds(50);

  core::FaultToleranceOptions base_options;
  base_options.recovery.enabled = true;
  base_options.checkpoint_interval = Seconds(600);

  const auto run = [&](const core::FaultToleranceOptions& options) {
    return system.SimulateTrainingUnderFailures(benchmark, global_batch, 1,
                                                framework, options);
  };

  // The four canonical faults.
  fault::FaultEvent slow_host;
  slow_host.kind = fault::FaultKind::kSlowHost;
  slow_host.host = topo.HostOf(topo.ChipAt({3, 3}));
  slow_host.at = fault_at;
  slow_host.duration = Seconds(30);
  slow_host.degrade_factor = 4096.0;

  fault::FaultEvent dead_link;
  dead_link.kind = fault::FaultKind::kLinkFlap;
  dead_link.link = topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3}));
  dead_link.at = fault_at;
  dead_link.duration = 0;  // permanent
  dead_link.degrade_factor = 1024.0;

  fault::FaultEvent dead_chip;
  dead_chip.kind = fault::FaultKind::kChipFailure;
  dead_chip.chip = topo.ChipAt({5, 3});
  dead_chip.at = fault_at;

  struct Scenario {
    const char* name;
    fault::FaultEvent fault;
    int spare_hosts;
    double min_shrink_fraction;
    SimTime slow_host_mean;  // residual-heal prior; <= 0 keeps the default
  };
  const std::vector<Scenario> scenarios = {
      {"slow-host-30s", slow_host, 0, 0.25, Seconds(30)},
      {"dead-link", dead_link, 0, 0.25, 0},
      {"dead-chip", dead_chip, 0, 0.25, 0},
      {"dead-chip-spare", dead_chip, 1, 0.95, 0},
  };

  std::ostringstream json_scenarios, json_durations, json_fault_times;
  std::string report_json;

  // 1. Canonical scenario suite.
  bench::Row("%-16s | %-18s %10s %10s %10s %8s", "scenario", "strategy",
             "extra_s", "pred_s", "downtime", "goodput");
  for (const Scenario& scenario : scenarios) {
    core::FaultToleranceOptions options = base_options;
    options.scripted_faults = {scenario.fault};
    options.recovery.spare_hosts = scenario.spare_hosts;
    options.recovery.min_shrink_fraction = scenario.min_shrink_fraction;
    if (scenario.slow_host_mean > 0) {
      options.faults.slow_host_mean_duration = scenario.slow_host_mean;
    }

    trace::MetricsRegistry registry;
    core::FaultTolerantResult result;
    {
      trace::ScopedMetrics scope(&registry);
      result = run(options);
    }
    const recover::RecoveryTimeline& timeline = result.timeline;
    const SimTime extra = timeline.makespan - timeline.base_seconds;
    const char* strategy =
        timeline.decisions.empty()
            ? "(none)"
            : recover::StrategyName(timeline.decisions.back().strategy);
    const SimTime predicted =
        timeline.decisions.empty()
            ? 0
            : timeline.decisions.back().predicted_extra_seconds;
    const SimTime downtime =
        timeline.decisions.empty()
            ? 0
            : timeline.decisions.back().predicted_downtime;
    bench::Row("%-16s | %-18s %10.1f %10.1f %10.1f %s", scenario.name,
               strategy, extra, predicted, downtime,
               GoodputCell(timeline).c_str());

    if (json_scenarios.tellp() > 0) json_scenarios << ",";
    json_scenarios << "{\"scenario\":\"" << scenario.name << "\",\"strategy\":\""
                   << strategy << "\",\"extra_s\":" << Num(extra)
                   << ",\"predicted_extra_s\":" << Num(predicted)
                   << ",\"goodput\":" << Num(timeline.goodput())
                   << ",\"timeline\":" << timeline.ToJson() << "}";

    // The first scenario also lands as a full RunReport: step breakdown +
    // recovery timeline + recovery.* metrics in one JSON document — the
    // machine-readable artifact dashboards consume.
    if (report_json.empty()) {
      trace::RunReport report;
      report.label = std::string("recovery/") + scenario.name;
      report.step_seconds = result.failure_free.step.step();
      report.compute_seconds = result.failure_free.step.compute;
      report.comm_seconds = result.failure_free.step.allreduce;
      report.recovery_json = timeline.ToJson();
      // Under --telemetry the report also embeds the session as collected so
      // far (this scenario's sampled run); without the flag the field stays
      // empty and the report is byte-identical to a telemetry-free build.
      if (telemetry::CurrentTelemetry() != nullptr) {
        report.telemetry_json = telemetry::CurrentTelemetry()->ToJson();
      }
      std::ostringstream metrics_json;
      registry.WriteJson(metrics_json);
      report.metrics_json = metrics_json.str();
      report_json = report.ToJson();
      if (!report_json.empty() && report_json.back() == '\n') {
        report_json.pop_back();
      }
    }
  }

  // 2. Slow-host duration sweep: the backoff -> restart crossover.
  std::printf("\n");
  bench::Row("%10s | %-18s %10s %8s %7s %9s", "duration_s", "final strategy",
             "extra_s", "goodput", "probes", "restarts");
  const std::vector<SimTime> durations =
      smoke ? std::vector<SimTime>{Seconds(2), Seconds(30), Seconds(600)}
            : std::vector<SimTime>{Seconds(2), Seconds(10), Seconds(30),
                                   Seconds(60), Seconds(120), Seconds(300),
                                   Seconds(600)};
  for (const SimTime duration : durations) {
    core::FaultToleranceOptions options = base_options;
    fault::FaultEvent fault = slow_host;
    fault.duration = duration;
    options.scripted_faults = {fault};
    options.faults.slow_host_mean_duration = Seconds(30);
    const auto result = run(options);
    const recover::RecoveryTimeline& timeline = result.timeline;
    const SimTime extra = timeline.makespan - timeline.base_seconds;
    const char* strategy =
        timeline.decisions.empty()
            ? "(micro-stall)"
            : recover::StrategyName(timeline.decisions.back().strategy);
    bench::Row("%10.0f | %-18s %10.1f %s %7d %9d", duration, strategy, extra,
               GoodputCell(timeline).c_str(), timeline.probes,
               timeline.restarts);
    if (json_durations.tellp() > 0) json_durations << ",";
    json_durations << "{\"duration_s\":" << Num(duration) << ",\"strategy\":\""
                   << strategy << "\",\"extra_s\":" << Num(extra)
                   << ",\"goodput\":" << Num(timeline.goodput())
                   << ",\"probes\":" << timeline.probes
                   << ",\"restarts\":" << timeline.restarts << "}";
  }

  // 3. Chip-death fault-time sweep: work since the last checkpoint is lost.
  std::printf("\n");
  bench::Row("%10s | %-18s %10s %10s %8s", "fault_at_s", "strategy", "extra_s",
             "lost_work", "goodput");
  const std::vector<SimTime> fault_times =
      smoke ? std::vector<SimTime>{Seconds(10), Seconds(150)}
            : std::vector<SimTime>{Seconds(10), Seconds(50), Seconds(100),
                                   Seconds(150)};
  for (const SimTime at : fault_times) {
    core::FaultToleranceOptions options = base_options;
    fault::FaultEvent fault = dead_chip;
    fault.at = at;
    options.scripted_faults = {fault};
    const auto result = run(options);
    const recover::RecoveryTimeline& timeline = result.timeline;
    const SimTime extra = timeline.makespan - timeline.base_seconds;
    const char* strategy =
        timeline.decisions.empty()
            ? "(none)"
            : recover::StrategyName(timeline.decisions.back().strategy);
    bench::Row("%10.0f | %-18s %10.1f %10.1f %s", at, strategy, extra,
               timeline.lost_work_seconds, GoodputCell(timeline).c_str());
    if (json_fault_times.tellp() > 0) json_fault_times << ",";
    json_fault_times << "{\"fault_at_s\":" << Num(at) << ",\"strategy\":\""
                     << strategy << "\",\"extra_s\":" << Num(extra)
                     << ",\"lost_work_s\":" << Num(timeline.lost_work_seconds)
                     << ",\"goodput\":" << Num(timeline.goodput()) << "}";
  }

  if (!bench::JsonPath().empty()) {
    std::ofstream out(bench::JsonPath());
    out << "{\"scenarios\":[" << json_scenarios.str() << "],\"duration_sweep\":["
        << json_durations.str() << "],\"fault_time_sweep\":["
        << json_fault_times.str() << "],\"report\":" << report_json << "}\n";
    std::fprintf(stderr, "json -> %s\n", bench::JsonPath().c_str());
  }
  return 0;
}
