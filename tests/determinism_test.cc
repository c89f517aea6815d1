// Bit-reproducibility gates for the event core: the timestamp-run queue,
// pooled callbacks, cached routes and the thread a run executes on must not
// perturb simulated time by a single ULP. Every comparison here is exact
// (EXPECT_EQ on doubles), not approximate.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "cluster/cluster.h"
#include "cluster/workload.h"
#include "collectives/all_reduce.h"
#include "core/multipod.h"
#include "core/sweep.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "plan/cost.h"
#include "plan/planner.h"
#include "sim/run_context.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"
#include "trace/critical_path.h"
#include "trace/metrics.h"
#include "trace/run_report.h"
#include "trace/trace.h"

namespace tpu {
namespace {

TEST(Determinism, TrainingUnderFailuresIsBitIdenticalAcrossRuns) {
  core::FaultToleranceOptions options;
  options.faults.chip_mtbf = Seconds(2e5);
  auto run = [&] {
    core::MultipodSystem system(256);
    return system.SimulateTrainingUnderFailures(
        models::Benchmark::kDlrm, 65536, 1,
        frameworks::Framework::kTensorFlow, options);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.failure_free.train_seconds, b.failure_free.train_seconds);
  EXPECT_EQ(a.failure_free.eval_seconds, b.failure_free.eval_seconds);
  EXPECT_EQ(a.system_mtbf, b.system_mtbf);
  EXPECT_EQ(a.detection_latency, b.detection_latency);
  EXPECT_EQ(a.checkpoint_interval, b.checkpoint_interval);
  EXPECT_EQ(a.expected_seconds, b.expected_seconds);
  EXPECT_EQ(a.goodput, b.goodput);
}

TEST(Determinism, RecoveryTimelineIsBitIdenticalAcrossRunsAndThreads) {
  // The event-driven recovery controller on an MTBF-generated fault schedule:
  // the full timeline (every fault, decision, downtime and throughput
  // interval) must replay byte-identically across repeats, and on a fresh
  // thread, whose thread-local run context and callback/payload pools start
  // empty.
  core::FaultToleranceOptions options;
  options.recovery.enabled = true;
  options.checkpoint_interval = Seconds(600);
  options.faults.seed = 7;
  options.faults.link_flap_mtbf = Seconds(2e4);
  options.faults.slow_host_mtbf = Seconds(4e4);
  options.faults.slow_host_degrade_factor = 4096.0;
  options.faults.slow_host_mean_duration = Seconds(30);
  auto run = [&] {
    core::MultipodSystem system(topo::TopologyConfig::Slice(16, 8, true));
    return system.SimulateTrainingUnderFailures(
        models::Benchmark::kDlrm, 65536, 1,
        frameworks::Framework::kTensorFlow, options);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_TRUE(a.recovered);
  EXPECT_TRUE(a.timeline.completed);
  EXPECT_GT(a.timeline.faults_applied, 0);
  EXPECT_EQ(a.expected_seconds, b.expected_seconds);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.timeline.ToJson(), b.timeline.ToJson());

  core::FaultTolerantResult fresh;
  std::thread([&] { fresh = run(); }).join();
  EXPECT_EQ(a.timeline.ToJson(), fresh.timeline.ToJson());
}

TEST(Determinism, PlannerSearchIsBitIdenticalAcrossRuns) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(8, 8, true));
  const net::NetworkConfig config;
  plan::PlanRequest request;
  request.elems = 1 << 16;
  request.max_chunks = 4;
  request.des_top_k = 4;
  const auto a = plan::FindBestPlan(topo, config, request);
  const auto b = plan::FindBestPlan(topo, config, request);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.plan.name(), b.plan.name());
  EXPECT_EQ(a.predicted_seconds, b.predicted_seconds);
  EXPECT_EQ(a.estimated_seconds, b.estimated_seconds);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.des_runs, b.des_runs);
}

TEST(Determinism, CausalTrackerOnOrOffLeavesCollectiveTimingBitIdentical) {
  // Causal event tracking is pure observation: the instrumented schedule/fire
  // path is one thread-local load and branch when disabled, and even when a
  // tracker is installed no event, timestamp or ordering may change. Every
  // comparison is exact.
  auto run = [](bool tracked) {
    const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
    sim::Simulator simulator;
    net::Network network(&topo, {}, &simulator);
    network.DegradeLink(topo.LinkBetween(topo.ChipAt({3, 2}),
                                         topo.ChipAt({3, 3})),
                        4.0);
    trace::CriticalPathTracker tracker;
    sim::ScopedEventObserver observe(
        tracked ? static_cast<sim::EventObserver*>(&tracker)
                : sim::CurrentEventObserver());
    coll::GradientSummationConfig config;
    config.elems = 1 << 18;
    return coll::TwoDGradientSummation(network, config);
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.reduce_seconds, on.reduce_seconds);
  EXPECT_EQ(off.update_seconds, on.update_seconds);
  EXPECT_EQ(off.broadcast_seconds, on.broadcast_seconds);
  ASSERT_EQ(off.stages.size(), 4u);
  ASSERT_EQ(on.stages.size(), off.stages.size());
  for (std::size_t i = 0; i < off.stages.size(); ++i) {
    EXPECT_STREQ(off.stages[i].name, on.stages[i].name);
    EXPECT_EQ(off.stages[i].seconds, on.stages[i].seconds)
        << off.stages[i].name;
  }
}

TEST(Determinism, SimulateStepWithRunReportIsBitIdentical) {
  // Requesting a RunReport installs the causal tracker around the step's
  // collective; the step timing itself must not move by a single ULP.
  const models::ModelSpec& spec =
      models::GetModelSpec(models::Benchmark::kResNet50);
  auto run = [&](trace::RunReport* report) {
    core::MultipodSystem system(64);
    return system.SimulateStep(spec, 64 * 64, 1, nullptr, nullptr, report);
  };
  const core::StepBreakdown plain = run(nullptr);
  trace::RunReport report;
  const core::StepBreakdown reported = run(&report);
  EXPECT_EQ(plain.compute, reported.compute);
  EXPECT_EQ(plain.allreduce, reported.allreduce);
  EXPECT_EQ(plain.overlapped, reported.overlapped);
  EXPECT_EQ(plain.weight_update, reported.weight_update);
  EXPECT_EQ(plain.embedding_comm, reported.embedding_comm);
  EXPECT_EQ(plain.step(), reported.step());
  // Identical runs produce byte-identical report JSON.
  trace::RunReport again;
  run(&again);
  EXPECT_EQ(report.ToJson(), again.ToJson());
}

TEST(Determinism, SweepCsvIsByteIdenticalAcrossRepeats) {
  core::SweepConfig config;
  config.benchmark = models::Benchmark::kResNet50;
  config.chip_counts = {16, 32, 64, 128};
  config.batch_for = [](int chips) { return 256LL * chips; };
  const auto first = core::RunScalingSweep(config);
  const auto repeat = core::RunScalingSweep(config);
  ASSERT_EQ(first.size(), repeat.size());
  std::ostringstream a;
  std::ostringstream b;
  core::WriteSweepCsv(a, first);
  core::WriteSweepCsv(b, repeat);
  EXPECT_EQ(a.str(), b.str());
}

// The MTBF-seeded recovery scenario the timeline-determinism test above
// uses, optionally under a telemetry session.
core::FaultTolerantResult RunSeededRecovery(
    telemetry::TelemetrySession* session) {
  core::FaultToleranceOptions options;
  options.recovery.enabled = true;
  options.checkpoint_interval = Seconds(600);
  options.faults.seed = 7;
  options.faults.link_flap_mtbf = Seconds(2e4);
  options.faults.slow_host_mtbf = Seconds(4e4);
  options.faults.slow_host_degrade_factor = 4096.0;
  options.faults.slow_host_mean_duration = Seconds(30);
  telemetry::ScopedTelemetry install(session);
  core::MultipodSystem system(topo::TopologyConfig::Slice(16, 8, true));
  return system.SimulateTrainingUnderFailures(
      models::Benchmark::kDlrm, 65536, 1, frameworks::Framework::kTensorFlow,
      options);
}

TEST(Determinism, TelemetrySamplingLeavesEveryWorkTimestampBitIdentical) {
  // Telemetry-class events share the DES queue but must not perturb a
  // single simulated timestamp: the sampled run's timeline serializes
  // byte-identically to the unsampled one.
  const auto off = RunSeededRecovery(nullptr);
  telemetry::TelemetrySession session;
  const auto on = RunSeededRecovery(&session);
  ASSERT_TRUE(on.recovered);
  EXPECT_GT(session.runs().size(), 0u);
  EXPECT_EQ(off.timeline.ToJson(), on.timeline.ToJson());
  EXPECT_EQ(off.expected_seconds, on.expected_seconds);
  EXPECT_EQ(off.goodput, on.goodput);
}

TEST(Determinism, TelemetryJsonIsByteIdenticalAcrossRepeatsAndThreads) {
  // The whole telemetry artifact — series, watchdog firings, flight dumps —
  // must be byte-identical across repeated runs and when the session is
  // installed on a fresh thread (the sampler rides the simulator clock, not
  // wall clock).
  const auto capture = [] {
    telemetry::TelemetrySession session;
    RunSeededRecovery(&session);
    return session.ToJson();
  };
  const std::string first = capture();
  const std::string repeat = capture();
  std::string fresh;
  std::thread([&] { fresh = capture(); }).join();
  EXPECT_EQ(first, repeat);
  EXPECT_EQ(first, fresh);
}

TEST(Determinism, SweepUnderTelemetryMatchesThePlainSweepByteForByte) {
  // An installed session observes the sweep without changing its CSV.
  core::SweepConfig config;
  config.benchmark = models::Benchmark::kResNet50;
  config.chip_counts = {16, 32, 64};
  config.batch_for = [](int chips) { return 256LL * chips; };
  const auto serial = core::RunScalingSweep(config);

  telemetry::TelemetrySession session;
  telemetry::ScopedTelemetry install(&session);
  const auto observed = core::RunScalingSweep(config);
  ASSERT_EQ(serial.size(), observed.size());
  std::ostringstream a;
  std::ostringstream b;
  core::WriteSweepCsv(a, serial);
  core::WriteSweepCsv(b, observed);
  EXPECT_EQ(a.str(), b.str());
}

// One seeded cluster run: Poisson stream + MTBF faults + a scripted
// cross-pod cable death, telemetry optionally installed.
std::string SeededClusterReportJson(telemetry::TelemetrySession* session) {
  cluster::ClusterConfig config;
  config.horizon = Hours(0.5);
  config.faults.seed = 13;
  config.faults.link_flap_mtbf = Seconds(4e4);
  config.faults.slow_host_mtbf = Seconds(8e4);
  const topo::MeshTopology topo(config.topology);
  config.scripted_faults = cluster::CrossPodCableFault(topo, 7, Seconds(120));

  cluster::WorkloadConfig workload;
  workload.seed = 5;
  workload.horizon = config.horizon;
  workload.max_jobs = 8;

  telemetry::ScopedTelemetry install(session);
  cluster::ClusterSimulation sim(config,
                                 cluster::GeneratePoissonWorkload(workload));
  return sim.Run().ToJson();
}

TEST(Determinism, ClusterReportIsByteIdenticalAcrossRepeats) {
  // The full cluster timeline — every admission, preemption, fault
  // delivery, recovery decision and the aggregate metrics — serializes
  // byte-identically on repeat runs, with or without telemetry sampling.
  const std::string first = SeededClusterReportJson(nullptr);
  const std::string repeat = SeededClusterReportJson(nullptr);
  EXPECT_EQ(first, repeat);

  telemetry::TelemetrySession session;
  const std::string sampled = SeededClusterReportJson(&session);
  EXPECT_GT(session.runs().size(), 0u);
  EXPECT_EQ(first, sampled);
}

TEST(Determinism, TrainingUnderFailuresAtScaleIsBitIdenticalAcrossRuns) {
  // The full 4096-chip multipod (4 pods of 32x32, analytic MTBF model): step
  // economics, detection latency, expected makespan and goodput replay
  // bit-identically.
  auto run = [] {
    core::FaultToleranceOptions options;
    options.faults.chip_mtbf = Seconds(2e5);
    core::MultipodSystem system(4096);
    return system.SimulateTrainingUnderFailures(
        models::Benchmark::kResNet50, 32768, 1,
        frameworks::Framework::kTensorFlow, options);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.failure_free.train_seconds, b.failure_free.train_seconds);
  EXPECT_EQ(a.failure_free.eval_seconds, b.failure_free.eval_seconds);
  EXPECT_EQ(a.failure_free.step.step(), b.failure_free.step.step());
  EXPECT_EQ(a.system_mtbf, b.system_mtbf);
  EXPECT_EQ(a.detection_latency, b.detection_latency);
  EXPECT_EQ(a.checkpoint_interval, b.checkpoint_interval);
  EXPECT_EQ(a.expected_seconds, b.expected_seconds);
  EXPECT_EQ(a.goodput, b.goodput);
}

TEST(Determinism, PlannerSearchOnDegradedSliceIsBitIdenticalAcrossRuns) {
  // Link health reaches both pricing tiers; the winner on a degraded 16x8
  // slice must not move by a ULP on repeat.
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  const net::NetworkConfig config;
  plan::PlanRequest request;
  request.elems = 1 << 16;
  request.max_chunks = 4;
  request.des_top_k = 4;
  plan::LinkHealthSet health;
  health.degraded = {
      {topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3})), 8.0}};
  const auto baseline = plan::FindBestPlan(topo, config, request, health);
  for (int repeat = 0; repeat < 3; ++repeat) {
    SCOPED_TRACE("repeat " + std::to_string(repeat));
    const auto result = plan::FindBestPlan(topo, config, request, health);
    EXPECT_EQ(baseline.plan, result.plan);
    EXPECT_EQ(baseline.plan.name(), result.plan.name());
    EXPECT_EQ(baseline.predicted_seconds, result.predicted_seconds);
    EXPECT_EQ(baseline.estimated_seconds, result.estimated_seconds);
    EXPECT_EQ(baseline.des_runs, result.des_runs);
  }
}

TEST(Determinism, FourPodTimeOnlySummationHoldsItsEventCountAndTime) {
  // A time-only 2-D summation on four 16x16 pods over the default network,
  // held to exact values: the work-event accounting and the simulated time.
  // Its ring steps complete in arrival waves that share counted queue
  // entries, which re-derive every counter below from per-copy arithmetic;
  // each must still read what one event per message gave.
  topo::TopologyConfig shape;
  shape.pod_size_x = 16;
  shape.pod_size_y = 16;
  shape.num_pods = 4;
  const topo::MeshTopology topo(shape);
  sim::Simulator simulator;
  net::Network network(&topo, net::NetworkConfig{}, &simulator);
  coll::GradientSummationConfig config;
  config.elems = 25'600'000;
  const auto result = coll::TwoDGradientSummation(network, config);
  EXPECT_EQ(simulator.events_processed(), 577536u);
  EXPECT_EQ(simulator.events_scheduled(), 577536u);
  EXPECT_EQ(simulator.peak_queue_depth(), 4096u);
  EXPECT_EQ(simulator.callbacks_inline(), 577536u);
  EXPECT_EQ(simulator.callbacks_pooled(), 0u);
  EXPECT_EQ(ToMillis(result.total()), 1.9597142857142786);
}

// --- The run context --------------------------------------------------------

class CountingObserver : public sim::EventObserver {
 public:
  void OnSchedule(std::uint64_t, std::int64_t, SimTime, SimTime) override {
    ++schedules;
  }
  void OnFire(std::uint64_t, SimTime) override { ++fires; }

  std::uint64_t schedules = 0;
  std::uint64_t fires = 0;
};

// All four sinks, installed for the object's lifetime.
struct InstalledSinks {
  trace::TraceRecorder recorder;
  trace::MetricsRegistry metrics;
  telemetry::TelemetrySession session;
  CountingObserver observer;
  trace::ScopedTrace trace_scope{&recorder};
  trace::ScopedMetrics metrics_scope{&metrics};
  telemetry::ScopedTelemetry telemetry_scope{&session};
  sim::ScopedEventObserver observer_scope{&observer};

  // The names of the registry's metrics.
  std::vector<std::string> MetricNames() const {
    std::ostringstream text;
    metrics.WriteText(text);
    std::istringstream lines(text.str());
    std::vector<std::string> names;
    for (std::string line; std::getline(lines, line);) {
      names.push_back(line.substr(0, line.find_first_of(" :")));
    }
    return names;
  }
};

TEST(RunContext, ThrowawayPricingLeavesEverySinkUntouched) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  const net::NetworkConfig config;
  plan::PlanRequest request;
  request.elems = 1 << 16;
  plan::LinkHealthSet health;
  health.degraded = {
      {topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3})), 8.0}};
  const std::string no_telemetry = telemetry::TelemetrySession().ToJson();

  {
    InstalledSinks sinks;
    plan::EvaluatePlanOnSimulator(topo, config, health,
                                  plan::PaperPlan(request), request.elems);
    EXPECT_EQ(sinks.recorder.event_count(), 0u);
    EXPECT_TRUE(sinks.MetricNames().empty());
    EXPECT_EQ(sinks.session.ToJson(), no_telemetry);
    EXPECT_EQ(sinks.observer.schedules, 0u);
    EXPECT_EQ(sinks.observer.fires, 0u);
  }
  {
    // An uncached degraded search records only its own plan-search instant
    // and plan.search.* counters.
    InstalledSinks sinks;
    const plan::PlannerResult result =
        plan::FindBestPlan(topo, config, request, health);
    EXPECT_GE(result.des_runs, 1);
    EXPECT_EQ(sinks.recorder.event_count(), 1u);
    EXPECT_NE(sinks.recorder.ToJson().find("plan-search " +
                                           result.plan.name()),
              std::string::npos);
    trace::MetricsRegistry expected;
    expected.Counter("plan.search.runs").Add(1);
    expected.Counter("plan.search.candidates").Add(result.candidates);
    expected.Counter("plan.search.evaluated").Add(result.evaluated);
    EXPECT_EQ(sinks.metrics.ToJson(), expected.ToJson());
    EXPECT_EQ(sinks.session.ToJson(), no_telemetry);
    EXPECT_EQ(sinks.observer.schedules, 0u);
    EXPECT_EQ(sinks.observer.fires, 0u);
  }
  {
    // Two tenants shrink or restart around a dead cable: the cluster prices
    // both slice shapes (a throwaway step simulation each) and searches plans
    // for the degraded slices. The sinks hold only the cluster's own run.
    cluster::ClusterConfig cluster_config;
    cluster_config.horizon = Hours(1);
    const topo::MeshTopology cluster_topo(cluster_config.topology);
    cluster_config.scripted_faults =
        cluster::CrossPodCableFault(cluster_topo, 7, Seconds(50));
    std::vector<cluster::JobSpec> jobs(2);
    jobs[0] = {0, "a", 0, 16, 4, 4000, 0};
    jobs[1] = {1, "b", Seconds(1), 16, 4, 4000, 0};
    InstalledSinks sinks;
    cluster::ClusterSimulation cluster(cluster_config, jobs);
    const cluster::ClusterReport report = cluster.Run();
    EXPECT_EQ(report.jobs_completed, 2);
    EXPECT_GT(report.shrinks, 0);
    // Every event the observer saw is the cluster simulator's own.
    EXPECT_EQ(sinks.observer.schedules,
              cluster.simulator().events_scheduled());
    EXPECT_EQ(sinks.observer.fires, cluster.simulator().events_processed());
    // The step simulation would add link transfers and ring phases, the
    // search its plan-search instants.
    const std::string trace_json = sinks.recorder.ToJson();
    EXPECT_EQ(trace_json.find("xfer "), std::string::npos);
    EXPECT_EQ(trace_json.find("reduce-scatter"), std::string::npos);
    EXPECT_EQ(trace_json.find("plan-search"), std::string::npos);
    for (const std::string& name : sinks.MetricNames()) {
      EXPECT_TRUE(name.rfind("cluster.", 0) == 0 || name.rfind("fault.", 0) == 0)
          << name;
    }
    EXPECT_EQ(sinks.session.runs().size(), 1u);
  }
}

TEST(RunContext, ScopedSilenceRestoresEverySinkWhenNested) {
  InstalledSinks sinks;
  ASSERT_TRUE(sim::CurrentRunContext().any());
  {
    sim::ScopedSilence outer;
    EXPECT_FALSE(sim::CurrentRunContext().any());
    CountingObserver inner_observer;
    sim::ScopedEventObserver observe(&inner_observer);
    {
      sim::ScopedSilence inner;
      EXPECT_FALSE(sim::CurrentRunContext().any());
    }
    EXPECT_EQ(sim::CurrentRunContext().observer, &inner_observer);
    EXPECT_EQ(sim::CurrentRunContext().trace, nullptr);
  }
  const sim::RunContext& restored = sim::CurrentRunContext();
  EXPECT_EQ(restored.trace, &sinks.recorder);
  EXPECT_EQ(restored.metrics, &sinks.metrics);
  EXPECT_EQ(restored.telemetry, &sinks.session);
  EXPECT_EQ(restored.observer, &sinks.observer);
}

}  // namespace
}  // namespace tpu
