// Bit-reproducibility gates for the event core: the timestamp-run queue,
// pooled callbacks, cached routes, and parallel sweep/search tiers must not
// perturb simulated time by a single ULP. Every comparison here is exact
// (EXPECT_EQ on doubles), not approximate.
#include <gtest/gtest.h>

#include <sstream>

#include "cluster/cluster.h"
#include "cluster/workload.h"
#include "collectives/all_reduce.h"
#include "core/multipod.h"
#include "core/sweep.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "plan/planner.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"
#include "trace/critical_path.h"
#include "trace/run_report.h"

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
  // interval) must replay byte-identically across repeats, and the planner
  // searches it issues must be thread-count invariant.
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

  options.recovery.search_threads = 4;
  const auto threaded = run();
  EXPECT_EQ(a.timeline.ToJson(), threaded.timeline.ToJson());
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
}

TEST(Determinism, PlannerSearchIsThreadCountInvariant) {
  // The exact pricing tier fans the candidates its lower bound leaves
  // standing across worker threads; the winner, its predicted time and the
  // number of simulations must match the serial search exactly.
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(8, 8, true));
  const net::NetworkConfig config;
  plan::PlanRequest request;
  request.elems = 1 << 16;
  request.max_chunks = 4;
  request.des_top_k = 4;
  request.search_threads = 1;
  const auto serial = plan::FindBestPlan(topo, config, request);
  request.search_threads = 4;
  const auto threaded = plan::FindBestPlan(topo, config, request);
  EXPECT_EQ(serial.plan, threaded.plan);
  EXPECT_EQ(serial.predicted_seconds, threaded.predicted_seconds);
  EXPECT_EQ(serial.estimated_seconds, threaded.estimated_seconds);
  EXPECT_EQ(serial.candidates, threaded.candidates);
  EXPECT_EQ(serial.evaluated, threaded.evaluated);
  EXPECT_EQ(serial.des_runs, threaded.des_runs);
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
  EXPECT_EQ(off.phase_seconds.y_reduce_scatter,
            on.phase_seconds.y_reduce_scatter);
  EXPECT_EQ(off.phase_seconds.x_reduce_scatter,
            on.phase_seconds.x_reduce_scatter);
  EXPECT_EQ(off.phase_seconds.x_all_gather, on.phase_seconds.x_all_gather);
  EXPECT_EQ(off.phase_seconds.y_all_gather, on.phase_seconds.y_all_gather);
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

TEST(Determinism, ParallelSweepCsvIsByteIdenticalToSerial) {
  core::SweepConfig config;
  config.benchmark = models::Benchmark::kResNet50;
  config.chip_counts = {16, 32, 64, 128};
  config.batch_for = [](int chips) { return 256LL * chips; };
  config.threads = 1;
  const auto serial = core::RunScalingSweep(config);
  config.threads = 4;
  const auto threaded = core::RunScalingSweep(config);
  ASSERT_EQ(serial.size(), threaded.size());
  std::ostringstream a;
  std::ostringstream b;
  core::WriteSweepCsv(a, serial);
  core::WriteSweepCsv(b, threaded);
  EXPECT_EQ(a.str(), b.str());
}

// The MTBF-seeded recovery scenario the timeline-determinism test above
// uses, optionally under a telemetry session.
core::FaultTolerantResult RunSeededRecovery(
    telemetry::TelemetrySession* session, int search_threads) {
  core::FaultToleranceOptions options;
  options.recovery.enabled = true;
  options.recovery.search_threads = search_threads;
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
  const auto off = RunSeededRecovery(nullptr, 1);
  telemetry::TelemetrySession session;
  const auto on = RunSeededRecovery(&session, 1);
  ASSERT_TRUE(on.recovered);
  EXPECT_GT(session.runs().size(), 0u);
  EXPECT_EQ(off.timeline.ToJson(), on.timeline.ToJson());
  EXPECT_EQ(off.expected_seconds, on.expected_seconds);
  EXPECT_EQ(off.goodput, on.goodput);
}

TEST(Determinism, TelemetryJsonIsByteIdenticalAcrossRepeatsAndThreads) {
  // The whole telemetry artifact — series, watchdog firings, flight dumps —
  // must be byte-identical across repeated runs and across planner thread
  // counts (the sampler rides the simulator clock, not wall clock).
  const auto capture = [](int search_threads) {
    telemetry::TelemetrySession session;
    RunSeededRecovery(&session, search_threads);
    return session.ToJson();
  };
  const std::string first = capture(1);
  const std::string repeat = capture(1);
  const std::string threaded = capture(4);
  EXPECT_EQ(first, repeat);
  EXPECT_EQ(first, threaded);
}

TEST(Determinism, SweepUnderTelemetryFallsBackToSerialByteIdentically) {
  // With a session installed the sweep runner must drop to one thread (the
  // session is thread-local) and still produce the exact serial CSV.
  core::SweepConfig config;
  config.benchmark = models::Benchmark::kResNet50;
  config.chip_counts = {16, 32, 64};
  config.batch_for = [](int chips) { return 256LL * chips; };
  config.threads = 1;
  const auto serial = core::RunScalingSweep(config);

  telemetry::TelemetrySession session;
  telemetry::ScopedTelemetry install(&session);
  config.threads = 4;
  const auto observed = core::RunScalingSweep(config);
  ASSERT_EQ(serial.size(), observed.size());
  std::ostringstream a;
  std::ostringstream b;
  core::WriteSweepCsv(a, serial);
  core::WriteSweepCsv(b, observed);
  EXPECT_EQ(a.str(), b.str());
}

// One seeded cluster run: Poisson stream + MTBF faults + a scripted
// cross-pod cable death, telemetry optionally installed, planner searches
// at `search_threads`.
std::string SeededClusterReportJson(int search_threads,
                                    telemetry::TelemetrySession* session) {
  cluster::ClusterConfig config;
  config.horizon = Hours(0.5);
  config.recovery.search_threads = search_threads;
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
  const std::string first = SeededClusterReportJson(1, nullptr);
  const std::string repeat = SeededClusterReportJson(1, nullptr);
  EXPECT_EQ(first, repeat);

  telemetry::TelemetrySession session;
  const std::string sampled = SeededClusterReportJson(1, &session);
  EXPECT_GT(session.runs().size(), 0u);
  EXPECT_EQ(first, sampled);
}

TEST(Determinism, ClusterReportIsThreadCountInvariant) {
  // Per-job planner searches (the recovery pricers) may fan out across
  // threads; the cluster timeline must not move by a ULP.
  const std::string serial = SeededClusterReportJson(1, nullptr);
  const std::string threaded = SeededClusterReportJson(4, nullptr);
  EXPECT_EQ(serial, threaded);
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

TEST(Determinism, PlannerSearchOnDegradedSliceIsThreadCountInvariant) {
  // Link health reaches both pricing tiers; the winner on a degraded 16x8
  // slice must not move by a ULP on repeat or at any re-pricing thread count.
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  const net::NetworkConfig config;
  plan::PlanRequest request;
  request.elems = 1 << 16;
  request.max_chunks = 4;
  request.des_top_k = 4;
  plan::LinkHealthSet health;
  health.degraded = {
      {topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3})), 8.0}};
  auto search = [&](int threads) {
    request.search_threads = threads;
    return plan::FindBestPlan(topo, config, request, health);
  };
  const auto baseline = search(1);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("search_threads=" + std::to_string(threads));
    const auto result = search(threads);
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

}  // namespace
}  // namespace tpu
