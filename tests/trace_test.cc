// Tests for the tracing & metrics layer: span bookkeeping, deterministic
// JSON export, zero-overhead-when-off guarantees, histogram percentile edge
// cases, simulator counters, and the step profiler.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collectives/all_reduce.h"
#include "core/sweep.h"
#include "fault/fault_injector.h"
#include "network/network.h"
#include "plan/executor.h"
#include "plan/plan_ir.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "trace/metrics.h"
#include "trace/step_profiler.h"
#include "trace/trace.h"

namespace tpu {
namespace {

// --- TraceRecorder -------------------------------------------------------

TEST(TraceRecorder, TracksDedupeAndAssignStableIds) {
  trace::TraceRecorder recorder;
  const auto a = recorder.Track("pod0", "links");
  const auto b = recorder.Track("pod1", "links");
  const auto c = recorder.Track("pod0", "links");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
}

TEST(TraceRecorder, SpansNest) {
  trace::TraceRecorder recorder;
  const auto track = recorder.Track("system", "step");
  EXPECT_EQ(recorder.open_spans(track), 0);
  recorder.Begin(track, "outer", 0.0);
  recorder.Begin(track, "inner", 1.0);
  EXPECT_EQ(recorder.open_spans(track), 2);
  recorder.End(track, 2.0);
  EXPECT_EQ(recorder.open_spans(track), 1);
  recorder.End(track, 3.0);
  EXPECT_EQ(recorder.open_spans(track), 0);
  EXPECT_EQ(recorder.event_count(), 4u);
}

TEST(TraceRecorder, JsonContainsMetadataSpansAndCounters) {
  trace::TraceRecorder recorder;
  const auto track = recorder.Track("pod0", "link 0");
  const auto counter = recorder.Counter(track, "bytes_in_flight");
  recorder.Complete(track, "xfer 1.0KiB", Micros(1), Micros(3));
  recorder.Instant(track, "link failed", Micros(2));
  recorder.CounterDelta(counter, Micros(1), 1024);
  recorder.CounterDelta(counter, Micros(3), -1024);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("bytes_in_flight"), std::string::npos);
  // The counter series accumulates deltas to absolute values.
  EXPECT_NE(json.find("\"value\":1024.000"), std::string::npos);
  EXPECT_NE(json.find("\"value\":0.000"), std::string::npos);
}

TEST(TraceRecorder, Fixed3FormatMatchesPrintfByteForByte) {
  std::vector<double> values = {
      0.0, -0.0, 0.0005, 0.0015, 0.0025, -0.0005, -0.0004, -0.0001, 1.0005,
      2.5e-4, 1.2345, 0.1 + 0.2, 1e15, -1e15, 1e15 + 0.5, 123456789.0125,
      4.9e-324, -4.9e-324, 2.2250738585072014e-308, 1e300,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(), 9.9995, 99.9995, 0.9995};
  // Halfway points at three decimals (x.xxx5), where the binary value sits
  // just above or just below the decimal tie.
  for (int i = 0; i < 2000; ++i) values.push_back((i + 0.5) / 1000.0);
  std::mt19937_64 rng(20201106);
  for (int i = 0; i < 100000; ++i) {
    // Random bit patterns (finite only), plus timestamp-like magnitudes.
    std::uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) values.push_back(value);
    const double scale = std::ldexp(1.0, static_cast<int>(rng() % 80) - 40);
    values.push_back((static_cast<double>(rng() >> 11) * 0x1.0p-53 - 0.5) *
                     scale);
  }
  std::vector<char> expected(400);
  for (const double value : values) {
    std::snprintf(expected.data(), expected.size(), "%.3f", value);
    std::string actual;
    trace::AppendFixed3(&actual, value);
    ASSERT_EQ(actual, std::string(expected.data())) << value;
  }
}

TEST(TraceRecorder, TimeOffsetShiftsTimestamps) {
  trace::TraceRecorder recorder;
  const auto track = recorder.Track("system", "step");
  recorder.Complete(track, "first", 0.0, Micros(10));
  EXPECT_DOUBLE_EQ(recorder.last_timestamp(), Micros(10));
  {
    trace::ScopedTimeOffset offset(&recorder, recorder.last_timestamp());
    recorder.Complete(track, "second", 0.0, Micros(5));
  }
  EXPECT_DOUBLE_EQ(recorder.last_timestamp(), Micros(15));
  EXPECT_DOUBLE_EQ(recorder.time_offset(), 0.0);  // restored
}

TEST(TraceRecorder, ScopedTraceInstallsAndRestores) {
  EXPECT_EQ(trace::CurrentTrace(), nullptr);
  {
    trace::TraceRecorder recorder;
    trace::ScopedTrace scoped(&recorder);
    EXPECT_EQ(trace::CurrentTrace(), &recorder);
  }
  EXPECT_EQ(trace::CurrentTrace(), nullptr);
}

// --- Traced simulation ---------------------------------------------------

coll::GradientSummationResult RunSmallSummation() {
  sim::Simulator simulator;
  topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, /*wrap_y=*/true));
  net::Network network(&topo, {}, &simulator);
  coll::GradientSummationConfig config;
  config.elems = 1 << 14;
  config.collective.bfloat16_wire = true;
  config.shard_update_seconds = [](std::int64_t owned) {
    return Seconds(static_cast<double>(owned) * 1e-9);
  };
  return coll::TwoDGradientSummation(network, config);
}

TEST(TracedSimulation, ResultsBitIdenticalWithTracingOnOrOff) {
  const coll::GradientSummationResult off = RunSmallSummation();

  trace::TraceRecorder recorder;
  trace::MetricsRegistry metrics;
  coll::GradientSummationResult on;
  {
    trace::ScopedTrace scoped_trace(&recorder);
    trace::ScopedMetrics scoped_metrics(&metrics);
    on = RunSmallSummation();
  }
  // Tracing only observes: every timing must match to the last bit.
  EXPECT_EQ(off.reduce_seconds, on.reduce_seconds);
  EXPECT_EQ(off.update_seconds, on.update_seconds);
  EXPECT_EQ(off.broadcast_seconds, on.broadcast_seconds);
  EXPECT_EQ(off.max_owned_elems, on.max_owned_elems);
  EXPECT_GT(recorder.event_count(), 0u);
  EXPECT_FALSE(metrics.empty());
}

TEST(TracedSimulation, JsonDeterministicAcrossIdenticalRuns) {
  std::string json[2];
  for (int run = 0; run < 2; ++run) {
    trace::TraceRecorder recorder;
    trace::ScopedTrace scoped(&recorder);
    RunSmallSummation();
    json[run] = recorder.ToJson();
  }
  EXPECT_EQ(json[0], json[1]);
  EXPECT_GT(json[0].size(), 0u);
}

TEST(TracedSimulation, SummationEmitsAllSixPhaseSpans) {
  trace::TraceRecorder recorder;
  trace::ScopedTrace scoped(&recorder);
  RunSmallSummation();
  const std::string json = recorder.ToJson();
  for (const char* name :
       {"2d-summation", "reduce-scatter-Y", "reduce-scatter-X",
        "sharded-update", "broadcast-X", "broadcast-Y"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  // Ring async spans and per-link tracks ride along.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("Y x=0 reduce-scatter"), std::string::npos);
  EXPECT_NE(json.find("link 0 ("), std::string::npos);  // per-link threads
  EXPECT_NE(json.find("meshX"), std::string::npos);
  EXPECT_NE(json.find("bytes_in_flight"), std::string::npos);
  // The summation closed its umbrella span.
  EXPECT_EQ(recorder.open_spans(recorder.Track("system", "summation")), 0);
}

// The paper's plan through ExecutePlan on RunSmallSummation's rig and
// payload: the same stage runner under the planner's reporting format.
plan::PlanExecutionResult RunSmallPlan() {
  sim::Simulator simulator;
  topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, /*wrap_y=*/true));
  net::Network network(&topo, {}, &simulator);
  plan::PlanRequest request;
  request.elems = 1 << 14;
  plan::PlanExecutionConfig config;
  config.shard_update_seconds = [](std::int64_t owned) {
    return Seconds(static_cast<double>(owned) * 1e-9);
  };
  return plan::ExecutePlan(network, plan::PaperPlan(request), request.elems,
                           config);
}

bool Has(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

// The fixed schedule reports on the `summation` track and `summation.*`
// metrics only; ExecutePlan over the same runner reports on the `plan` track
// and `plan.exec.*` metrics only.
TEST(TracedSimulation, SummationReportsOnlyTheSummationFormat) {
  trace::TraceRecorder recorder;
  trace::MetricsRegistry metrics;
  {
    trace::ScopedTrace scoped_trace(&recorder);
    trace::ScopedMetrics scoped_metrics(&metrics);
    RunSmallSummation();
  }
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(Has(json, R"("args":{"name":"summation"})"));
  EXPECT_TRUE(Has(json, R"("name":"2d-summation"})"));
  EXPECT_FALSE(Has(json, R"("args":{"name":"plan"})"));
  EXPECT_FALSE(Has(json, R"("name":"plan )"));
  const std::string dump = metrics.ToJson();
  for (const char* name :
       {"summation.runs", "summation.total_us", "summation.y_reduce_scatter_us",
        "summation.x_reduce_scatter_us", "summation.update_us",
        "summation.x_all_gather_us", "summation.y_all_gather_us"}) {
    EXPECT_TRUE(Has(dump, std::string("\"") + name + "\"")) << name;
  }
  EXPECT_FALSE(Has(dump, "plan.exec"));
}

TEST(TracedSimulation, ExecutePlanReportsOnlyThePlanFormat) {
  trace::TraceRecorder recorder;
  trace::MetricsRegistry metrics;
  plan::PlanExecutionResult result;
  {
    trace::ScopedTrace scoped_trace(&recorder);
    trace::ScopedMetrics scoped_metrics(&metrics);
    result = RunSmallPlan();
  }
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(Has(json, R"("args":{"name":"plan"})"));
  EXPECT_TRUE(Has(json, R"("name":"plan ring-2d[Y->X] bidir bf16"})"));
  for (const char* stage : {"Y-reduce-scatter", "X-reduce-scatter",
                            "sharded-update", "X-all-gather", "Y-all-gather"}) {
    EXPECT_TRUE(Has(json, std::string(R"("name":")") + stage + "\"}"))
        << stage;
  }
  EXPECT_EQ(recorder.open_spans(recorder.Track("system", "plan")), 0);
  EXPECT_FALSE(Has(json, R"("args":{"name":"summation"})"));
  EXPECT_FALSE(Has(json, "2d-summation"));
  const std::string dump = metrics.ToJson();
  EXPECT_TRUE(Has(dump, R"("plan.exec.runs")"));
  EXPECT_TRUE(Has(dump, R"("plan.exec.total_us")"));
  EXPECT_FALSE(Has(dump, "summation."));
  // Same runner, same numbers: the formats differ only in what they report.
  const coll::GradientSummationResult fixed = RunSmallSummation();
  EXPECT_EQ(result.total(), fixed.total());
  ASSERT_EQ(result.stages.size(), 4u);
  EXPECT_EQ(result.stages[0].seconds, fixed.phase_seconds.y_reduce_scatter);
  EXPECT_EQ(result.stages[3].seconds, fixed.phase_seconds.y_all_gather);
}

TEST(TracedSimulation, PhaseSecondsAlwaysFilledAndConsistent) {
  const coll::GradientSummationResult result = RunSmallSummation();
  const coll::SummationPhaseSeconds& p = result.phase_seconds;
  EXPECT_GT(p.y_reduce_scatter, 0.0);
  EXPECT_GT(p.x_reduce_scatter, 0.0);
  EXPECT_GT(p.update, 0.0);
  EXPECT_GT(p.x_all_gather, 0.0);
  EXPECT_GT(p.y_all_gather, 0.0);
  EXPECT_DOUBLE_EQ(p.y_reduce_scatter + p.x_reduce_scatter,
                   result.reduce_seconds);
  EXPECT_DOUBLE_EQ(p.update, result.update_seconds);
  EXPECT_DOUBLE_EQ(p.x_all_gather + p.y_all_gather, result.broadcast_seconds);
}

TEST(TracedSimulation, FaultInjectionEmitsInstantEvents) {
  trace::TraceRecorder recorder;
  trace::ScopedTrace scoped(&recorder);

  sim::Simulator simulator;
  topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, /*wrap_y=*/true));
  net::Network network(&topo, {}, &simulator);
  fault::FaultInjector injector(&network, {});
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kLinkFlap;
  flap.link = 2;
  flap.duration = Micros(100);
  flap.degrade_factor = 8.0;
  simulator.Schedule(Micros(10), [&] { injector.Apply(flap); });
  simulator.Run();

  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("link-flap link=2"), std::string::npos);
  EXPECT_NE(json.find("degraded x8.0"), std::string::npos);
  EXPECT_NE(json.find("link restored"), std::string::npos);
  EXPECT_NE(json.find("\"faults\""), std::string::npos);
}

// --- Metrics -------------------------------------------------------------

TEST(MetricHistogram, EmptyReportsZero) {
  trace::MetricHistogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
}

TEST(MetricHistogram, SingleSampleIsExactAtEveryPercentile) {
  trace::MetricHistogram histogram;
  histogram.Record(123.456);
  for (const double p : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Percentile(p), 123.456) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(histogram.mean(), 123.456);
}

TEST(MetricHistogram, ZeroAndNegativeSamplesLandBelowAllBuckets) {
  trace::MetricHistogram histogram;
  histogram.Record(0.0);
  histogram.Record(-5.0);
  histogram.Record(100.0);
  EXPECT_EQ(histogram.count(), 3);
  EXPECT_DOUBLE_EQ(histogram.min(), -5.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 100.0);
  // Median falls among the non-positive samples.
  EXPECT_LE(histogram.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 100.0);
}

TEST(MetricHistogram, PercentilesApproximateUniformSamples) {
  trace::MetricHistogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.Record(i);
  // Log-scale buckets are ~9% wide; interpolated percentiles must land
  // within one bucket of the exact order statistic.
  EXPECT_NEAR(histogram.Percentile(0.50), 500, 50);
  EXPECT_NEAR(histogram.Percentile(0.95), 950, 90);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 1000);
  EXPECT_DOUBLE_EQ(histogram.min(), 1);
}

TEST(MetricHistogram, BucketBoundaryValuesClampToExactMinAndMax) {
  // Samples sitting exactly on geometric bucket edges (powers of two are
  // powers of the 2^(1/8) ratio) must never let interpolation escape the
  // exact [min, max] envelope.
  trace::MetricHistogram histogram;
  for (const double v : {1.0, 2.0, 4.0, 1024.0}) histogram.Record(v);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 1024.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 1024.0);
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    EXPECT_GE(histogram.Percentile(p), 1.0) << "p=" << p;
    EXPECT_LE(histogram.Percentile(p), 1024.0) << "p=" << p;
  }
  // Identical samples collapse the envelope: every percentile is exact even
  // though the containing bucket is ~9% wide.
  trace::MetricHistogram repeated;
  for (int i = 0; i < 17; ++i) repeated.Record(2.0);
  for (const double p : {0.0, 0.3, 0.5, 0.97, 1.0}) {
    EXPECT_DOUBLE_EQ(repeated.Percentile(p), 2.0) << "p=" << p;
  }
}

TEST(MetricHistogram, SingleNegativeSampleIsExactAtEveryPercentile) {
  // Regression: negative samples live in the below-all-buckets block, whose
  // interpolation used to report 0 (the block's upper edge) even when every
  // sample was the same negative value.
  trace::MetricHistogram histogram;
  histogram.Record(-7.5);
  for (const double p : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Percentile(p), -7.5) << "p=" << p;
  }
}

TEST(MetricHistogram, AllEqualNegativeSamplesCollapseEveryPercentile) {
  trace::MetricHistogram histogram;
  for (int i = 0; i < 9; ++i) histogram.Record(-3.0);
  for (const double p : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Percentile(p), -3.0) << "p=" << p;
  }
}

TEST(MetricHistogram, NegativeBlockInterpolatesWithinMinMaxEnvelope) {
  trace::MetricHistogram histogram;
  histogram.Record(-10.0);
  histogram.Record(-2.0);
  histogram.Record(5.0);
  // Percentiles inside the non-positive block interpolate between min and
  // 0, never escaping [min, max].
  for (double p = 0.0; p <= 1.0; p += 0.1) {
    EXPECT_GE(histogram.Percentile(p), -10.0) << "p=" << p;
    EXPECT_LE(histogram.Percentile(p), 5.0) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.0), -10.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 5.0);
}

TEST(MetricHistogram, ResetRestoresTheEmptyState) {
  trace::MetricHistogram histogram;
  histogram.Record(-1.0);
  histogram.Record(42.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5), 0.0);
  // A fresh recording after Reset behaves exactly like a new histogram.
  histogram.Record(3.0);
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5), 3.0);
}

TEST(MetricsRegistry, ResetClearsAllInstrumentsForReuse) {
  // Sweep drivers reuse one registry across repetitions; the second
  // repetition must see a clean slate, not sums over both.
  trace::MetricsRegistry registry;
  std::ostringstream first, second;
  for (int repetition = 0; repetition < 2; ++repetition) {
    registry.Reset();
    registry.Counter("sweep.points").Add(3);
    registry.Gauge("sweep.batch").Set(1024);
    registry.Histogram("sweep.step_ms").Record(7.25);
    std::ostringstream& out = (repetition == 0 ? first : second);
    registry.WriteJson(out);
  }
  EXPECT_FALSE(registry.empty());
  EXPECT_EQ(first.str(), second.str());

  registry.Reset();
  EXPECT_TRUE(registry.empty());
  std::ostringstream emptied;
  registry.WriteJson(emptied);
  trace::MetricsRegistry fresh;
  std::ostringstream never_used;
  fresh.WriteJson(never_used);
  EXPECT_EQ(emptied.str(), never_used.str());
}

TEST(MetricsRegistry, RegistriesAreThreadLocal) {
  trace::MetricsRegistry registry;
  trace::ScopedMetrics install(&registry);
  ASSERT_EQ(trace::CurrentMetrics(), &registry);
  // The installed registry must be invisible from a worker thread: the
  // globals are thread_local precisely so concurrent sweeps cannot race on
  // one registry.
  trace::MetricsRegistry* seen_in_worker = &registry;
  std::thread worker([&] { seen_in_worker = trace::CurrentMetrics(); });
  worker.join();
  EXPECT_EQ(seen_in_worker, nullptr);
  EXPECT_EQ(trace::CurrentMetrics(), &registry);
}

TEST(MetricsRegistry, MeteredSweepMatchesPlainSerialSweepByteForByte) {
  // With a registry installed RunScalingSweep falls back to serial (worker
  // threads would see a null thread-local registry and simulate silently).
  // The observable sweep output must be byte-identical to an unmetered run
  // at any requested thread count.
  const auto run = [](int threads) {
    core::SweepConfig config;
    config.benchmark = models::Benchmark::kResNet50;
    config.chip_counts = {16, 32, 64};
    config.batch_for = [](int chips) { return 256LL * chips; };
    config.threads = threads;
    std::ostringstream csv;
    core::WriteSweepCsv(csv, core::RunScalingSweep(config));
    return csv.str();
  };
  const std::string plain = run(1);
  trace::MetricsRegistry registry;
  std::string metered;
  {
    trace::ScopedMetrics install(&registry);
    metered = run(4);  // forced serial by the installed registry
  }
  EXPECT_EQ(metered, plain);
  EXPECT_FALSE(registry.empty());
  // And a genuinely parallel unmetered run agrees too.
  EXPECT_EQ(run(4), plain);
}

TEST(MetricsRegistry, DumpsAreDeterministicAndNamed) {
  trace::MetricsRegistry metrics;
  metrics.Counter("net.messages").Add(7);
  metrics.Gauge("net.max_link_utilization").Max(0.5);
  metrics.Gauge("net.max_link_utilization").Max(0.25);  // keeps the max
  metrics.Histogram("net.link_queue_delay_us").Record(3.0);

  std::ostringstream text;
  metrics.WriteText(text);
  EXPECT_NE(text.str().find("net.messages = 7"), std::string::npos);
  EXPECT_NE(text.str().find("net.max_link_utilization = 0.5"),
            std::string::npos);
  EXPECT_NE(text.str().find("net.link_queue_delay_us: count=1"),
            std::string::npos);

  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"net.messages\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// --- Simulator counters & RunUntil policy --------------------------------

TEST(Simulator, CountsScheduledEventsAndPeakQueueDepth) {
  sim::Simulator simulator;
  for (int i = 0; i < 5; ++i) simulator.Schedule(1.0 + i, [] {});
  EXPECT_EQ(simulator.events_scheduled(), 5u);
  EXPECT_EQ(simulator.peak_queue_depth(), 5u);
  simulator.Run();
  EXPECT_EQ(simulator.events_processed(), 5u);
  EXPECT_EQ(simulator.peak_queue_depth(), 5u);  // high-water mark persists

  trace::MetricsRegistry metrics;
  trace::ExportSimulatorMetrics(simulator, "sim", metrics);
  EXPECT_EQ(metrics.Counter("sim.events_scheduled").value, 5);
  EXPECT_EQ(metrics.Counter("sim.events_processed").value, 5);
  EXPECT_DOUBLE_EQ(metrics.Gauge("sim.peak_queue_depth").value, 5.0);
}

TEST(Simulator, RunUntilAdvanceToDeadlineIsTheDefault) {
  sim::Simulator simulator;
  simulator.Schedule(1.0, [] {});
  simulator.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(simulator.now(), 10.0);  // historical behaviour preserved
}

TEST(Simulator, RunUntilStopAtLastEventLeavesClockAtQuiescence) {
  sim::Simulator simulator;
  simulator.Schedule(1.0, [] {});
  simulator.RunUntil(10.0, sim::Simulator::DeadlinePolicy::kStopAtLastEvent);
  EXPECT_DOUBLE_EQ(simulator.now(), 1.0);
  // A later deadline with pending events still stops at the deadline edge.
  simulator.Schedule(4.0, [] {});
  simulator.Schedule(100.0, [] {});
  simulator.RunUntil(20.0, sim::Simulator::DeadlinePolicy::kStopAtLastEvent);
  EXPECT_DOUBLE_EQ(simulator.now(), 5.0);
  EXPECT_FALSE(simulator.empty());
}

// --- StepProfiler --------------------------------------------------------

TEST(StepProfiler, AccumulatesPhasesPerStep) {
  trace::StepProfiler profiler;
  profiler.BeginStep("step0");
  profiler.Record(trace::StepPhase::kForward, Millis(1));
  profiler.Record(trace::StepPhase::kBackward, Millis(2));
  profiler.Record(trace::StepPhase::kBackward, Millis(1));  // accumulates
  profiler.EndStep();
  profiler.BeginStep("step1");
  profiler.Record(trace::StepPhase::kReduceScatterY, Millis(4));
  profiler.EndStep();

  EXPECT_EQ(profiler.steps(), 2);
  EXPECT_DOUBLE_EQ(profiler.Total(trace::StepPhase::kBackward), Millis(3));
  EXPECT_DOUBLE_EQ(profiler.StepSeconds(0, trace::StepPhase::kForward),
                   Millis(1));
  EXPECT_DOUBLE_EQ(profiler.StepSeconds(1, trace::StepPhase::kReduceScatterY),
                   Millis(4));
  EXPECT_DOUBLE_EQ(profiler.TotalStep(), Millis(8));

  std::ostringstream table;
  profiler.WriteTable(table);
  EXPECT_NE(table.str().find("forward"), std::string::npos);
  EXPECT_NE(table.str().find("reduce-scatter-Y"), std::string::npos);
  // Phases never recorded are omitted from the table.
  EXPECT_EQ(table.str().find("embedding-comm"), std::string::npos);
}

TEST(StepProfiler, PhaseNamesCoverTheTaxonomy) {
  for (int i = 0; i < trace::kNumStepPhases; ++i) {
    EXPECT_STRNE(trace::StepPhaseName(static_cast<trace::StepPhase>(i)), "");
  }
}

TEST(StepProfiler, EmptyRunReportIsWellFormed) {
  // A profiler that never saw a step must report clean zeros and write a
  // table without dividing by the zero step count.
  trace::StepProfiler profiler;
  EXPECT_EQ(profiler.steps(), 0);
  EXPECT_DOUBLE_EQ(profiler.TotalStep(), 0.0);
  for (int i = 0; i < trace::kNumStepPhases; ++i) {
    EXPECT_DOUBLE_EQ(profiler.Total(static_cast<trace::StepPhase>(i)), 0.0);
  }
  std::ostringstream table;
  profiler.WriteTable(table);
  EXPECT_EQ(table.str().find("nan"), std::string::npos);
  EXPECT_EQ(table.str().find("inf"), std::string::npos);
}

TEST(StepProfiler, BeginWithoutRecordYieldsAnAllZeroStep) {
  trace::StepProfiler profiler;
  profiler.BeginStep("idle");
  profiler.EndStep();
  EXPECT_EQ(profiler.steps(), 1);
  EXPECT_DOUBLE_EQ(profiler.TotalStep(), 0.0);
  std::ostringstream table;
  profiler.WriteTable(table);
  EXPECT_EQ(table.str().find("nan"), std::string::npos);
}

// --- Committed quickstart trace ------------------------------------------

std::size_t CountOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(QuickstartTrace, CommittedTraceIsSchemaValidWithWellFormedFlows) {
  // docs/quickstart_trace.json is the committed output of
  // `quickstart --trace=...`; regenerate it whenever the trace schema or the
  // mini-run changes. This test keeps the committed artifact honest.
  const std::string path =
      std::string(TPU_REPO_ROOT) + "/docs/quickstart_trace.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  // Chrome-trace schema basics.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_GT(CountOccurrences(json, "\"ph\":\"X\""), 0u);
  // Balanced braces/brackets is a cheap proxy for well-formed JSON (the
  // recorder never emits strings containing braces).
  EXPECT_EQ(CountOccurrences(json, "{"), CountOccurrences(json, "}"));
  EXPECT_EQ(CountOccurrences(json, "["), CountOccurrences(json, "]"));

  // Flow-event well-formedness: the critical-path chain is one flow — a
  // single start, a single end carrying the enclosing-slice binding point,
  // intermediate steps, and every flow event tagged with the critpath
  // category and an id.
  const std::size_t starts = CountOccurrences(json, "\"ph\":\"s\"");
  const std::size_t steps = CountOccurrences(json, "\"ph\":\"t\"");
  const std::size_t ends = CountOccurrences(json, "\"ph\":\"f\"");
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(ends, 1u);
  EXPECT_GT(steps, 0u);
  EXPECT_EQ(CountOccurrences(json, "\"bp\":\"e\""), ends);
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"critpath\""),
            starts + steps + ends);
  // The critical-path track with its attributed segments rides along.
  EXPECT_NE(json.find("critical-path"), std::string::npos);
}

}  // namespace
}  // namespace tpu
