// Fault subsystem: seeded injection, deadline-based detection, and the
// checkpoint/restart goodput model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "collectives/all_reduce.h"
#include "core/multipod.h"
#include "fault/checkpoint.h"
#include "fault/fault_injector.h"
#include "fault/health_monitor.h"
#include "network/network.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "trace/metrics.h"

namespace tpu {
namespace {

struct Rig {
  topo::MeshTopology topo;
  sim::Simulator simulator;
  net::Network network;

  explicit Rig(int size_x = 8, int size_y = 8)
      : topo(topo::TopologyConfig::Slice(size_x, size_y, true)),
        network(&topo, net::NetworkConfig{}, &simulator) {}
};

fault::FaultModelConfig BusyFaultModel(std::uint64_t seed) {
  fault::FaultModelConfig config;
  config.seed = seed;
  config.chip_mtbf = Seconds(50'000);
  config.link_flap_mtbf = Seconds(20'000);
  config.host_preemption_mtbf = Seconds(80'000);
  config.slow_host_mtbf = Seconds(80'000);
  return config;
}

TEST(FaultSchedule, DeterministicForFixedSeed) {
  Rig rig;
  const fault::FaultModelConfig config = BusyFaultModel(42);
  const auto a = fault::GenerateFaultSchedule(rig.topo, config, Seconds(500));
  const auto b = fault::GenerateFaultSchedule(rig.topo, config, Seconds(500));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultSchedule, SeedChangesTheSchedule) {
  Rig rig;
  const auto a =
      fault::GenerateFaultSchedule(rig.topo, BusyFaultModel(1), Seconds(500));
  const auto b =
      fault::GenerateFaultSchedule(rig.topo, BusyFaultModel(2), Seconds(500));
  EXPECT_NE(a, b);
}

TEST(FaultSchedule, SortedAndInsideHorizon) {
  Rig rig;
  const SimTime horizon = Seconds(300);
  const auto events =
      fault::GenerateFaultSchedule(rig.topo, BusyFaultModel(7), horizon);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].at, 0.0);
    EXPECT_LT(events[i].at, horizon);
    if (i > 0) {
      EXPECT_LE(events[i - 1].at, events[i].at);
    }
  }
}

TEST(FaultSchedule, ChipFailuresArePermanentAndUnique) {
  Rig rig;
  fault::FaultModelConfig config;
  config.seed = 3;
  config.chip_mtbf = Seconds(100);  // every chip fails well inside horizon
  const auto events =
      fault::GenerateFaultSchedule(rig.topo, config, Seconds(100'000));
  std::vector<int> failures(rig.topo.num_chips(), 0);
  for (const fault::FaultEvent& event : events) {
    ASSERT_EQ(event.kind, fault::FaultKind::kChipFailure);
    EXPECT_TRUE(event.permanent());
    ++failures[event.chip];
  }
  for (const int count : failures) EXPECT_LE(count, 1);
}

TEST(FaultInjector, LinkFlapDegradesThenHeals) {
  Rig rig;
  const auto link =
      rig.topo.LinkBetween(rig.topo.ChipAt({1, 1}), rig.topo.ChipAt({1, 2}));
  fault::FaultInjector injector(&rig.network, {});
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kLinkFlap;
  flap.link = link;
  flap.duration = Seconds(5);
  flap.degrade_factor = 8.0;
  injector.Apply(flap);
  EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 8.0);
  rig.simulator.Run();  // healing event
  EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 1.0);
  EXPECT_GE(rig.simulator.now(), Seconds(5));
}

TEST(FaultInjector, ChipFailureFailsAllItsLinks) {
  Rig rig;
  const topo::ChipId chip = rig.topo.ChipAt({3, 3});
  fault::FaultInjector injector(&rig.network, {});
  fault::FaultEvent death;
  death.kind = fault::FaultKind::kChipFailure;
  death.chip = chip;
  injector.Apply(death);
  int failed = 0;
  for (const topo::Link& link : rig.topo.links()) {
    if (link.from == chip || link.to == chip) {
      EXPECT_TRUE(rig.network.LinkFailed(link.id));
      ++failed;
    } else {
      EXPECT_FALSE(rig.network.LinkFailed(link.id));
    }
  }
  EXPECT_EQ(failed, rig.network.failed_link_count());
  EXPECT_EQ(injector.permanent_failures(), 1);
  EXPECT_GT(failed, 0);
}

TEST(FaultInjector, GroundTruthWindowQueries) {
  Rig rig;
  fault::FaultInjector injector(&rig.network, {});
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kLinkFlap;
  flap.link = 0;
  flap.at = Seconds(10);
  flap.duration = Seconds(5);
  injector.Apply(flap);
  EXPECT_TRUE(injector.AnyFaultActiveIn(Seconds(12), Seconds(13)));
  EXPECT_TRUE(injector.AnyFaultActiveIn(Seconds(0), Seconds(11)));
  EXPECT_FALSE(injector.AnyFaultActiveIn(Seconds(0), Seconds(10)));
  EXPECT_FALSE(injector.AnyFaultActiveIn(Seconds(16), Seconds(20)));
}

// --- Rect-scoped queries: one fault, two slices ----------------------------

TEST(FaultInjector, CrossPodFaultTouchesBothBorderingSlices) {
  // Two 8x8 pods side by side; two tenants split them left/right. A single
  // flap of the shared cross-pod cable at x=7 -> x=8 is observable from
  // BOTH slices at once — the regression the multi-tenant cluster driver
  // depends on for correlated fault delivery.
  topo::MeshTopology topo(
      topo::TopologyConfig{.pod_size_x = 8, .pod_size_y = 8, .num_pods = 2});
  sim::Simulator simulator;
  net::Network network(&topo, net::NetworkConfig{}, &simulator);
  fault::FaultInjector injector(&network, {});

  ASSERT_TRUE(topo.IsCrossPodBoundary(7));
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kLinkFlap;
  flap.link = topo.LinkBetween(topo.ChipAt({7, 2}), topo.ChipAt({8, 2}));
  flap.at = Seconds(10);
  flap.duration = Seconds(5);
  flap.degrade_factor = 64.0;
  injector.Apply(flap);

  const topo::SubmeshRect left{0, 0, 8, 8};
  const topo::SubmeshRect right{8, 0, 8, 8};
  const topo::SubmeshRect far_corner{0, 4, 4, 4};

  // The cable crosses the slice boundary: one endpoint in each slice.
  EXPECT_TRUE(injector.EventTouchesRect(flap, left));
  EXPECT_TRUE(injector.EventTouchesRect(flap, right));
  EXPECT_FALSE(injector.EventTouchesRect(flap, far_corner));

  // Rect-scoped ground truth agrees, window semantics unchanged.
  EXPECT_TRUE(injector.AnyFaultActiveIn(Seconds(12), Seconds(13), left));
  EXPECT_TRUE(injector.AnyFaultActiveIn(Seconds(12), Seconds(13), right));
  EXPECT_FALSE(
      injector.AnyFaultActiveIn(Seconds(12), Seconds(13), far_corner));
  EXPECT_FALSE(injector.AnyFaultActiveIn(Seconds(16), Seconds(20), left));

  // A chip death interior to one slice stays invisible to its neighbor.
  fault::FaultEvent death;
  death.kind = fault::FaultKind::kChipFailure;
  death.chip = topo.ChipAt({2, 2});
  death.at = Seconds(10);
  EXPECT_TRUE(injector.EventTouchesRect(death, left));
  EXPECT_FALSE(injector.EventTouchesRect(death, right));
}

// --- Overlapping schedules on the same link --------------------------------
//
// Transient heals release exactly what their fault applied (depth-counted
// fails, per-source degradations), so same-link overlap composes in any
// order and a heal can never resurrect a link another fault still holds.

TEST(FaultInjector, OverlappingFlapsComposeByMaxAndHealIndependently) {
  Rig rig;
  const auto link =
      rig.topo.LinkBetween(rig.topo.ChipAt({1, 1}), rig.topo.ChipAt({1, 2}));
  fault::FaultInjector injector(&rig.network, {});
  fault::FaultEvent first;
  first.kind = fault::FaultKind::kLinkFlap;
  first.link = link;
  first.at = 0;
  first.duration = Seconds(5);
  first.degrade_factor = 8.0;
  fault::FaultEvent second = first;
  second.at = Seconds(2);
  second.duration = Seconds(7);  // heals at t = 9
  second.degrade_factor = 4.0;
  injector.ArmScripted({first, second});

  // While both are live the worse factor wins; the first heal at t = 5 must
  // leave the second fault's degradation in force, not restore the link.
  rig.simulator.Schedule(Seconds(3), [&] {
    EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 8.0);
  });
  rig.simulator.Schedule(Seconds(6), [&] {
    EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 4.0);
  });
  rig.simulator.Run();
  EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 1.0);
  EXPECT_GE(rig.simulator.now(), Seconds(9));
}

TEST(FaultInjector, OverlappingHostPreemptionsAreDepthCounted) {
  Rig rig;
  const topo::HostId host = rig.topo.HostOf(rig.topo.ChipAt({2, 2}));
  fault::FaultInjector injector(&rig.network, {});
  const std::vector<topo::LinkId> links = injector.LinksOfHost(host);
  ASSERT_FALSE(links.empty());
  fault::FaultEvent first;
  first.kind = fault::FaultKind::kHostPreemption;
  first.host = host;
  first.at = 0;
  first.duration = Seconds(5);
  fault::FaultEvent second = first;
  second.at = Seconds(2);
  second.duration = Seconds(10);  // heals at t = 12
  injector.ArmScripted({first, second});

  // The first preemption's heal at t = 5 pops one failure depth; the links
  // stay failed until the second heal at t = 12.
  rig.simulator.Schedule(Seconds(6), [&] {
    for (const topo::LinkId link : links) {
      EXPECT_TRUE(rig.network.LinkFailed(link));
    }
  });
  rig.simulator.Run();
  for (const topo::LinkId link : links) {
    EXPECT_FALSE(rig.network.LinkFailed(link));
  }
  EXPECT_EQ(rig.network.failed_link_count(), 0);
  EXPECT_EQ(injector.active_count(fault::FaultKind::kHostPreemption), 0);
}

TEST(FaultInjector, HealLandingExactlyOnAnotherApplyKeepsTheLinkDegraded) {
  Rig rig;
  const auto link =
      rig.topo.LinkBetween(rig.topo.ChipAt({4, 4}), rig.topo.ChipAt({4, 5}));
  fault::FaultInjector injector(&rig.network, {});
  fault::FaultEvent first;
  first.kind = fault::FaultKind::kLinkFlap;
  first.link = link;
  first.at = 0;
  first.duration = Seconds(5);
  first.degrade_factor = 8.0;
  // The second fault's apply fires at the same timestamp as the first's
  // heal. ArmScripted schedules applies up front, so the apply runs first:
  // per-source release keeps the link degraded across the boundary either
  // way, with no instant of false health.
  fault::FaultEvent second = first;
  second.at = Seconds(5);
  injector.ArmScripted({first, second});
  rig.simulator.Schedule(Seconds(6), [&] {
    EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 8.0);
  });
  rig.simulator.Run();
  EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 1.0);
  EXPECT_GE(rig.simulator.now(), Seconds(10));
}

TEST(FaultInjector, TransientHealNeverResurrectsAPermanentFailure) {
  Rig rig;
  const topo::ChipId chip = rig.topo.ChipAt({1, 2});
  fault::FaultInjector injector(&rig.network, {});
  const std::vector<topo::LinkId> chip_links = injector.LinksOfChip(chip);
  ASSERT_FALSE(chip_links.empty());
  const topo::LinkId link = chip_links.front();
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kLinkFlap;
  flap.link = link;
  flap.at = 0;
  flap.duration = Seconds(5);
  flap.degrade_factor = 8.0;
  fault::FaultEvent death;
  death.kind = fault::FaultKind::kChipFailure;
  death.chip = chip;
  death.at = Seconds(2);
  injector.ArmScripted({flap, death});
  rig.simulator.Run();
  // The flap healed (its degradation source is gone) but the chip death
  // keeps the link failed forever.
  EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 1.0);
  EXPECT_TRUE(rig.network.LinkFailed(link));
  EXPECT_EQ(injector.permanent_failures(), 1);
}

TEST(Network, ReleaseWithoutMatchingFaultIsANoOp) {
  Rig rig;
  const auto link =
      rig.topo.LinkBetween(rig.topo.ChipAt({0, 0}), rig.topo.ChipAt({0, 1}));
  rig.network.ReleaseFailedLink(link);   // never failed: no-op
  rig.network.ReleaseDegradedLink(link, 8.0);  // no such source: no-op
  EXPECT_FALSE(rig.network.LinkFailed(link));
  EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 1.0);

  rig.network.DegradeLink(link, 4.0);
  rig.network.ReleaseDegradedLink(link, 8.0);  // wrong factor: no-op
  EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 4.0);
  rig.network.RestoreLink(link);  // force-clear
  EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 1.0);
}

// --- Injector edge cases ----------------------------------------------------

TEST(FaultInjector, ZeroDurationFaultIsPermanent) {
  Rig rig;
  const auto link =
      rig.topo.LinkBetween(rig.topo.ChipAt({2, 3}), rig.topo.ChipAt({2, 4}));
  fault::FaultInjector injector(&rig.network, {});
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kLinkFlap;
  flap.link = link;
  flap.duration = 0;  // permanent: no heal is ever scheduled
  flap.degrade_factor = 8.0;
  EXPECT_TRUE(flap.permanent());
  EXPECT_LT(flap.heal_at(), 0.0);
  injector.Apply(flap);
  rig.simulator.Run();
  EXPECT_DOUBLE_EQ(rig.network.LinkDegradation(link), 8.0);
  EXPECT_EQ(injector.active_count(fault::FaultKind::kLinkFlap), 1);
}

TEST(FaultSchedule, ShorterHorizonIsABitIdenticalPrefix) {
  // The --smoke property: per-unit RNG streams make the schedule over a
  // short horizon the exact prefix of the schedule over a long one.
  Rig rig;
  const fault::FaultModelConfig config = BusyFaultModel(42);
  const auto smoke =
      fault::GenerateFaultSchedule(rig.topo, config, Seconds(500));
  const auto full =
      fault::GenerateFaultSchedule(rig.topo, config, Seconds(20'000));
  std::vector<fault::FaultEvent> prefix;
  for (const fault::FaultEvent& event : full) {
    if (event.at < Seconds(500)) prefix.push_back(event);
  }
  ASSERT_FALSE(smoke.empty());
  EXPECT_EQ(smoke, prefix);
}

TEST(FaultInjector, EmitsInjectionAndActiveGaugeMetrics) {
  trace::MetricsRegistry registry;
  trace::ScopedMetrics scope(&registry);
  Rig rig;
  const auto link =
      rig.topo.LinkBetween(rig.topo.ChipAt({5, 5}), rig.topo.ChipAt({5, 6}));
  fault::FaultInjector injector(&rig.network, {});
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kLinkFlap;
  flap.link = link;
  flap.duration = Seconds(5);
  flap.degrade_factor = 8.0;
  injector.Apply(flap);
  EXPECT_EQ(registry.Counter("fault.injected.link-flap").value, 1);
  EXPECT_DOUBLE_EQ(registry.Gauge("fault.active.link-flap").value, 1.0);
  rig.simulator.Run();  // the heal returns the active gauge to zero
  EXPECT_DOUBLE_EQ(registry.Gauge("fault.active.link-flap").value, 0.0);
}

TEST(HealthMonitor, EmitsDetectionMetrics) {
  trace::MetricsRegistry registry;
  trace::ScopedMetrics scope(&registry);
  fault::HealthMonitorConfig config;
  config.deadline_multiple = 2.0;
  config.min_deadline = 0.0;
  fault::HealthMonitor monitor(config);
  // True detection: fault present, phase overran its deadline.
  monitor.Observe({/*start=*/10.0, /*expected=*/1.0, /*actual=*/5.0,
                   /*fault_active=*/true});
  // Healthy phase: no detection recorded.
  monitor.Observe({0.0, 1.0, 1.0, false});
  EXPECT_EQ(registry.Counter("fault.detections").value, 1);
  EXPECT_EQ(registry.Histogram("fault.detection_latency_us").count(), 1);
  EXPECT_GT(registry.Histogram("fault.detection_latency_us").mean(), 0.0);
}

// --- Detection through the collective's phase deadlines -------------------

coll::GradientSummationConfig MonitoredConfig(std::int64_t elems,
                                              double multiple) {
  coll::GradientSummationConfig config;
  config.elems = elems;
  config.deadline.multiple = multiple;
  return config;
}

TEST(Detection, CleanRunDoesNotTimeOut) {
  Rig rig;
  const auto result = coll::TwoDGradientSummation(
      rig.network, MonitoredConfig(1 << 18, 3.0));
  EXPECT_FALSE(result.timed_out);
  EXPECT_LT(result.detected_at, 0.0);
  ASSERT_EQ(result.phases.size(), 4u);
  for (const coll::PhaseTiming& phase : result.phases) {
    EXPECT_FALSE(phase.timed_out);
    EXPECT_GT(phase.expected, 0.0);
    EXPECT_LE(phase.actual, phase.deadline);
  }
}

TEST(Detection, FailedLinkTimesOutAndDetectsEarly) {
  Rig rig;
  const auto link =
      rig.topo.LinkBetween(rig.topo.ChipAt({3, 2}), rig.topo.ChipAt({3, 3}));
  rig.network.FailLink(link);
  const auto result = coll::TwoDGradientSummation(
      rig.network, MonitoredConfig(1 << 18, 3.0));
  ASSERT_TRUE(result.timed_out);
  EXPECT_STREQ(result.timed_out_phase, "Y-reduce-scatter");
  // Detection fires at the deadline — hours before the stalled collective
  // actually finishes (the failed link stalls each message by ~an hour).
  EXPECT_GT(result.detected_at, 0.0);
  EXPECT_LT(result.detected_at, Seconds(1));
  EXPECT_GT(result.total(), Seconds(3600));
}

TEST(Detection, DegradedLinkTimesOutWithTightDeadline) {
  Rig rig;
  const auto link =
      rig.topo.LinkBetween(rig.topo.ChipAt({3, 2}), rig.topo.ChipAt({3, 3}));
  rig.network.DegradeLink(link, 16.0);
  const auto result = coll::TwoDGradientSummation(
      rig.network, MonitoredConfig(1 << 18, 3.0));
  EXPECT_TRUE(result.timed_out);
  ASSERT_FALSE(result.phases.empty());
  EXPECT_LT(result.detected_at,
            result.phases[0].start + result.phases[0].actual);
}

TEST(Detection, PipelinedReportsTimeouts) {
  const std::int64_t elems = 1 << 18;
  coll::GradientSummationConfig config = MonitoredConfig(elems, 3.0);
  Rig clean;
  const coll::GradientSummationResult clean_result =
      coll::PipelinedTwoDGradientSummation(clean.network, config, 4);
  EXPECT_FALSE(clean_result.timed_out);
  ASSERT_EQ(clean_result.phases.size(), 1u);
  const coll::PhaseTiming& clean_timing = clean_result.phases[0];
  EXPECT_STREQ(clean_timing.name, "pipelined-2d");
  EXPECT_GT(clean_timing.expected, 0.0);
  EXPECT_EQ(clean_timing.actual, clean_result.total());
  EXPECT_LE(clean_timing.actual, clean_timing.deadline);

  Rig sick;
  const auto link = sick.topo.LinkBetween(sick.topo.ChipAt({3, 2}),
                                          sick.topo.ChipAt({3, 3}));
  sick.network.FailLink(link);
  const coll::GradientSummationResult sick_result =
      coll::PipelinedTwoDGradientSummation(sick.network, config, 4);
  EXPECT_TRUE(sick_result.timed_out);
  ASSERT_EQ(sick_result.phases.size(), 1u);
  EXPECT_TRUE(sick_result.phases[0].timed_out);
  EXPECT_STREQ(sick_result.timed_out_phase, "pipelined-2d");
  EXPECT_GT(sick_result.detected_at, 0.0);
  EXPECT_LT(sick_result.detected_at, sick_result.phases[0].actual);
}

TEST(HealthMonitor, AccountsDetectionsAndFalsePositives) {
  fault::HealthMonitorConfig config;
  config.deadline_multiple = 2.0;
  config.min_deadline = 0.0;
  fault::HealthMonitor monitor(config);

  // Fault present, phase overran: true detection at start + deadline.
  EXPECT_DOUBLE_EQ(
      monitor.Observe({/*start=*/10.0, /*expected=*/1.0, /*actual=*/5.0,
                       /*fault_active=*/true}),
      12.0);
  // No fault, still overran: false positive.
  EXPECT_GT(monitor.Observe({0.0, 1.0, 3.0, false}), 0.0);
  // Fault present but phase met the deadline: missed.
  EXPECT_LT(monitor.Observe({0.0, 1.0, 1.5, true}), 0.0);
  // Healthy phase, healthy timing.
  EXPECT_LT(monitor.Observe({0.0, 1.0, 1.0, false}), 0.0);

  const fault::DetectionStats& stats = monitor.stats();
  EXPECT_EQ(stats.phases_observed, 4);
  EXPECT_EQ(stats.detections, 2);
  EXPECT_EQ(stats.true_detections, 1);
  EXPECT_EQ(stats.false_positives, 1);
  EXPECT_EQ(stats.missed_faults, 1);
  EXPECT_DOUBLE_EQ(stats.false_positive_rate(), 0.25);
  EXPECT_DOUBLE_EQ(stats.mean_detection_latency(), 2.0);
}

TEST(HealthMonitor, ObserveSummationFeedsEveryPhase) {
  Rig rig;
  const auto result = coll::TwoDGradientSummation(
      rig.network, MonitoredConfig(1 << 16, 3.0));
  fault::HealthMonitor monitor;
  monitor.ObserveSummation(result, /*fault_active=*/false);
  EXPECT_EQ(monitor.stats().phases_observed, 4);
  EXPECT_EQ(monitor.stats().false_positives, 0);
}

// --- Checkpoint & goodput --------------------------------------------------

TEST(Checkpoint, WriteShrinksWithMoreHosts) {
  const models::ModelSpec& bert =
      models::GetModelSpec(models::Benchmark::kBert);
  const auto few = fault::EstimateCheckpointCosts(bert, 32);
  const auto many = fault::EstimateCheckpointCosts(bert, 1024);
  EXPECT_GT(few.write_seconds, many.write_seconds);
  EXPECT_GT(many.write_seconds, 0.0);
  EXPECT_GT(many.restore_seconds, 0.0);
  EXPECT_EQ(few.state_bytes, many.state_bytes);
  // Dense weights + optimizer slots, f32.
  EXPECT_GE(few.state_bytes, bert.parameters * 4 * 3);
}

TEST(Goodput, InfiniteMtbfDegeneratesExactly) {
  fault::GoodputConfig config;
  config.system_mtbf = 0;  // failure-free
  const SimTime base = Seconds(1234.5);
  EXPECT_EQ(fault::ExpectedRunTime(base, config).expected_seconds, base);
  config.system_mtbf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(fault::ExpectedRunTime(base, config).expected_seconds, base);
}

TEST(Goodput, FiniteMtbfCostsTime) {
  fault::GoodputConfig config;
  config.system_mtbf = Seconds(2000);
  config.checkpoint_interval = Seconds(200);
  config.checkpoint_write = Seconds(10);
  config.detection_latency = Seconds(5);
  config.restart_seconds = Seconds(60);
  const SimTime base = Seconds(10'000);
  const auto result = fault::ExpectedRunTime(base, config);
  EXPECT_GT(result.expected_seconds, base);
  EXPECT_GT(result.expected_failures, 0.0);
  EXPECT_LT(result.goodput(), 1.0);
  EXPECT_GT(result.goodput(), 0.0);
}

TEST(Goodput, InteriorOptimumExists) {
  fault::GoodputConfig config;
  config.system_mtbf = Seconds(2000);
  config.checkpoint_write = Seconds(10);
  config.detection_latency = Seconds(5);
  config.restart_seconds = Seconds(60);
  const SimTime base = Seconds(10'000);

  // Geometric interval grid: expected time must fall, reach an interior
  // minimum, then rise — exactly one sign change in the differences.
  std::vector<SimTime> intervals;
  for (SimTime tau = Seconds(5); tau <= Seconds(20'000); tau *= 1.3) {
    intervals.push_back(tau);
  }
  const auto sweep = fault::SweepCheckpointInterval(base, config, intervals);
  int sign_changes = 0;
  bool falling = sweep[1].expected_seconds < sweep[0].expected_seconds;
  EXPECT_TRUE(falling);  // overhead-dominated at tiny intervals
  for (std::size_t i = 2; i < sweep.size(); ++i) {
    const bool now_falling =
        sweep[i].expected_seconds < sweep[i - 1].expected_seconds;
    if (now_falling != falling) {
      ++sign_changes;
      falling = now_falling;
    }
  }
  EXPECT_EQ(sign_changes, 1);
  EXPECT_FALSE(falling);  // rework-dominated at huge intervals

  // The numeric optimum sits inside the bracket and near Young's formula.
  const SimTime optimal = fault::OptimalCheckpointInterval(
      base, config, Seconds(5), Seconds(20'000));
  EXPECT_GT(optimal, Seconds(5));
  EXPECT_LT(optimal, Seconds(20'000));
  const SimTime young = fault::YoungCheckpointInterval(
      config.checkpoint_write, config.system_mtbf);
  EXPECT_GT(optimal, young / 3);
  EXPECT_LT(optimal, young * 3);

  // And it beats both a too-eager and a too-lazy interval.
  fault::GoodputConfig at = config;
  at.checkpoint_interval = optimal;
  const SimTime best = fault::ExpectedRunTime(base, at).expected_seconds;
  at.checkpoint_interval = optimal / 10;
  EXPECT_LT(best, fault::ExpectedRunTime(base, at).expected_seconds);
  at.checkpoint_interval = optimal * 10;
  EXPECT_LT(best, fault::ExpectedRunTime(base, at).expected_seconds);
}

TEST(Goodput, SystemMtbfComposesRates) {
  // 100 chips at 1000 s each -> rate 0.1; 10 hosts at 500 s -> rate 0.02.
  const SimTime mtbf = fault::SystemMtbf(100, Seconds(1000), 10, Seconds(500));
  EXPECT_NEAR(mtbf, 1.0 / 0.12, 1e-9);
  EXPECT_LE(fault::SystemMtbf(100, 0, 10, 0), 0.0);
}

// --- End-to-end composition through MultipodSystem ------------------------

TEST(MultipodGoodput, FaultFreeDegeneratesToEndToEndResult) {
  core::MultipodSystem system(256);
  const auto baseline = system.SimulateTraining(
      models::Benchmark::kDlrm, 65536, 1, frameworks::Framework::kTensorFlow);
  core::FaultToleranceOptions options;  // all MTBFs zero: failure-free
  const auto tolerant = system.SimulateTrainingUnderFailures(
      models::Benchmark::kDlrm, 65536, 1, frameworks::Framework::kTensorFlow,
      options);
  EXPECT_EQ(tolerant.expected_seconds,
            baseline.train_seconds + baseline.eval_seconds);
  EXPECT_DOUBLE_EQ(tolerant.goodput, 1.0);
  EXPECT_LE(tolerant.system_mtbf, 0.0);
}

TEST(MultipodGoodput, FiniteMtbfPicksInteriorIntervalAndCostsTime) {
  core::MultipodSystem system(256);
  core::FaultToleranceOptions options;
  // Harsh MTBF so the optimal interval is interior to the run (a generous
  // MTBF pushes Young's optimum past the run length, where "checkpoint once
  // at the end" is the right answer and the curve is monotone).
  options.faults.chip_mtbf = Seconds(2e5);  // ~13 min system MTBF at 256 chips
  const auto tolerant = system.SimulateTrainingUnderFailures(
      models::Benchmark::kDlrm, 65536, 1, frameworks::Framework::kTensorFlow,
      options);
  const SimTime base = tolerant.failure_free.train_seconds +
                       tolerant.failure_free.eval_seconds;
  EXPECT_GT(tolerant.system_mtbf, 0.0);
  EXPECT_GT(tolerant.expected_seconds, base);
  EXPECT_GT(tolerant.checkpoint_interval, 0.0);
  EXPECT_LT(tolerant.goodput, 1.0);
  EXPECT_GT(tolerant.detection_latency, 0.0);
  EXPECT_GT(tolerant.restart_seconds, 0.0);

  // The chosen interval is no worse than nearby ones.
  auto expected_at = [&](SimTime tau) {
    core::FaultToleranceOptions at = options;
    at.checkpoint_interval = tau;
    return system
        .SimulateTrainingUnderFailures(models::Benchmark::kDlrm, 65536, 1,
                                       frameworks::Framework::kTensorFlow, at)
        .expected_seconds;
  };
  const SimTime best = tolerant.expected_seconds;
  EXPECT_LE(best, expected_at(tolerant.checkpoint_interval * 4) * (1 + 1e-9));
  EXPECT_LE(best, expected_at(tolerant.checkpoint_interval / 4) * (1 + 1e-9));
}

}  // namespace
}  // namespace tpu
