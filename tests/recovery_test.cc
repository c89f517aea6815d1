// Recovery orchestrator: strategy pricing, the largest-healthy-submesh
// carve, and the event-driven RecoveryController end-to-end on the canonical
// degraded 16x8 scenario suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/multipod.h"
#include "fault/fault_injector.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "plan/plan_ir.h"
#include "recover/controller.h"
#include "recover/recovery.h"
#include "sim/simulator.h"
#include "telemetry/probes.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu {
namespace {

// --- Pure pricing ----------------------------------------------------------

TEST(EffectiveWorkRate, HealthyWithoutCheckpointsIsUnity) {
  EXPECT_DOUBLE_EQ(recover::EffectiveWorkRate(0.001, 0.001, 0, 0), 1.0);
}

TEST(EffectiveWorkRate, ScalesInverselyWithStepTime) {
  EXPECT_DOUBLE_EQ(recover::EffectiveWorkRate(0.001, 0.002, 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(recover::EffectiveWorkRate(0.001, 0.004, 0, 0), 0.25);
}

TEST(EffectiveWorkRate, CheckpointWritesDiscountTheRate) {
  EXPECT_DOUBLE_EQ(recover::EffectiveWorkRate(0.001, 0.001, 600, 6),
                   600.0 / 606.0);
}

TEST(EffectiveWorkRate, DegenerateStepsRateZero) {
  EXPECT_DOUBLE_EQ(recover::EffectiveWorkRate(0, 0.001, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(recover::EffectiveWorkRate(0.001, 0, 0, 0), 0.0);
}

// Synthetic pricing rig: an 8x8 mesh with constant step oracles, so each
// feasibility gate and the min-future selection can be pinned exactly.
struct PricingRig {
  topo::MeshTopology topo;
  recover::StepPricer pricer;
  recover::PricingContext context;

  PricingRig() : topo(topo::TopologyConfig::Slice(8, 8, true)) {
    pricer.healthy_step = 0.001;
    pricer.degraded_step = [](const plan::LinkHealthSet&) { return 0.010; };
    pricer.replanned_step = [](const plan::LinkHealthSet&) { return 0.002; };
    pricer.shrunk_step = [](const topo::SubmeshRect&) { return 0.0012; };
    context.topo = &topo;
    context.pricer = &pricer;
    context.policy.spare_hosts = 1;
    context.costs.checkpoint_write = 1;
    context.costs.restore_seconds = 2;
    context.costs.restart_seconds = 60;
    context.checkpoint_interval = 600;
    context.remaining_work = 100;
    context.lost_work = 10;
    context.detection_deadline = 0.003;
    context.spares_left = 1;
  }

  const recover::StrategyOption& Option(recover::Strategy strategy,
                                        const std::vector<recover::StrategyOption>& options) {
    return options[static_cast<int>(strategy)];
  }
};

recover::Diagnosis TransientDiagnosis(SimTime residual) {
  recover::Diagnosis diagnosis;
  diagnosis.transient_only = true;
  diagnosis.health.degraded = {{7, 8.0}};
  diagnosis.expected_residual_heal = residual;
  return diagnosis;
}

TEST(PriceStrategies, TransientPrefersWaitOverReplan) {
  PricingRig rig;
  const auto options =
      recover::PriceStrategies(rig.context, TransientDiagnosis(Seconds(5)));
  ASSERT_EQ(options.size(), static_cast<std::size_t>(recover::kNumStrategies));

  const auto& wait = rig.Option(recover::Strategy::kWaitForHeal, options);
  ASSERT_TRUE(wait.feasible);
  EXPECT_DOUBLE_EQ(wait.downtime, 5.0);
  EXPECT_DOUBLE_EQ(wait.step_after, rig.pricer.healthy_step);
  EXPECT_DOUBLE_EQ(wait.lost_work, 0.0);
  const double healthy_rate = recover::EffectiveWorkRate(0.001, 0.001, 600, 1);
  EXPECT_DOUBLE_EQ(wait.future_seconds, 5.0 + 100.0 / healthy_rate);

  // Route-around is feasible (link fault, no lost chips) but slower: same
  // downtime, half the post-recovery rate.
  const auto& route = rig.Option(recover::Strategy::kRouteAround, options);
  ASSERT_TRUE(route.feasible);
  EXPECT_DOUBLE_EQ(route.downtime, rig.context.policy.replan_seconds);
  EXPECT_GT(route.future_seconds, wait.future_seconds);

  // Nothing was permanently lost: no shrink target, no host to swap.
  EXPECT_FALSE(rig.Option(recover::Strategy::kElasticShrink, options).feasible);
  EXPECT_FALSE(rig.Option(recover::Strategy::kSpareSwapIn, options).feasible);
  EXPECT_TRUE(
      rig.Option(recover::Strategy::kCheckpointRestart, options).feasible);

  EXPECT_EQ(recover::ChooseStrategy(options).strategy,
            recover::Strategy::kWaitForHeal);
}

TEST(PriceStrategies, DeadChipGatesWaitAndRoute) {
  PricingRig rig;
  recover::Diagnosis diagnosis;
  diagnosis.transient_only = false;
  diagnosis.dead_chips = {rig.topo.ChipAt({3, 3})};
  const auto options = recover::PriceStrategies(rig.context, diagnosis);

  EXPECT_FALSE(rig.Option(recover::Strategy::kWaitForHeal, options).feasible);
  EXPECT_STREQ(rig.Option(recover::Strategy::kWaitForHeal, options).why,
               "permanent fault active");
  EXPECT_FALSE(rig.Option(recover::Strategy::kRouteAround, options).feasible);
  EXPECT_STREQ(rig.Option(recover::Strategy::kRouteAround, options).why,
               "chips lost, not just links");

  // The carve is a rectangle: an interior dead chip leaves at most the
  // larger side of the cut, 8x4 = 32 healthy chips here.
  const auto& shrink = rig.Option(recover::Strategy::kElasticShrink, options);
  ASSERT_TRUE(shrink.feasible);
  EXPECT_EQ(shrink.rect.chips(), 32);
  EXPECT_DOUBLE_EQ(shrink.downtime, rig.context.costs.restore_seconds);
  EXPECT_DOUBLE_EQ(shrink.lost_work, rig.context.lost_work);

  // One host owns the dead chip; the single spare covers it.
  const auto& swap = rig.Option(recover::Strategy::kSpareSwapIn, options);
  ASSERT_TRUE(swap.feasible);
  EXPECT_DOUBLE_EQ(swap.downtime,
                   rig.context.policy.spare_attach_seconds +
                       rig.context.costs.restore_seconds);
  EXPECT_DOUBLE_EQ(swap.step_after, rig.pricer.healthy_step);

  // Shrink is barely slower per step but far cheaper to enter: it wins.
  EXPECT_EQ(recover::ChooseStrategy(options).strategy,
            recover::Strategy::kElasticShrink);
}

TEST(PriceStrategies, ShrinkFloorPromotesToSpareSwap) {
  PricingRig rig;
  rig.context.policy.min_shrink_fraction = 0.95;
  recover::Diagnosis diagnosis;
  diagnosis.transient_only = false;
  diagnosis.dead_chips = {rig.topo.ChipAt({3, 3})};
  const auto options = recover::PriceStrategies(rig.context, diagnosis);
  const auto& shrink = rig.Option(recover::Strategy::kElasticShrink, options);
  EXPECT_FALSE(shrink.feasible);
  EXPECT_STREQ(shrink.why, "healthy sub-mesh too small");
  EXPECT_EQ(recover::ChooseStrategy(options).strategy,
            recover::Strategy::kSpareSwapIn);
}

TEST(PriceStrategies, ExhaustedMaskLeavesOnlyRestart) {
  PricingRig rig;
  rig.context.exhausted =
      recover::StrategyBit(recover::Strategy::kElasticShrink) |
      recover::StrategyBit(recover::Strategy::kSpareSwapIn);
  recover::Diagnosis diagnosis;
  diagnosis.transient_only = false;
  diagnosis.dead_chips = {rig.topo.ChipAt({3, 3})};
  const auto options = recover::PriceStrategies(rig.context, diagnosis);
  EXPECT_FALSE(rig.Option(recover::Strategy::kElasticShrink, options).feasible);
  EXPECT_FALSE(rig.Option(recover::Strategy::kSpareSwapIn, options).feasible);
  EXPECT_EQ(recover::ChooseStrategy(options).strategy,
            recover::Strategy::kCheckpointRestart);
}

TEST(PriceStrategies, PermanentLinkFaultRoutesButNeverSwaps) {
  PricingRig rig;
  // A near-healthy replanned schedule, as the planner delivers for a single
  // bad link: route-around should beat carving the mesh down.
  rig.pricer.replanned_step = [](const plan::LinkHealthSet&) {
    return 0.0011;
  };
  recover::Diagnosis diagnosis;
  diagnosis.transient_only = false;
  diagnosis.broken_links = {7};
  diagnosis.health.failed = {7};
  const auto options = recover::PriceStrategies(rig.context, diagnosis);
  EXPECT_TRUE(rig.Option(recover::Strategy::kRouteAround, options).feasible);
  // A cable is not a host: nothing for the spare pool to replace.
  const auto& swap = rig.Option(recover::Strategy::kSpareSwapIn, options);
  EXPECT_FALSE(swap.feasible);
  EXPECT_STREQ(swap.why, "no lost host to replace");
  // A cable strands one endpoint: the shrink carve excludes it.
  EXPECT_TRUE(rig.Option(recover::Strategy::kElasticShrink, options).feasible);
  EXPECT_EQ(recover::ChooseStrategy(options).strategy,
            recover::Strategy::kRouteAround);
}

TEST(PriceStrategies, SlowdownCapMakesReplanInfeasible) {
  PricingRig rig;
  rig.pricer.replanned_step = [](const plan::LinkHealthSet&) {
    return 0.005;  // over max_step_slowdown (4x) of the 1 ms healthy step
  };
  recover::Diagnosis diagnosis;
  diagnosis.transient_only = false;
  diagnosis.broken_links = {7};
  diagnosis.health.failed = {7};
  const auto options = recover::PriceStrategies(rig.context, diagnosis);
  const auto& route = rig.Option(recover::Strategy::kRouteAround, options);
  EXPECT_FALSE(route.feasible);
  EXPECT_STREQ(route.why, "replanned step over slowdown cap");
}

TEST(ChooseStrategy, TiesResolveToTheLightestStrategy) {
  std::vector<recover::StrategyOption> options(2);
  options[0].strategy = recover::Strategy::kWaitForHeal;
  options[0].feasible = true;
  options[0].future_seconds = 10.0;
  options[1].strategy = recover::Strategy::kCheckpointRestart;
  options[1].feasible = true;
  options[1].future_seconds = 10.0;
  EXPECT_EQ(recover::ChooseStrategy(options).strategy,
            recover::Strategy::kWaitForHeal);
}

// --- The largest-healthy-submesh carve -------------------------------------

TEST(LargestHealthySubmesh, NoDeadChipsKeepsTheFullMesh) {
  topo::MeshTopology topo(topo::TopologyConfig::Slice(8, 8, true));
  const auto rect = topo::LargestHealthySubmesh(topo, {});
  EXPECT_EQ(rect, (topo::SubmeshRect{0, 0, 8, 8}));
}

TEST(LargestHealthySubmesh, InteriorDeadChipKeepsTheLargerCut) {
  topo::MeshTopology topo(topo::TopologyConfig::Slice(8, 8, true));
  const topo::ChipId dead = topo.ChipAt({3, 3});
  const auto rect = topo::LargestHealthySubmesh(topo, {dead});
  // The carve is a rectangle, so it keeps one side of the cut through the
  // dead chip: 8x4 (or 4x8) = 32 chips, never an L-shape.
  EXPECT_EQ(rect.chips(), 32);
  EXPECT_FALSE(rect.Contains(topo::Coord{3, 3}));
}

TEST(LargestHealthySubmesh, EdgeDeadChipDropsOneRow) {
  topo::MeshTopology topo(topo::TopologyConfig::Slice(8, 8, true));
  const topo::ChipId dead = topo.ChipAt({1, 0});
  const auto rect = topo::LargestHealthySubmesh(topo, {dead});
  EXPECT_EQ(rect, (topo::SubmeshRect{0, 1, 8, 7}));
}

TEST(LargestHealthySubmesh, GranularityQuantizesTheCarveAlongX) {
  // 16x4 with a dead chip at x=1: the best carve cuts along X. Ungated it
  // keeps x in [2, 16); at granule 4 the carve snaps to x in [4, 16).
  topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 4, true));
  const topo::ChipId dead = topo.ChipAt({1, 1});
  EXPECT_EQ(topo::LargestHealthySubmesh(topo, {dead}, 1),
            (topo::SubmeshRect{2, 0, 14, 4}));
  const auto rect = topo::LargestHealthySubmesh(topo, {dead}, 4);
  EXPECT_EQ(rect.x0 % 4, 0);
  EXPECT_EQ(rect.size_x % 4, 0);
  EXPECT_EQ(rect, (topo::SubmeshRect{4, 0, 12, 4}));
}

TEST(LargestHealthySubmesh, AllDeadLeavesZeroArea) {
  topo::MeshTopology topo(topo::TopologyConfig::Slice(2, 2, false));
  std::vector<topo::ChipId> dead;
  for (int chip = 0; chip < topo.num_chips(); ++chip) dead.push_back(chip);
  EXPECT_EQ(topo::LargestHealthySubmesh(topo, dead).chips(), 0);
}

// --- The canonical degraded 16x8 scenario suite ----------------------------
//
// One DLRM run (batch 65536, TensorFlow) on a 16x8 slice, one scripted fault
// per scenario at t = 50 s. Each scenario asserts the controller picks the
// intended strategy AND that the decision's predicted extra makespan lands
// within 10% of what the re-simulated recovery actually cost.

class RecoverySuite : public ::testing::Test {
 protected:
  static core::MultipodSystem& System() {
    static core::MultipodSystem* system =
        new core::MultipodSystem(topo::TopologyConfig::Slice(16, 8, true));
    return *system;
  }

  static core::FaultToleranceOptions BaseOptions() {
    core::FaultToleranceOptions options;
    options.recovery.enabled = true;
    options.checkpoint_interval = Seconds(600);
    return options;
  }

  static core::FaultTolerantResult Run(
      const core::FaultToleranceOptions& options) {
    return System().SimulateTrainingUnderFailures(
        models::Benchmark::kDlrm, 65536, 1,
        frameworks::Framework::kTensorFlow, options);
  }

  // The simulated extra makespan must re-price the decision within 10%.
  static void ExpectPredictionHolds(const core::FaultTolerantResult& result,
                                    recover::Strategy strategy) {
    ASSERT_TRUE(result.recovered);
    ASSERT_TRUE(result.timeline.completed);
    ASSERT_FALSE(result.timeline.decisions.empty());
    const recover::RecoveryDecision& decision =
        result.timeline.decisions.back();
    EXPECT_EQ(decision.strategy, strategy)
        << "chose " << recover::StrategyName(decision.strategy);
    EXPECT_TRUE(decision.verified);
    const SimTime actual =
        result.timeline.makespan - result.timeline.base_seconds;
    ASSERT_GT(actual, 0.0);
    EXPECT_NEAR(decision.predicted_extra_seconds, actual, 0.10 * actual);
  }

  static SimTime FaultAt() { return Seconds(50); }

  // A slowed host that stays slow for 600 s, far past the wait deadline.
  static core::FaultToleranceOptions LongFlapOptions() {
    core::FaultToleranceOptions options = BaseOptions();
    fault::FaultEvent slow_host;
    slow_host.kind = fault::FaultKind::kSlowHost;
    slow_host.host =
        System().topology().HostOf(System().topology().ChipAt({3, 3}));
    slow_host.at = FaultAt();
    slow_host.duration = Seconds(600);
    slow_host.degrade_factor = 4096.0;
    options.faults.slow_host_mean_duration = Seconds(30);
    options.scripted_faults = {slow_host};
    return options;
  }

  // Chip deaths every quarter of the fault-free makespan, past the last
  // horizon (64x the makespan), with only a restart allowed and no
  // checkpoint before the end: no horizon is long enough.
  static core::FaultToleranceOptions TruncatingOptions() {
    core::FaultToleranceOptions options = BaseOptions();
    const SimTime base = Run(options).timeline.base_seconds;
    EXPECT_GT(base, 0.0);
    options.checkpoint_interval = 10 * base;
    options.recovery.allow_wait_for_heal = false;
    options.recovery.allow_route_around = false;
    options.recovery.allow_elastic_shrink = false;
    options.recovery.allow_spare_swap_in = false;
    const topo::MeshTopology& topo = System().topology();
    for (SimTime at = FaultAt(); at < 70 * base; at += base / 4) {
      fault::FaultEvent dead_chip;
      dead_chip.kind = fault::FaultKind::kChipFailure;
      dead_chip.chip = static_cast<topo::ChipId>(
          options.scripted_faults.size() % topo.num_chips());
      dead_chip.at = at;
      options.scripted_faults.push_back(dead_chip);
    }
    return options;
  }
};

// A transiently slowed host degrades every link of its four chips, which no
// schedule can route around — the controller waits it out with backoff.
TEST_F(RecoverySuite, ShortFlapWaitsForHeal) {
  core::FaultToleranceOptions options = BaseOptions();
  fault::FaultEvent slow_host;
  slow_host.kind = fault::FaultKind::kSlowHost;
  slow_host.host = System().topology().HostOf(System().topology().ChipAt({3, 3}));
  slow_host.at = FaultAt();
  slow_host.duration = Seconds(30);
  slow_host.degrade_factor = 4096.0;
  options.faults.slow_host_mean_duration = Seconds(30);
  options.scripted_faults = {slow_host};

  const auto result = Run(options);
  ExpectPredictionHolds(result, recover::Strategy::kWaitForHeal);
  EXPECT_EQ(result.timeline.faults_healed, 1);
  EXPECT_EQ(result.timeline.restarts, 0);
  EXPECT_GT(result.timeline.probes, 0);
  EXPECT_DOUBLE_EQ(result.timeline.lost_work_seconds, 0.0);
  // Resumes at the first probe past the 30 s heal (backoff quantization).
  EXPECT_NEAR(result.timeline.makespan - result.timeline.base_seconds,
              Seconds(31), Seconds(0.5));
}

// A single permanently degraded link always leaves an alternative schedule:
// the planner routes the collective around it for a one-time replan cost.
TEST_F(RecoverySuite, DeadLinkRoutesAround) {
  core::FaultToleranceOptions options = BaseOptions();
  const topo::MeshTopology& topo = System().topology();
  fault::FaultEvent dead_link;
  dead_link.kind = fault::FaultKind::kLinkFlap;
  dead_link.link = topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3}));
  dead_link.at = FaultAt();
  dead_link.duration = 0;  // permanent
  dead_link.degrade_factor = 1024.0;
  options.scripted_faults = {dead_link};

  const auto result = Run(options);
  ExpectPredictionHolds(result, recover::Strategy::kRouteAround);
  const recover::RecoveryDecision& decision = result.timeline.decisions.back();
  // The re-planned schedule is slower than healthy but within the cap.
  EXPECT_GT(decision.predicted_step_after,
            result.failure_free.step.step());
  EXPECT_LT(decision.predicted_step_after,
            4.0 * result.failure_free.step.step());
  EXPECT_DOUBLE_EQ(result.timeline.lost_work_seconds, 0.0);
}

// A dead chip with no spare pool: the controller carves the largest healthy
// sub-mesh (15x8 after granule quantization) and continues narrow.
TEST_F(RecoverySuite, ChipDeathShrinksWithoutSpares) {
  core::FaultToleranceOptions options = BaseOptions();
  fault::FaultEvent dead_chip;
  dead_chip.kind = fault::FaultKind::kChipFailure;
  dead_chip.chip = System().topology().ChipAt({5, 3});
  dead_chip.at = FaultAt();
  options.scripted_faults = {dead_chip};

  const auto result = Run(options);
  ExpectPredictionHolds(result, recover::Strategy::kElasticShrink);
  // Work since the last checkpoint rolls back and is redone.
  EXPECT_GT(result.timeline.lost_work_seconds, 0.0);
  EXPECT_LT(result.timeline.lost_work_seconds, FaultAt() + Seconds(1));
}

// Same dead chip, but a standby host exists and the operator refuses to run
// below 95% width: the spare swaps in and the run resumes at full width.
TEST_F(RecoverySuite, ChipDeathSwapsInTheSpare) {
  core::FaultToleranceOptions options = BaseOptions();
  options.recovery.spare_hosts = 1;
  options.recovery.min_shrink_fraction = 0.95;
  fault::FaultEvent dead_chip;
  dead_chip.kind = fault::FaultKind::kChipFailure;
  dead_chip.chip = System().topology().ChipAt({5, 3});
  dead_chip.at = FaultAt();
  options.scripted_faults = {dead_chip};

  const auto result = Run(options);
  ExpectPredictionHolds(result, recover::Strategy::kSpareSwapIn);
  const recover::RecoveryDecision& decision = result.timeline.decisions.back();
  // Full width restored: post-recovery step is the healthy step.
  EXPECT_DOUBLE_EQ(decision.predicted_step_after,
                   result.failure_free.step.step());
  EXPECT_EQ(result.timeline.restarts, 0);
}

// A transient far longer than the wait deadline exhausts the backoff probes
// and promotes to the checkpoint-restart fallback (nothing else is feasible
// for a slowed host).
TEST_F(RecoverySuite, LongFlapExhaustsBackoffAndRestarts) {
  const auto result = Run(LongFlapOptions());
  ASSERT_TRUE(result.recovered);
  ASSERT_TRUE(result.timeline.completed);
  ASSERT_GE(result.timeline.decisions.size(), 2u);
  EXPECT_EQ(result.timeline.decisions.front().strategy,
            recover::Strategy::kWaitForHeal);
  EXPECT_EQ(result.timeline.decisions.back().strategy,
            recover::Strategy::kCheckpointRestart);
  EXPECT_EQ(result.timeline.restarts, 1);
}

// A sub-deadline blip heals before the detection alarm fires: a micro-stall,
// no decision, the run just finishes a hair late.
TEST_F(RecoverySuite, SubDeadlineBlipIsAMicroStall) {
  core::FaultToleranceOptions options = BaseOptions();
  fault::FaultEvent blip;
  blip.kind = fault::FaultKind::kSlowHost;
  blip.host = System().topology().HostOf(System().topology().ChipAt({3, 3}));
  blip.at = FaultAt();
  blip.duration = Millis(2);  // well under the ~7.7 ms detection deadline
  blip.degrade_factor = 4096.0;
  options.scripted_faults = {blip};

  const auto result = Run(options);
  ASSERT_TRUE(result.recovered);
  EXPECT_EQ(result.timeline.micro_stalls, 1);
  EXPECT_EQ(result.timeline.detections, 0);
  EXPECT_TRUE(result.timeline.decisions.empty());
  EXPECT_NEAR(result.timeline.makespan, result.timeline.base_seconds,
              Millis(5));
}

// Chip deaths arrive faster than a checkpoint-free run can finish, and only
// a restart (which loses all work) is allowed: every horizon expires
// first. The run reports it did not complete, with goodput 0 — not the
// failure-free makespan over the truncated one.
TEST_F(RecoverySuite, TruncatedRunReportsZeroGoodput) {
  const auto result = Run(TruncatingOptions());
  EXPECT_TRUE(result.recovered);  // the recovery ran
  EXPECT_FALSE(result.timeline.completed);
  EXPECT_GT(result.timeline.restarts, 0);
  EXPECT_GT(result.timeline.makespan, 0.0);
  EXPECT_EQ(result.goodput, 0.0);
  EXPECT_EQ(result.timeline.goodput(), 0.0);
}

// --- Degeneration and determinism ------------------------------------------

TEST_F(RecoverySuite, DisabledRecoveryKeepsTheAnalyticModel) {
  core::FaultToleranceOptions analytic;  // recovery off, failure-free
  const auto before = Run(analytic);
  // Scripted faults are a recovery-path concept; the analytic model must
  // ignore them entirely.
  core::FaultToleranceOptions with_script = analytic;
  fault::FaultEvent dead_chip;
  dead_chip.kind = fault::FaultKind::kChipFailure;
  dead_chip.chip = System().topology().ChipAt({5, 3});
  dead_chip.at = FaultAt();
  with_script.scripted_faults = {dead_chip};
  const auto after = Run(with_script);
  EXPECT_FALSE(before.recovered);
  EXPECT_FALSE(after.recovered);
  EXPECT_EQ(before.expected_seconds, after.expected_seconds);
  EXPECT_EQ(before.goodput, after.goodput);
  EXPECT_TRUE(after.timeline.decisions.empty());
}

TEST_F(RecoverySuite, EnabledWithoutFaultsMatchesTheFaultFreeRun) {
  core::FaultToleranceOptions options;
  options.recovery.enabled = true;  // tau stays 0: no MTBF class enabled
  const auto result = Run(options);
  ASSERT_TRUE(result.recovered);
  EXPECT_TRUE(result.timeline.completed);
  EXPECT_EQ(result.timeline.faults_applied, 0);
  EXPECT_TRUE(result.timeline.decisions.empty());
  EXPECT_DOUBLE_EQ(result.timeline.makespan, result.timeline.base_seconds);
  EXPECT_DOUBLE_EQ(result.goodput, 1.0);
  ASSERT_EQ(result.timeline.intervals.size(), 1u);
  EXPECT_STREQ(result.timeline.intervals[0].mode, "healthy");
}

TEST_F(RecoverySuite, TimelineBitIdenticalAcrossRepeatsAndThreads) {
  core::FaultToleranceOptions options = BaseOptions();
  const topo::MeshTopology& topo = System().topology();
  fault::FaultEvent dead_link;
  dead_link.kind = fault::FaultKind::kLinkFlap;
  dead_link.link = topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3}));
  dead_link.at = FaultAt();
  dead_link.duration = 0;
  dead_link.degrade_factor = 1024.0;
  options.scripted_faults = {dead_link};

  const std::string once = Run(options).timeline.ToJson();
  const std::string twice = Run(options).timeline.ToJson();
  EXPECT_EQ(once, twice);

  // A fresh thread starts with an empty run context and cold callback and
  // payload pools; the timeline must not notice.
  std::string fresh;
  std::thread([&] { fresh = Run(options).timeline.ToJson(); }).join();
  EXPECT_EQ(once, fresh);
}

// --- One run per job -------------------------------------------------------

// The reference: the loop SimulateTrainingUnderFailures ran before a job
// became one simulation. Every round builds a fresh simulator, network,
// injector, controller and telemetry sampler and replays the schedule from
// t = 0, to a horizon twice the last one, for at most six rounds.
struct Replay {
  recover::RecoveryTimeline timeline;
  int rounds = 0;
};

Replay ReplayRounds(const core::MultipodSystem& system,
                    const core::FaultToleranceOptions& options,
                    const recover::ControllerConfig& config,
                    const std::string& label) {
  Replay replay;
  SimTime horizon = std::max<SimTime>(2 * config.total_work, Seconds(1));
  telemetry::TelemetrySession* session = telemetry::CurrentTelemetry();
  trace::MetricsRegistry* metrics = trace::CurrentMetrics();
  for (int round = 0; round < 6; ++round) {
    ++replay.rounds;
    // Only the last round's metrics describe the reported timeline.
    if (metrics != nullptr) metrics->Reset();
    sim::Simulator simulator;
    net::Network network(&system.topology(), system.options().network,
                         &simulator);
    fault::FaultInjector injector(&network, options.faults);
    recover::RecoveryController controller(&network, &injector, config);
    if (!options.scripted_faults.empty()) {
      injector.ArmScripted(options.scripted_faults);
    } else {
      injector.Arm(horizon);
    }
    std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
    if (session != nullptr) {
      session->BeginRun(label, simulator.now());
      sampler =
          std::make_unique<telemetry::TimeSeriesSampler>(&simulator, session);
      recover::RegisterRecoveryProbes(*sampler, controller);
      telemetry::RegisterNetworkProbes(*sampler, network);
      telemetry::RegisterSimulatorProbes(*sampler, simulator);
      for (const fault::FaultEvent& event : options.scripted_faults) {
        if (event.kind == fault::FaultKind::kLinkFlap) {
          telemetry::RegisterLinkProbes(*sampler, network, event.link);
        }
      }
      const recover::RecoveryController* ctl = &controller;
      sampler->set_stop_predicate([ctl] { return ctl->finished(); });
      sampler->Start();
    }
    controller.Begin();
    simulator.RunUntil(horizon,
                       sim::Simulator::DeadlinePolicy::kStopAtLastEvent);
    replay.timeline = controller.Stop();
    if (replay.timeline.completed) {
      if (session != nullptr) session->CommitRun();
      break;
    }
    horizon *= 2;
  }
  if (metrics != nullptr) replay.timeline.ExportMetrics(*metrics);
  return replay;
}

// The registry's fault.* and recovery.* lines: what the recovery run
// records, without the failure-free step simulated before it.
std::string RecoveryMetrics(const trace::MetricsRegistry& registry) {
  std::ostringstream text;
  registry.WriteText(text);
  std::istringstream lines(text.str());
  std::string line;
  std::string kept;
  while (std::getline(lines, line)) {
    if (line.rfind("fault.", 0) == 0 || line.rfind("recovery.", 0) == 0) {
      kept += line + "\n";
    }
  }
  return kept;
}

// The two probes that count the simulator's pending and scheduled events.
bool CountsQueuedEvents(const std::string& probe) {
  return probe == "sim.queue_depth" || probe == "sim.events_scheduled";
}

// Every run a session exports (committed, then the open one), as text, with
// the CountsQueuedEvents series and flight-recorder columns left out.
std::string TelemetryWithoutQueueCounts(
    const telemetry::TelemetrySession& session) {
  std::ostringstream os;
  os.precision(17);
  std::vector<const telemetry::RunData*> runs;
  for (const telemetry::RunData& run : session.runs()) runs.push_back(&run);
  if (session.in_run()) runs.push_back(&session.current_run());
  const auto print_events =
      [&os](const std::vector<telemetry::StructuredEvent>& events) {
        for (const telemetry::StructuredEvent& e : events) {
          os << " event " << e.t << " " << e.name << " " << e.detail << "\n";
        }
      };
  for (const telemetry::RunData* run : runs) {
    os << "run " << run->label << " " << run->started_at << " "
       << run->last_sample_at << " " << run->ticks << " "
       << run->dropped_events << " " << run->dropped_dumps << "\n";
    for (const telemetry::TimeSeries& series : run->series) {
      if (CountsQueuedEvents(series.name())) continue;
      os << " series " << series.name() << " " << series.stride() << " "
         << series.samples() << "\n";
      for (const telemetry::TimeSeries::Point& p : series.Points()) {
        os << "  " << p.t << " " << p.mean << " " << p.min << " " << p.max
           << " " << p.count << "\n";
      }
    }
    print_events(run->events);
    for (const telemetry::WatchdogFiring& f : run->firings) {
      os << " firing " << f.watchdog << " " << f.series << " "
         << f.first_breach << " " << f.last_breach << " " << f.breaches << " "
         << f.baseline << " " << f.worst << " " << f.open;
      for (const int link : f.suspect_links) os << " " << link;
      os << "\n";
    }
    for (const telemetry::FlightDump& dump : run->dumps) {
      os << " dump " << dump.trigger << " " << dump.triggered_at << "\n";
      for (std::size_t row = 0; row < dump.times.size(); ++row) {
        os << "  " << dump.times[row];
        for (std::size_t c = 0; c < dump.columns.size(); ++c) {
          if (CountsQueuedEvents(dump.columns[c])) continue;
          os << " " << dump.columns[c] << "=" << dump.rows[row][c];
        }
        os << "\n";
      }
      print_events(dump.events);
    }
    for (const int link : run->suspect_links) os << " suspect " << link;
    os << "\n";
  }
  return os.str();
}

// Runs the DLRM job both ways, each under its own telemetry session and
// metrics registry, and checks the one-run timeline, expected seconds,
// goodput, recovery metrics and telemetry export against the replay's, byte
// for byte; the replay's metrics are its last round's. Returns the replay's
// rounds.
//
// The replay armed every fault of its last horizon at t = 0, so once a
// generated schedule needs a second round, its simulator held fault events
// of horizons the one-run loop has not armed yet. Only the two
// CountsQueuedEvents probes see that; everything else must still match.
// A scripted schedule is armed whole at t = 0 by both loops.
int ExpectOneRunMatchesReplay(core::MultipodSystem& system,
                              const core::FaultToleranceOptions& options) {
  const models::Benchmark benchmark = models::Benchmark::kDlrm;
  telemetry::TelemetrySession one_run_session;
  trace::MetricsRegistry one_run_metrics;
  core::FaultTolerantResult one_run;
  {
    telemetry::ScopedTelemetry install(&one_run_session);
    trace::ScopedMetrics meter(&one_run_metrics);
    one_run = system.SimulateTrainingUnderFailures(
        benchmark, 65536, 1, frameworks::Framework::kTensorFlow, options);
  }
  const recover::ControllerConfig config =
      system.RecoveryControllerConfig(benchmark, 65536, 1, options, one_run);
  telemetry::TelemetrySession replay_session;
  trace::MetricsRegistry replay_metrics;
  Replay replay;
  {
    telemetry::ScopedTelemetry install(&replay_session);
    trace::ScopedMetrics meter(&replay_metrics);
    replay = ReplayRounds(system, options, config,
                          "recovery/" + models::GetModelSpec(benchmark).name);
  }
  EXPECT_TRUE(one_run.recovered);
  EXPECT_EQ(one_run.timeline.ToJson(), replay.timeline.ToJson());
  EXPECT_EQ(one_run.expected_seconds, replay.timeline.makespan);
  EXPECT_EQ(one_run.goodput, replay.timeline.completed
                                 ? config.total_work / replay.timeline.makespan
                                 : 0.0);
  EXPECT_NE(RecoveryMetrics(one_run_metrics), "");
  EXPECT_EQ(RecoveryMetrics(one_run_metrics), RecoveryMetrics(replay_metrics));
  if (replay.rounds == 1 || !options.scripted_faults.empty()) {
    EXPECT_EQ(one_run_session.ToJson(), replay_session.ToJson());
  } else {
    EXPECT_EQ(TelemetryWithoutQueueCounts(one_run_session),
              TelemetryWithoutQueueCounts(replay_session));
  }
  return replay.rounds;
}

// The long flap finishes in the second round; the truncating script runs
// all six.
TEST_F(RecoverySuite, OneRunMatchesTheReplayOnTheSuiteCases) {
  EXPECT_EQ(ExpectOneRunMatchesReplay(System(), LongFlapOptions()), 2);
  EXPECT_EQ(ExpectOneRunMatchesReplay(System(), TruncatingOptions()), 6);
}

// Link flaps and 4096x slowed hosts from a seeded MTBF schedule at 256
// chips. The slow-host MTBF sets how often the job stalls: these seeds
// complete in the first round, in later rounds, or never.
core::FaultToleranceOptions SeededAnchor(SimTime slow_host_mtbf,
                                         std::uint64_t seed) {
  core::FaultToleranceOptions options;
  options.recovery.enabled = true;
  options.checkpoint_interval = Seconds(600);
  options.faults.seed = seed;
  options.faults.link_flap_mtbf = Seconds(2e4);
  options.faults.slow_host_mtbf = slow_host_mtbf;
  options.faults.slow_host_degrade_factor = 4096.0;
  options.faults.slow_host_mean_duration = Seconds(30);
  return options;
}

TEST(OneRunPerJob, MatchesTheReplayOnSeededAnchors) {
  core::MultipodSystem system(256);
  std::vector<int> rounds;
  for (const SimTime mtbf : {Seconds(4e3), Seconds(1e3), Seconds(300)}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("slow-host MTBF " + std::to_string(mtbf) + " s, seed " +
                   std::to_string(seed));
      rounds.push_back(
          ExpectOneRunMatchesReplay(system, SeededAnchor(mtbf, seed)));
    }
  }
  // The anchors cover a first-round finish, a finish in a later round and
  // a run that no horizon lets finish.
  EXPECT_EQ(std::count(rounds.begin(), rounds.end(), 1) > 0, true);
  EXPECT_EQ(std::count_if(rounds.begin(), rounds.end(),
                          [](int r) { return r > 1 && r < 6; }) > 0,
            true);
  EXPECT_EQ(std::count(rounds.begin(), rounds.end(), 6) > 0, true);
}

// A metered, traced run that no horizon lets finish injects each fault of
// its schedule once: the fault.injected.* counters sum to the faults the
// timeline applied, and the faults track shows each of them once.
TEST(OneRunPerJob, MeteredTracedRunCountsEachFaultOnce) {
  core::MultipodSystem system(256);
  trace::MetricsRegistry registry;
  trace::TraceRecorder recorder;
  core::FaultTolerantResult result;
  {
    trace::ScopedMetrics meter(&registry);
    trace::ScopedTrace trace(&recorder);
    result = system.SimulateTrainingUnderFailures(
        models::Benchmark::kDlrm, 65536, 1,
        frameworks::Framework::kTensorFlow, SeededAnchor(Seconds(300), 1));
  }
  ASSERT_TRUE(result.recovered);
  EXPECT_FALSE(result.timeline.completed);
  std::int64_t injected = 0;
  for (const fault::FaultKind kind :
       {fault::FaultKind::kChipFailure, fault::FaultKind::kLinkFlap,
        fault::FaultKind::kHostPreemption, fault::FaultKind::kSlowHost}) {
    injected += registry
                    .Counter(std::string("fault.injected.") +
                             fault::FaultKindName(kind))
                    .value;
  }
  EXPECT_GT(injected, 0);
  EXPECT_EQ(injected, result.timeline.faults_applied);

  // Each fault lands on the faults track once. The export sorts events by
  // timestamp and puts one per line; the track is named in a thread_name
  // record.
  std::istringstream lines(recorder.ToJson());
  std::string line;
  std::string track;
  std::set<std::string> instants;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"thread_name\"") != std::string::npos &&
        line.find("{\"name\":\"faults\"}") != std::string::npos) {
      const std::size_t pid = line.find("\"pid\"");
      track = line.substr(pid, line.find(",\"args\"") - pid);
    } else if (!track.empty() &&
               line.find("\"ph\":\"i\"") != std::string::npos &&
               line.find(track) != std::string::npos) {
      instants.insert(line);
      ++count;
    }
  }
  EXPECT_EQ(count, result.timeline.faults_applied);
  EXPECT_EQ(instants.size(), static_cast<std::size_t>(count));
}

TEST_F(RecoverySuite, ExportsRecoveryMetrics) {
  trace::MetricsRegistry registry;
  {
    trace::ScopedMetrics scope(&registry);
    core::FaultToleranceOptions options = BaseOptions();
    fault::FaultEvent dead_chip;
    dead_chip.kind = fault::FaultKind::kChipFailure;
    dead_chip.chip = System().topology().ChipAt({5, 3});
    dead_chip.at = FaultAt();
    options.scripted_faults = {dead_chip};
    Run(options);
  }
  EXPECT_EQ(registry.Counter("recovery.faults_applied").value, 1);
  EXPECT_EQ(registry.Counter("recovery.decisions").value, 1);
  EXPECT_EQ(registry.Counter("recovery.strategy.elastic-shrink").value, 1);
  EXPECT_EQ(registry.Histogram("recovery.time_to_recover_us").count(), 1);
  EXPECT_GT(registry.Gauge("recovery.goodput").value, 0.0);
  EXPECT_LT(registry.Gauge("recovery.goodput").value, 1.0);
}

}  // namespace
}  // namespace tpu
