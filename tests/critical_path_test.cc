// Tests for the critical-path engine: causal DAG construction, bottleneck
// attribution, slack/what-if pricing, flow-event emission, and the planner's
// probe report. The headline checks mirror the engine's purpose: on a
// degraded 16x8 mesh the injected slow link must top the contributor table,
// and the what-if heal prediction must land within 10% of actually healing
// the link and re-simulating.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "collectives/all_reduce.h"
#include "core/multipod.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "plan/planner.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "trace/critical_path.h"
#include "trace/run_report.h"
#include "trace/trace.h"

namespace tpu {
namespace {

struct SummationRun {
  coll::GradientSummationResult result;
  trace::CriticalPathReport report;
  topo::LinkId slow = -1;
};

// One tracked 2-D gradient summation on a 16x8 slice, optionally with one
// mesh-Y link degraded by `factor`.
SummationRun RunTrackedSummation(double factor) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  sim::Simulator simulator;
  net::Network network(&topo, {}, &simulator);
  SummationRun run;
  run.slow = topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3}));
  if (factor > 1.0) network.DegradeLink(run.slow, factor);
  trace::CriticalPathTracker tracker;
  sim::ScopedEventObserver observe(&tracker);
  coll::GradientSummationConfig config;
  config.elems = 1 << 18;
  run.result = coll::TwoDGradientSummation(network, config);
  run.report = tracker.Analyze();
  return run;
}

TEST(CriticalPath, TrackerFollowsACausalChainAndTilesTime) {
  trace::CriticalPathTracker tracker;
  sim::ScopedEventObserver observe(&tracker);
  sim::Simulator simulator;
  simulator.Schedule(1.0, [&] { simulator.Schedule(2.0, [] {}); });
  simulator.Run();

  const trace::CriticalPathReport report = tracker.Analyze();
  EXPECT_EQ(report.start, 0.0);
  EXPECT_EQ(report.makespan, 3.0);
  EXPECT_EQ(report.path_nodes, 2);
  EXPECT_EQ(report.total_nodes, 2);
  EXPECT_EQ(report.local_seconds, 3.0);
  EXPECT_EQ(report.comm_seconds, 0.0);
  ASSERT_FALSE(report.segments.empty());
  // Segments tile [start, makespan] with no gaps.
  SimTime cursor = report.start;
  for (const trace::PathSegment& segment : report.segments) {
    EXPECT_EQ(segment.start, cursor);
    EXPECT_GT(segment.end, segment.start);
    cursor = segment.end;
  }
  EXPECT_EQ(cursor, report.makespan);
}

TEST(CriticalPath, PathSegmentsAreGapFreeOnARealCollective) {
  const SummationRun run = RunTrackedSummation(1.0);
  ASSERT_FALSE(run.report.segments.empty());
  SimTime cursor = run.report.start;
  SimTime comm = 0, local = 0;
  for (const trace::PathSegment& segment : run.report.segments) {
    EXPECT_EQ(segment.start, cursor);
    cursor = segment.end;
    (segment.is_comm() ? comm : local) += segment.seconds();
  }
  EXPECT_EQ(cursor, run.report.makespan);
  EXPECT_GT(comm, 0.0);
  // The decomposition the report totals advertise matches the segments.
  EXPECT_NEAR(comm, run.report.comm_seconds, 1e-12);
  EXPECT_NEAR(local, run.report.local_seconds, 1e-12);
  // The collective's elapsed time is the tracked makespan.
  EXPECT_EQ(run.report.makespan, run.result.total());
  // Phases were labelled: the ranked phase table names real schedule phases.
  ASSERT_FALSE(run.report.phases.empty());
  bool found_named_phase = false;
  for (const trace::PhaseContribution& phase : run.report.phases) {
    if (!phase.phase.empty()) found_named_phase = true;
  }
  EXPECT_TRUE(found_named_phase);
}

TEST(CriticalPath, DegradedLinkTopsTheContributorTable) {
  const SummationRun run = RunTrackedSummation(8.0);
  ASSERT_FALSE(run.report.links.empty());
  EXPECT_EQ(run.report.top_link(), run.slow);
  EXPECT_STREQ(run.report.links.front().link_type, "meshY");
  EXPECT_GT(run.report.links.front().serialize, 0.0);

  // The slow link is on the path: its slack is (near) zero, and the tracker
  // observed its degradation factor.
  bool found = false;
  for (const trace::LinkSlack& slack : run.report.slack) {
    EXPECT_GE(slack.slack, 0.0);
    if (slack.link == run.slow) {
      found = true;
      EXPECT_EQ(slack.slack, 0.0);
      EXPECT_NEAR(slack.max_degrade, 8.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CriticalPath, WhatIfHealPredictionMatchesResimulationWithin10Percent) {
  const SummationRun degraded = RunTrackedSummation(4.0);
  const SummationRun healed = RunTrackedSummation(1.0);
  ASSERT_FALSE(degraded.report.what_if.empty());
  const trace::WhatIfHeal& heal = degraded.report.what_if.front();
  EXPECT_EQ(heal.link, degraded.slow);
  EXPECT_NEAR(heal.degrade, 4.0, 1e-9);
  EXPECT_GT(heal.predicted_savings, 0.0);

  const SimTime actual = healed.result.total();
  EXPECT_GT(actual, 0.0);
  EXPECT_LE(std::abs(heal.predicted_makespan - actual), 0.10 * actual)
      << "predicted " << heal.predicted_makespan << " vs re-simulated "
      << actual;
}

TEST(CriticalPath, FlowEventsAreWellFormedChromeTraceJson) {
  const SummationRun run = RunTrackedSummation(2.0);
  trace::TraceRecorder recorder;
  trace::EmitCriticalPathToTrace(run.report, recorder);
  std::ostringstream out;
  recorder.WriteJson(out);
  const std::string json = out.str();

  // One flow chain: exactly one start, one finish, steps in between, all
  // carrying the critpath category and the finish its binding point.
  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"s\""), 1u);
  EXPECT_EQ(count("\"ph\":\"f\""), 1u);
  EXPECT_GE(count("\"ph\":\"t\""), 1u);
  EXPECT_EQ(count("\"bp\":\"e\""), 1u);
  EXPECT_EQ(count("\"cat\":\"critpath\""),
            count("\"ph\":\"s\"") + count("\"ph\":\"t\"") +
                count("\"ph\":\"f\""));
  // Every path segment landed as a complete slice next to its flow point.
  EXPECT_EQ(count("\"ph\":\"X\""), run.report.segments.size());
}

TEST(CriticalPath, WriteTextNamesTheTopContributor) {
  const SummationRun run = RunTrackedSummation(8.0);
  std::ostringstream out;
  run.report.WriteText(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("link " + std::to_string(run.slow)), std::string::npos);
}

TEST(CriticalPath, ProbePlanReportsEstimateAndCriticalPath) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(8, 8, true));
  const net::NetworkConfig config;
  plan::PlanRequest request;
  request.elems = 1 << 16;
  request.des_top_k = 2;
  const plan::PlannerResult best = plan::FindBestPlan(topo, config, request);

  const trace::RunReport report =
      plan::ProbePlan(topo, config, {}, best.plan, request.elems,
                      best.estimated_seconds);
  EXPECT_TRUE(report.planned);
  EXPECT_EQ(report.plan_name, best.plan.name());
  // The probe re-executes the plan on the same throwaway discipline the DES
  // re-pricing tier uses, so its time is bit-identical to the search's.
  EXPECT_EQ(report.plan_predicted_seconds, best.predicted_seconds);
  EXPECT_EQ(report.plan_estimated_seconds, best.estimated_seconds);
  ASSERT_TRUE(report.has_critical_path);
  // The tracked makespan is exactly the executed plan's elapsed time — and
  // comparing the closed-form estimate against it is the two-tier accuracy
  // probe: on a healthy 8x8 mesh the estimate should be in the ballpark.
  EXPECT_EQ(report.critical_path.makespan, report.plan_predicted_seconds);
  EXPECT_GT(report.plan_estimated_seconds, 0.0);
  EXPECT_FALSE(report.phases.empty());

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"slack\""), std::string::npos);
  EXPECT_NE(json.find("\"what_if\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(CriticalPath, SimulateStepFillsARunReport) {
  core::MultipodSystem system(64);
  const models::ModelSpec& spec =
      models::GetModelSpec(models::Benchmark::kResNet50);
  trace::RunReport report;
  const core::StepBreakdown step =
      system.SimulateStep(spec, 64 * 64, 1, nullptr, nullptr, &report);
  EXPECT_EQ(report.step_seconds, step.step());
  EXPECT_EQ(report.compute_seconds, step.compute);
  EXPECT_FALSE(report.planned);
  ASSERT_TRUE(report.has_critical_path);
  // The tracked collective is the all-reduce: its makespan is the simulated
  // communication time (reduce + update + broadcast).
  EXPECT_GT(report.critical_path.makespan, 0.0);
  ASSERT_GE(report.phases.size(), 7u);
  EXPECT_EQ(report.phases[0].name, "forward");
  EXPECT_EQ(report.phases[1].name, "backward");
}

TEST(CriticalPath, TrackerResetsWhenAFreshSimulatorStarts) {
  trace::CriticalPathTracker tracker;
  sim::ScopedEventObserver observe(&tracker);
  {
    sim::Simulator first;
    first.Schedule(1.0, [] {});
    first.Schedule(2.0, [] {});
    first.Run();
  }
  EXPECT_EQ(tracker.node_count(), 2);
  sim::Simulator second;
  second.Schedule(5.0, [] {});
  second.Run();
  // seq restarted at 0: the tracker dropped the first run and follows the
  // new simulator.
  EXPECT_EQ(tracker.node_count(), 1);
  EXPECT_EQ(tracker.Analyze().makespan, 5.0);
}

}  // namespace
}  // namespace tpu
