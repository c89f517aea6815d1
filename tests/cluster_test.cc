// The multi-tenant cluster subsystem: deterministic workloads, topology-
// aware carving, and the shared-fault composition (one injector, many
// tenants, independent recovery decisions).
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/report.h"
#include "cluster/scheduler.h"
#include "cluster/workload.h"
#include "recover/recovery.h"
#include "topology/topology.h"

namespace tpu::cluster {
namespace {

// ---------------------------------------------------------------- workload

TEST(Workload, PoissonStreamIsBitIdenticalAcrossRuns) {
  WorkloadConfig config;
  config.seed = 7;
  config.horizon = Hours(2);
  const std::vector<JobSpec> a = GeneratePoissonWorkload(config);
  const std::vector<JobSpec> b = GeneratePoissonWorkload(config);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  config.seed = 8;
  EXPECT_NE(GeneratePoissonWorkload(config), a);
}

TEST(Workload, PoissonStreamRespectsHorizonMaxJobsAndMix) {
  WorkloadConfig config;
  config.seed = 3;
  config.horizon = Hours(1);
  config.max_jobs = 12;
  const std::vector<JobSpec> jobs = GeneratePoissonWorkload(config);
  ASSERT_LE(jobs.size(), 12u);
  const std::vector<JobShape> mix = DefaultJobMix();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& job = jobs[i];
    EXPECT_EQ(job.id, static_cast<int>(i));
    EXPECT_LT(job.arrival, config.horizon);
    if (i > 0) {
      EXPECT_GE(job.arrival, jobs[i - 1].arrival);
    }
    EXPECT_GE(job.priority, 0);
    EXPECT_LT(job.priority, config.num_priorities);
    const bool in_mix =
        std::any_of(mix.begin(), mix.end(), [&job](const JobShape& shape) {
          return shape.size_x == job.size_x && shape.size_y == job.size_y &&
                 shape.benchmark == job.benchmark &&
                 job.steps >= shape.min_steps && job.steps <= shape.max_steps;
        });
    EXPECT_TRUE(in_mix) << job.name;
  }
}

TEST(Workload, TraceRoundTripsExactJobsBitIdentically) {
  // Arrivals representable in %.12g round-trip exactly.
  std::vector<JobSpec> jobs(2);
  jobs[0] = {0, "alpha", Seconds(12.5), 4, 4, 1000, 2,
             models::Benchmark::kResNet50, 4096};
  jobs[1] = {1, "beta", Seconds(30), 8, 8, 1500.25, 0,
             models::Benchmark::kBert, 1536};

  std::stringstream trace;
  WriteJobsTrace(trace, jobs);
  std::vector<JobSpec> replayed;
  std::string error;
  ASSERT_TRUE(ParseJobsTrace(trace, &replayed, &error)) << error;
  EXPECT_EQ(jobs, replayed);
}

TEST(Workload, TraceWriteParseWriteIsIdempotent) {
  // A generated stream's arrivals are rounded to 12 significant digits on
  // the first write; after one parse the representation is a fixed point.
  WorkloadConfig config;
  config.seed = 11;
  config.max_jobs = 8;
  const std::vector<JobSpec> jobs = GeneratePoissonWorkload(config);
  ASSERT_FALSE(jobs.empty());

  std::stringstream first;
  WriteJobsTrace(first, jobs);
  std::vector<JobSpec> replayed;
  std::string error;
  ASSERT_TRUE(ParseJobsTrace(first, &replayed, &error)) << error;
  std::stringstream second;
  WriteJobsTrace(second, replayed);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Workload, ParseRejectsMalformedLinesWithContext) {
  std::istringstream bad("0 4 4 1000 0 resnet50 4096 ok\n5 nope\n");
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ParseJobsTrace(bad, &jobs, &error));
  EXPECT_NE(error.find("2"), std::string::npos) << error;  // line number

  std::istringstream unknown("0 4 4 1000 0 alexnet 4096 oops\n");
  EXPECT_FALSE(ParseJobsTrace(unknown, &jobs, &error));
  EXPECT_NE(error.find("alexnet"), std::string::npos) << error;
}

TEST(Workload, ParseRejectsABatchBelowOneExamplePerReplica) {
  // A 4x4 slice trains 32 replicas, so a batch of 8 cannot be priced; the
  // cluster used to abort on it. 32 is the smallest batch that parses.
  std::istringstream tiny("# header\n0 4 4 10 0 bert 8 tiny\n");
  std::vector<JobSpec> jobs;
  std::string error;
  EXPECT_FALSE(ParseJobsTrace(tiny, &jobs, &error));
  EXPECT_EQ(error.rfind("line 2: ", 0), 0u) << error;
  EXPECT_NE(error.find("(32)"), std::string::npos) << error;

  std::istringstream smallest("0 4 4 10 0 bert 32 smallest\n");
  EXPECT_TRUE(ParseJobsTrace(smallest, &jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(ClusterSimulation(ClusterConfig{}, jobs).Run().jobs_completed, 1);
}

TEST(Workload, CommittedExampleTraceLoads) {
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(LoadJobsTrace(std::string(TPU_REPO_ROOT) +
                                "/docs/cluster_jobs.trace",
                            &jobs, &error))
      << error;
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].name, "resnet-finetune-a");
  EXPECT_EQ(jobs[3].size_x, 16);
  EXPECT_EQ(jobs[3].benchmark, models::Benchmark::kTransformer);
  // All shapes fit the 2x(8x8) example cluster.
  for (const JobSpec& job : jobs) {
    EXPECT_LE(job.size_x, 16);
    EXPECT_LE(job.size_y, 8);
  }
}

// --------------------------------------------------------------- scheduler

TEST(SliceScheduler, FirstFitScansRowMajorAndBestFitHugsCorners) {
  SliceScheduler sched(8, 8);
  EXPECT_EQ(sched.FindSlot(4, 4, CarvePolicy::kFirstFit),
            (topo::SubmeshRect{0, 0, 4, 4}));
  sched.Allocate(0, {0, 0, 4, 4});
  EXPECT_EQ(sched.FindSlot(4, 4, CarvePolicy::kFirstFit),
            (topo::SubmeshRect{4, 0, 4, 4}));
  // Best-fit prefers the placement with the most touching perimeter: snug
  // against the existing allocation and the border beats free-floating.
  const topo::SubmeshRect best = sched.FindSlot(4, 4, CarvePolicy::kBestFit);
  EXPECT_TRUE(best == (topo::SubmeshRect{4, 0, 4, 4}) ||
              best == (topo::SubmeshRect{0, 4, 4, 4}))
      << best.x0 << "," << best.y0;
}

TEST(SliceScheduler, FragmentationComparesLargestFreeRectToFreeChips) {
  SliceScheduler sched(8, 8);
  EXPECT_DOUBLE_EQ(sched.Fragmentation(), 0.0);  // one 8x8 free rect
  // A pillar down the middle splits the free space: largest free rect 3x8.
  sched.Allocate(0, {3, 0, 2, 8});
  EXPECT_EQ(sched.LargestFreeRect().chips(), 24);
  EXPECT_NEAR(sched.Fragmentation(), 1.0 - 24.0 / 48.0, 1e-12);
  sched.Release(0);
  EXPECT_DOUBLE_EQ(sched.Fragmentation(), 0.0);
}

TEST(SliceScheduler, MarkUnusableShrinksCapacityAndBlocksSlots) {
  SliceScheduler sched(4, 4);
  sched.MarkUnusable({1, 1});
  EXPECT_EQ(sched.free_chips(), 15);
  EXPECT_EQ(sched.unusable_chips(), 1);
  EXPECT_TRUE(sched.FindSlot(4, 4, CarvePolicy::kFirstFit).empty());
  EXPECT_EQ(sched.FindSlot(2, 2, CarvePolicy::kFirstFit),
            (topo::SubmeshRect{2, 0, 2, 2}));
}

TEST(SliceScheduler, RectFilterVetoesPlacements) {
  SliceScheduler sched(8, 4);
  // Refuse anything spanning the x=3/4 boundary.
  sched.set_rect_filter([](const topo::SubmeshRect& rect) {
    return rect.x0 + rect.size_x <= 4 || rect.x0 >= 4;
  });
  EXPECT_EQ(sched.FindSlot(4, 4, CarvePolicy::kFirstFit),
            (topo::SubmeshRect{0, 0, 4, 4}));
  EXPECT_TRUE(sched.FindSlot(6, 4, CarvePolicy::kFirstFit).empty());
}

TEST(SliceScheduler, ShrinkToFreesTheComplement) {
  SliceScheduler sched(8, 8);
  sched.Allocate(5, {0, 0, 8, 4});
  sched.ShrinkTo(5, {0, 0, 4, 4});
  EXPECT_EQ(sched.busy_chips(), 16);
  EXPECT_EQ(sched.allocations().at(5), (topo::SubmeshRect{0, 0, 4, 4}));
  // The freed half is immediately carvable.
  EXPECT_EQ(sched.FindSlot(4, 4, CarvePolicy::kFirstFit),
            (topo::SubmeshRect{4, 0, 4, 4}));
}

TEST(SliceScheduler, FreeEpochMovesOnlyWhenCellsReturn) {
  SliceScheduler sched(8, 8);
  const std::uint64_t start = sched.free_epoch();
  sched.Allocate(0, {0, 0, 4, 4});
  sched.MarkUnusable({7, 7});
  EXPECT_EQ(sched.free_epoch(), start);
  sched.ShrinkTo(0, {0, 0, 2, 4});
  EXPECT_EQ(sched.free_epoch(), start + 1);
  sched.Release(0);
  EXPECT_EQ(sched.free_epoch(), start + 2);
}

TEST(SliceScheduler, PreemptionPlanMinimizesVictims) {
  SliceScheduler sched(8, 4);
  sched.Allocate(0, {0, 0, 4, 4});
  sched.Allocate(1, {4, 0, 2, 4});
  sched.Allocate(2, {6, 0, 2, 4});
  // A 4x4 slot exists by evicting either {0} or {1,2}; one victim wins.
  const auto plan = sched.FindPreemption(4, 4, [](int) { return true; });
  ASSERT_TRUE(plan.found);
  EXPECT_EQ(plan.victims, std::vector<int>{0});
  EXPECT_EQ(plan.rect, (topo::SubmeshRect{0, 0, 4, 4}));
  // With owner 0 protected, the two small jobs are the only option.
  const auto alt =
      sched.FindPreemption(4, 4, [](int owner) { return owner != 0; });
  ASSERT_TRUE(alt.found);
  EXPECT_EQ(alt.victims, (std::vector<int>{1, 2}));
}

TEST(SliceScheduler, MigrationPlanRelocatesVictimsOffTheTargetRect) {
  SliceScheduler sched(8, 4);
  sched.Allocate(0, {2, 0, 2, 4});  // a pillar fragmenting the row
  EXPECT_TRUE(sched.FindSlot(6, 4, CarvePolicy::kFirstFit).empty());
  const auto plan = sched.FindMigration(6, 4);
  ASSERT_TRUE(plan.found);
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_EQ(plan.moves[0].first, 0);
  // The relocated pillar must not overlap the new 6x4 slot.
  EXPECT_FALSE(plan.moves[0].second.Intersects(plan.rect));
}

// ----------------------------------------------------------------- report

TEST(Report, NearestRankPercentileMatchesDefinition) {
  EXPECT_DOUBLE_EQ(NearestRankPercentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile({5}, 99), 5.0);
  const std::vector<double> sample{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(NearestRankPercentile(sample, 50), 2.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(sample, 99), 4.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(sample, 0), 1.0);
}

// ---------------------------------------------------------- cluster driver

ClusterConfig SmallClusterConfig() {
  ClusterConfig config;  // 2x(8x8) backfill
  config.horizon = Hours(1);
  return config;
}

TEST(Cluster, ReplaysTheCommittedTraceToCompletion) {
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(LoadJobsTrace(std::string(TPU_REPO_ROOT) +
                                "/docs/cluster_jobs.trace",
                            &jobs, &error))
      << error;
  ClusterSimulation sim(SmallClusterConfig(), jobs);
  const ClusterReport report = sim.Run();

  EXPECT_EQ(report.jobs_submitted, 6);
  EXPECT_EQ(report.jobs_completed, 6);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_GT(report.goodput, 0.0);
  EXPECT_LE(report.goodput, 1.0);
  EXPECT_LT(report.elapsed, report.horizon);  // all done before the horizon

  // The event log is chronological and every job submits before it admits.
  ASSERT_FALSE(report.events.empty());
  for (std::size_t i = 1; i < report.events.size(); ++i) {
    EXPECT_LE(report.events[i - 1].t, report.events[i].t);
  }
  for (const JobOutcome& job : report.jobs) {
    EXPECT_STREQ(job.state, "completed");
    EXPECT_GE(job.first_admitted_at, job.spec.arrival);
    EXPECT_NEAR(job.steps_done, job.spec.steps, 0.5);
  }
}

TEST(Cluster, BackfillPreemptsLowerPriorityForTheBlockedHead) {
  // The committed trace's dlrm-rank (priority 2) arrives into a machine
  // whose only 8x4 slot is held by bert-pretrain (priority 1): backfill
  // preempts it and the victim resumes elsewhere, work intact.
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(LoadJobsTrace(std::string(TPU_REPO_ROOT) +
                                "/docs/cluster_jobs.trace",
                            &jobs, &error))
      << error;
  ClusterSimulation sim(SmallClusterConfig(), jobs);
  const ClusterReport report = sim.Run();
  EXPECT_GE(report.preemptions, 1);
  EXPECT_GE(report.requeues, 1);
  const JobOutcome& victim = report.jobs[1];  // bert-pretrain
  EXPECT_GE(victim.preemptions, 1);
  EXPECT_GE(victim.admissions, 2);  // admitted, preempted, resumed
  EXPECT_STREQ(victim.state, "completed");
}

TEST(Cluster, FirstFitHeadOfLineBlocksWhereBackfillProceeds) {
  // One pod-wide job blocks the head of a first-fit queue; backfill lets
  // the small job behind it through.
  std::vector<JobSpec> jobs(3);
  jobs[0] = {0, "wide-a", 0, 16, 6, 10000, 0};
  jobs[1] = {1, "wide-b", Seconds(10), 16, 6, 10000, 0};
  jobs[2] = {2, "small", Seconds(20), 4, 2, 400, 0};

  ClusterConfig first_fit = SmallClusterConfig();
  first_fit.policy = CarvePolicy::kFirstFit;
  const ClusterReport ff = ClusterSimulation(first_fit, jobs).Run();

  ClusterConfig backfill = SmallClusterConfig();
  backfill.policy = CarvePolicy::kBackfill;
  const ClusterReport bf = ClusterSimulation(backfill, jobs).Run();

  // Under first-fit the small job waits for BOTH wide jobs; under backfill
  // it cannot start earlier than wide-b but never later.
  EXPECT_LT(bf.jobs[2].wait_seconds, ff.jobs[2].wait_seconds);
}

TEST(Cluster, PreemptionInAPassReopensShapesThatFailedEarlierInIt) {
  // `wide` fills the 16x8 machine. `peer` (same priority, so it cannot
  // preempt) waits behind it. When `urgent` arrives, one pass sees urgent's
  // 8x8 fail, preempts `wide` for it, and must retry the same 8x8 shape for
  // `peer` in the other half instead of remembering the failure.
  std::vector<JobSpec> jobs(3);
  jobs[0] = {0, "wide", 0, 16, 8, 10000, 0};
  jobs[1] = {1, "peer", Seconds(5), 8, 8, 400, 0};
  jobs[2] = {2, "urgent", Seconds(10), 8, 8, 400, 1};
  const ClusterReport report =
      ClusterSimulation(SmallClusterConfig(), jobs).Run();
  EXPECT_EQ(report.jobs[0].preemptions, 1);
  EXPECT_EQ(report.jobs[2].first_admitted_at, Seconds(10));
  EXPECT_EQ(report.jobs[1].first_admitted_at, Seconds(10));
}

// The acceptance scenario: one dead cross-pod cable, two co-located
// tenants, the SAME injected fault diagnosed by both, two different
// recovery decisions.
TEST(Cluster, SharedCableFaultSplitsTwoTenantsDecisions) {
  ClusterConfig config = SmallClusterConfig();
  std::vector<JobSpec> jobs(2);
  jobs[0] = {0, "tenant-shrink", 0, 16, 4, 4000, 0};
  jobs[1] = {1, "tenant-restart", Seconds(1), 16, 4, 4000, 0};
  // Tenant 1 refuses to run below 75% of its chips: the 7x4 carve that
  // saves tenant 0 is below its floor, so it checkpoint-restarts.
  recover::RecoveryPolicy strict = config.recovery;
  strict.min_shrink_fraction = 0.75;
  config.job_recovery_overrides[1] = strict;

  const topo::MeshTopology topo(config.topology);
  config.scripted_faults = CrossPodCableFault(topo, 7, Seconds(50));
  ASSERT_EQ(config.scripted_faults.size(), 16u);  // 8 rows x 2 directions

  ClusterSimulation sim(config, jobs);
  const ClusterReport report = sim.Run();
  ASSERT_EQ(report.jobs.size(), 2u);
  const JobOutcome& shrinker = report.jobs[0];
  const JobOutcome& restarter = report.jobs[1];

  // Both tenants observed the same shared fault through their own slices
  // (each 16x4 slice borders 4 rows of the cable, both directions).
  EXPECT_EQ(shrinker.faults_observed, 8);
  EXPECT_EQ(restarter.faults_observed, 8);

  // ...and reacted independently.
  ASSERT_FALSE(shrinker.decisions.empty());
  EXPECT_EQ(shrinker.decisions.front().strategy,
            recover::Strategy::kElasticShrink);
  EXPECT_EQ(shrinker.shrinks, 1);
  EXPECT_EQ(shrinker.restarts, 0);
  EXPECT_LE(shrinker.last_rect.size_x, 7);  // shrunk off the dead boundary

  ASSERT_FALSE(restarter.decisions.empty());
  EXPECT_EQ(restarter.decisions.front().strategy,
            recover::Strategy::kCheckpointRestart);
  EXPECT_EQ(restarter.restarts, 1);
  // Readmission shrink-to-fit: a 16x4 slice would span the dead cable (the
  // rect filter refuses it), so the job comes back halved on one pod.
  EXPECT_EQ(restarter.last_rect, (topo::SubmeshRect{8, 0, 8, 4}));
  EXPECT_GE(restarter.admissions, 2);

  // Both finish all their steps despite the fault.
  EXPECT_STREQ(shrinker.state, "completed");
  EXPECT_STREQ(restarter.state, "completed");
  EXPECT_NEAR(shrinker.steps_done, 4000, 0.5);
  EXPECT_NEAR(restarter.steps_done, 4000, 0.5);
  EXPECT_EQ(report.faults_injected, 16);
}

TEST(Cluster, ReportJsonCarriesAggregatesJobsAndEvents) {
  std::vector<JobSpec> jobs(1);
  jobs[0] = {0, "solo", 0, 4, 4, 500, 0};
  ClusterSimulation sim(SmallClusterConfig(), jobs);
  const std::string json = sim.Run().ToJson();
  EXPECT_NE(json.find("\"policy\":\"backfill\""), std::string::npos);
  EXPECT_NE(json.find("\"topology\":\"2x(8x8)\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":[{\"id\":0,\"name\":\"solo\""),
            std::string::npos);
  EXPECT_NE(json.find("\"events\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"finish\""), std::string::npos);
}

}  // namespace
}  // namespace tpu::cluster
