// The collective planner: candidate legality, lowering, bit-identical
// execution against the fixed 2-D schedule, the golden rediscovery of the
// paper's schedule on a healthy multipod, fault-driven replanning around a
// dead link, caching, determinism, and the certified lower bound that prunes
// the discrete-event tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "collectives/all_reduce.h"
#include "common/rng.h"
#include "core/multipod.h"
#include "fault/health_monitor.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "plan/cache.h"
#include "plan/cost.h"
#include "plan/executor.h"
#include "plan/generator.h"
#include "plan/plan_ir.h"
#include "plan/planner.h"
#include "plan/schedule.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "trace/run_report.h"

namespace tpu {
namespace {

struct Rig {
  topo::MeshTopology topo;
  sim::Simulator simulator;
  net::Network network;

  explicit Rig(topo::TopologyConfig config)
      : topo(config), network(&topo, net::NetworkConfig{}, &simulator) {}
};

// Every X link of row `y` runs `factor` times slower.
plan::LinkHealthSet SlowRow(const topo::MeshTopology& topo, int y,
                            double factor) {
  plan::LinkHealthSet health;
  for (const topo::Link& link : topo.links()) {
    const bool x_link = link.type == topo::LinkType::kMeshX ||
                        link.type == topo::LinkType::kCrossPodX;
    if (x_link && topo.CoordOf(link.from).y == y) {
      health.degraded.emplace_back(link.id, factor);
    }
  }
  return health;
}

// Both directions of the Y cable between (x, y) and (x, y + 1) are dead.
plan::LinkHealthSet DeadYCable(const topo::MeshTopology& topo, int x, int y) {
  plan::LinkHealthSet health;
  const topo::ChipId a = topo.ChipAt({x, y});
  const topo::ChipId b = topo.ChipAt({x, y + 1});
  health.failed = {topo.LinkBetween(a, b), topo.LinkBetween(b, a)};
  std::sort(health.failed.begin(), health.failed.end());
  return health;
}

TEST(PlanIr, PaperPlanNameIsGolden) {
  plan::PlanRequest request;
  request.elems = 1;
  EXPECT_EQ(plan::PaperPlan(request).name(), "ring-2d[Y->X] bidir bf16");
  request.allow_bfloat16 = false;
  request.allow_bidirectional = false;
  request.model_parallel_stride = 4;
  EXPECT_EQ(plan::PaperPlan(request).name(), "ring-2d[Y->X]/s4 mono fp32");
}

TEST(PlanIr, ValidateRejectsIllegalShapes) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  std::string error;

  plan::CollectivePlan empty;
  EXPECT_FALSE(plan::ValidatePlan(topo, empty, &error));

  // All-gather of a dimension that was never reduce-scattered.
  plan::CollectivePlan mismatched;
  mismatched.phases = {{plan::PhaseKind::kReduceScatter,
                        plan::PhaseAlgorithm::kRing, plan::PlanDim::kY},
                       {plan::PhaseKind::kAllGather,
                        plan::PhaseAlgorithm::kRing, plan::PlanDim::kX}};
  EXPECT_FALSE(plan::ValidatePlan(topo, mismatched, &error));
  EXPECT_NE(error.find("mirror"), std::string::npos);

  // Missing the X dimension entirely.
  plan::CollectivePlan partial;
  partial.phases = {{plan::PhaseKind::kAllReduceInOne,
                     plan::PhaseAlgorithm::kRing, plan::PlanDim::kY}};
  EXPECT_FALSE(plan::ValidatePlan(topo, partial, &error));

  // Halving-doubling on a non-power-of-two group (Y extent 6).
  const topo::MeshTopology odd(topo::TopologyConfig::Slice(16, 6, true));
  plan::CollectivePlan hd;
  hd.phases = {{plan::PhaseKind::kAllReduceInOne,
                plan::PhaseAlgorithm::kHalvingDoubling, plan::PlanDim::kY},
               {plan::PhaseKind::kAllReduceInOne,
                plan::PhaseAlgorithm::kHalvingDoubling, plan::PlanDim::kX}};
  EXPECT_FALSE(plan::ValidatePlan(odd, hd, &error));

  // Chunks on a non-canonical shape.
  plan::CollectivePlan chunked;
  chunked.phases = {{plan::PhaseKind::kAllReduceInOne,
                     plan::PhaseAlgorithm::kRing, plan::PlanDim::kFlat}};
  chunked.chunks = 2;
  EXPECT_FALSE(plan::ValidatePlan(topo, chunked, &error));
}

TEST(PlanGenerator, CandidatesValidateAndHaveUniqueNames) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  plan::PlanRequest request;
  request.elems = 1 << 16;
  request.max_chunks = 4;
  const std::vector<plan::CollectivePlan> plans =
      plan::GeneratePlans(topo, request);
  // 8 ring-2d + 4 flat + 4 hd + 8 ar-chains + 2 chunked.
  EXPECT_EQ(plans.size(), 26u);
  std::set<std::string> names;
  for (const plan::CollectivePlan& plan : plans) {
    EXPECT_TRUE(plan::ValidatePlan(topo, plan)) << plan.name();
    EXPECT_TRUE(names.insert(plan.name()).second)
        << "duplicate name " << plan.name();
  }
  // The paper's schedule is enumerated.
  EXPECT_TRUE(names.count("ring-2d[Y->X] bidir bf16"));
  EXPECT_TRUE(names.count("ring-flat bidir bf16"));
}

TEST(PlanGenerator, StridedSearchDropsWholeMeshShapes) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  plan::PlanRequest request;
  request.elems = 1 << 16;
  request.model_parallel_stride = 4;
  const std::vector<plan::CollectivePlan> plans =
      plan::GeneratePlans(topo, request);
  EXPECT_EQ(plans.size(), 8u);  // ring 2-D variants only
  for (const plan::CollectivePlan& plan : plans) {
    EXPECT_TRUE(plan::ValidatePlan(topo, plan)) << plan.name();
    EXPECT_NE(plan.name().find("/s4"), std::string::npos) << plan.name();
  }
}

TEST(PlanSchedule, LoweringTracksOwnershipAndSharesSpecs) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(8, 4, true));
  plan::PlanRequest request;
  request.elems = 4096;
  const plan::CollectivePlan paper = plan::PaperPlan(request);
  const plan::LoweredPlan lowered =
      plan::LowerPlan(topo, paper, request.elems);

  ASSERT_EQ(lowered.stages.size(), 4u);
  EXPECT_STREQ(lowered.stages[0].name, "Y-reduce-scatter");
  EXPECT_STREQ(lowered.stages[1].name, "X-reduce-scatter");
  EXPECT_STREQ(lowered.stages[2].name, "X-all-gather");
  EXPECT_STREQ(lowered.stages[3].name, "Y-all-gather");
  EXPECT_EQ(lowered.update_after, 1);
  // Mirrored stages reuse the identical spec list.
  EXPECT_EQ(lowered.stages[0].specs, lowered.stages[3].specs);
  EXPECT_EQ(lowered.stages[1].specs, lowered.stages[2].specs);
  // 4096 elems over 4 (Y) then 8 (X) chips: every chip owns 128 at update.
  ASSERT_EQ(lowered.owned_elems.size(), 32u);
  for (const std::int64_t owned : lowered.owned_elems) {
    EXPECT_EQ(owned, 128);
  }
  EXPECT_EQ(lowered.max_owned_elems, 128);
}

// TwoDGradientSummation and ExecutePlan(PaperPlan) run the same lowering and
// stage runner, so their results must agree bitwise: same
// reduce/update/broadcast split, same five-phase breakdown, same monitored
// timings. This pins each front end's mapping of the runner's result.
void ExpectBitIdentical(const topo::TopologyConfig& config, int stride) {
  const std::int64_t elems = 1 << 20;
  auto update_cost = [](std::int64_t owned) { return owned * 1e-9; };
  const fault::HealthMonitorConfig monitor;

  Rig fixed(config);
  coll::GradientSummationConfig summation;
  summation.elems = elems;
  summation.collective.bfloat16_wire = true;  // match PaperPlan's wire format
  summation.model_parallel_stride = stride;
  summation.shard_update_seconds = update_cost;
  summation.deadline = monitor.ToPhaseDeadline();
  const coll::GradientSummationResult want =
      coll::TwoDGradientSummation(fixed.network, summation);

  Rig planned(config);
  plan::PlanRequest request;
  request.elems = elems;
  request.model_parallel_stride = stride;
  plan::PlanExecutionConfig exec_config;
  exec_config.shard_update_seconds = update_cost;
  exec_config.deadline = monitor.ToPhaseDeadline();
  const coll::GradientSummationResult got = plan::ExecutePlan(
      planned.network, plan::PaperPlan(request), elems, exec_config);

  EXPECT_EQ(got.reduce_seconds, want.reduce_seconds);
  EXPECT_EQ(got.update_seconds, want.update_seconds);
  EXPECT_EQ(got.broadcast_seconds, want.broadcast_seconds);
  EXPECT_EQ(got.total(), want.total());
  EXPECT_EQ(got.update_after, want.update_after);
  ASSERT_EQ(want.stages.size(), 4u);
  ASSERT_EQ(got.stages.size(), want.stages.size());
  for (std::size_t i = 0; i < want.stages.size(); ++i) {
    EXPECT_STREQ(got.stages[i].name, want.stages[i].name);
    EXPECT_EQ(got.stages[i].seconds, want.stages[i].seconds)
        << want.stages[i].name;
  }
  EXPECT_EQ(got.max_owned_elems, want.max_owned_elems);

  ASSERT_EQ(got.phases.size(), want.phases.size());
  for (std::size_t i = 0; i < want.phases.size(); ++i) {
    EXPECT_STREQ(got.phases[i].name, want.phases[i].name);
    EXPECT_EQ(got.phases[i].start, want.phases[i].start);
    EXPECT_EQ(got.phases[i].expected, want.phases[i].expected);
    EXPECT_EQ(got.phases[i].actual, want.phases[i].actual);
    EXPECT_EQ(got.phases[i].deadline, want.phases[i].deadline);
  }
  EXPECT_EQ(got.timed_out, want.timed_out);
}

TEST(PlanExecutor, BitIdenticalToFixedSchedule) {
  ExpectBitIdentical(topo::TopologyConfig::Slice(32, 16, true), 1);
}

TEST(PlanExecutor, BitIdenticalToFixedScheduleStrided) {
  ExpectBitIdentical(topo::TopologyConfig::Slice(32, 16, true), 4);
}

// Functional check: executing non-canonical plans with real buffers still
// produces the global sum on every chip.
TEST(PlanExecutor, AlternativePlansComputeTheGlobalSum) {
  const topo::TopologyConfig config = topo::TopologyConfig::Slice(8, 4, true);
  const std::int64_t elems = 96;
  const int num_chips = 32;

  auto make_plan = [](std::vector<plan::PlanPhase> phases) {
    plan::CollectivePlan plan;
    plan.phases = std::move(phases);
    plan.bfloat16_wire = false;  // exact float sums
    return plan;
  };
  std::vector<plan::CollectivePlan> plans;
  plans.push_back(make_plan(  // the reversed dimension order
      {{plan::PhaseKind::kReduceScatter, plan::PhaseAlgorithm::kRing,
        plan::PlanDim::kX},
       {plan::PhaseKind::kReduceScatter, plan::PhaseAlgorithm::kRing,
        plan::PlanDim::kY},
       {plan::PhaseKind::kAllGather, plan::PhaseAlgorithm::kRing,
        plan::PlanDim::kY},
       {plan::PhaseKind::kAllGather, plan::PhaseAlgorithm::kRing,
        plan::PlanDim::kX}}));
  plans.push_back(make_plan(  // flat snake ring
      {{plan::PhaseKind::kAllReduceInOne, plan::PhaseAlgorithm::kRing,
        plan::PlanDim::kFlat}}));
  plans.push_back(make_plan(  // halving-doubling both dims
      {{plan::PhaseKind::kReduceScatter,
        plan::PhaseAlgorithm::kHalvingDoubling, plan::PlanDim::kY},
       {plan::PhaseKind::kReduceScatter,
        plan::PhaseAlgorithm::kHalvingDoubling, plan::PlanDim::kX},
       {plan::PhaseKind::kAllGather, plan::PhaseAlgorithm::kHalvingDoubling,
        plan::PlanDim::kX},
       {plan::PhaseKind::kAllGather, plan::PhaseAlgorithm::kHalvingDoubling,
        plan::PlanDim::kY}}));
  plans.push_back(make_plan(  // naive all-reduce chain
      {{plan::PhaseKind::kAllReduceInOne, plan::PhaseAlgorithm::kRing,
        plan::PlanDim::kY},
       {plan::PhaseKind::kAllReduceInOne, plan::PhaseAlgorithm::kRing,
        plan::PlanDim::kX}}));

  for (const plan::CollectivePlan& candidate : plans) {
    Rig rig(config);
    std::vector<std::vector<float>> buffers(num_chips);
    std::vector<float*> pointers;
    std::vector<float> want(elems, 0.0f);
    for (int chip = 0; chip < num_chips; ++chip) {
      buffers[chip].resize(elems);
      for (std::int64_t e = 0; e < elems; ++e) {
        buffers[chip][e] = static_cast<float>((chip + 1) % 5 + e % 7);
        want[e] += buffers[chip][e];
      }
      pointers.push_back(buffers[chip].data());
    }
    plan::ExecutePlan(rig.network, candidate, elems, {}, pointers);
    for (int chip = 0; chip < num_chips; ++chip) {
      for (std::int64_t e = 0; e < elems; ++e) {
        ASSERT_EQ(buffers[chip][e], want[e])
            << candidate.name() << " chip " << chip << " elem " << e;
      }
    }
  }
}

// The headline acceptance test: on a healthy 4-pod multipod at BERT scale
// the search — seeing the paper's schedule only as one candidate among many
// — must rediscover it, and its predicted time must be the bitwise same
// number the fixed schedule reports (the DES pricing IS the execution).
TEST(Planner, RediscoversPaperScheduleOnHealthyMultipod) {
  const topo::TopologyConfig config = topo::TopologyConfig::Multipod(4);
  const std::int64_t elems = 340 * 1000 * 1000;  // BERT-scale payload
  const topo::MeshTopology topo(config);

  plan::PlanRequest request;
  request.elems = elems;
  request.des_top_k = 2;
  const plan::PlannerResult best =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request);
  EXPECT_EQ(best.plan.name(), "ring-2d[Y->X] bidir bf16");
  EXPECT_GT(best.candidates, 20);

  Rig fixed(config);
  coll::GradientSummationConfig summation;
  summation.elems = elems;
  summation.collective.bfloat16_wire = true;  // the paper's wire format
  const coll::GradientSummationResult want =
      coll::TwoDGradientSummation(fixed.network, summation);
  EXPECT_EQ(best.predicted_seconds, want.total());
}

TEST(Planner, SearchIsDeterministic) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  plan::PlanRequest request;
  request.elems = 1 << 22;
  const plan::PlannerResult a =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request);
  const plan::PlannerResult b =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.predicted_seconds, b.predicted_seconds);
  EXPECT_EQ(a.estimated_seconds, b.estimated_seconds);
}

TEST(Planner, CacheHitsSkipTheSearch) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  plan::PlanRequest request;
  request.elems = 1 << 20;
  plan::PlanCache cache;

  const plan::PlannerResult first =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request, {}, &cache);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 1u);

  const plan::PlannerResult second =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request, {}, &cache);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(second.plan, first.plan);
  EXPECT_EQ(second.predicted_seconds, first.predicted_seconds);
  EXPECT_EQ(second.estimated_seconds, first.estimated_seconds);
  EXPECT_EQ(second.des_runs, 0);

  // A changed health set changes the key: no stale reuse after a detection.
  plan::LinkHealthSet health;
  health.failed.push_back(0);
  const plan::PlannerResult degraded =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request, health, &cache);
  EXPECT_FALSE(degraded.from_cache);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(plan::PlanCacheKey(topo, request, health),
            plan::PlanCacheKey(topo, request, {}));
}

// The certified tier: on every generated candidate — rings, halving-doubling,
// flat, all-reduce chains, strided and chunk-pipelined plans — over uneven
// chunks, cross-pod links, a slowed row and a dead cable, the bound never
// exceeds the discrete-event price. This is also the test that runs every
// candidate on the simulator, pruned or not.
TEST(PlannerBound, NeverExceedsTheSimulatedPrice) {
  topo::TopologyConfig two_pods;
  two_pods.pod_size_x = 4;
  two_pods.pod_size_y = 4;
  two_pods.num_pods = 2;
  struct Case {
    const char* label;
    topo::TopologyConfig shape;
    std::int64_t elems;
    int stride;
    int max_chunks;
  };
  // 10007 elements split unevenly on every ring and group. 2^20 splits
  // evenly on the 4x4 slice, where the bound's sum matches the simulated
  // one term for term and only the rounding margin keeps it below.
  const Case cases[] = {
      {"12x6 slice", topo::TopologyConfig::Slice(12, 6, true), 10007, 1, 1},
      {"two 4x4 pods", two_pods, 10007, 1, 4},
      {"8x8 slice, stride 2", topo::TopologyConfig::Slice(8, 8, true), 10007,
       2, 4},
      {"4x4 slice, even chunks", topo::TopologyConfig::Slice(4, 4, true),
       1 << 20, 1, 1},
  };
  const net::NetworkConfig config;
  for (const Case& c : cases) {
    const topo::MeshTopology topo(c.shape);
    plan::PlanRequest request;
    request.elems = c.elems;
    request.model_parallel_stride = c.stride;
    request.max_chunks = c.max_chunks;
    const plan::LinkHealthSet healths[] = {
        {}, SlowRow(topo, 1, 4.0), DeadYCable(topo, 1, 2)};
    for (const plan::LinkHealthSet& health : healths) {
      for (const plan::CollectivePlan& candidate :
           plan::GeneratePlans(topo, request)) {
        SCOPED_TRACE(std::string(c.label) + " " + candidate.name() +
                     health.CacheKeyFragment());
        const SimTime bound = plan::LowerBoundPlanSeconds(
            topo, config, health,
            plan::LowerPlan(topo, candidate, request.elems));
        const SimTime simulated = plan::EvaluatePlanOnSimulator(
            topo, config, health, candidate, request.elems);
        EXPECT_LE(bound, simulated);
        if (candidate.chunks == 1) {
          EXPECT_GT(bound, 0.0);
        }
      }
    }
  }
}

// FindBestPlan without pruning: estimate every candidate, DES-price the
// whole shortlist and reduce by (time, name). des_runs counts the
// shortlisted plans whose bound does not exceed the lowest-bound plan's
// price — those the pruned walk must run.
plan::PlannerResult ExhaustiveSearch(const topo::MeshTopology& topo,
                                     const plan::PlanRequest& request,
                                     const plan::LinkHealthSet& health) {
  const net::NetworkConfig config;
  struct Scored {
    SimTime estimate;
    std::string name;
    plan::CollectivePlan plan;
    SimTime bound;
  };
  std::vector<Scored> scored;
  for (const plan::CollectivePlan& candidate :
       plan::GeneratePlans(topo, request)) {
    const plan::LoweredPlan lowered =
        plan::LowerPlan(topo, candidate, request.elems);
    scored.push_back(
        {plan::EstimatePlanSeconds(topo, config, health, lowered),
         candidate.name(), candidate,
         plan::LowerBoundPlanSeconds(topo, config, health, lowered)});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.estimate != b.estimate ? a.estimate < b.estimate
                                    : a.name < b.name;
  });
  const int top_k =
      std::min<int>(std::max(request.des_top_k, 1), scored.size());
  plan::PlannerResult result;
  result.candidates = static_cast<int>(scored.size());
  result.evaluated = top_k;
  std::vector<SimTime> seconds;
  int first = 0;
  for (int i = 0; i < top_k; ++i) {
    seconds.push_back(plan::EvaluatePlanOnSimulator(
        topo, config, health, scored[i].plan, request.elems));
    if (scored[i].bound < scored[first].bound) first = i;
    if (i == 0 || seconds[i] < result.predicted_seconds ||
        (seconds[i] == result.predicted_seconds &&
         scored[i].name < result.plan.name())) {
      result.plan = scored[i].plan;
      result.predicted_seconds = seconds[i];
      result.estimated_seconds = scored[i].estimate;
    }
  }
  for (int i = 0; i < top_k; ++i) {
    result.des_runs += scored[i].bound <= seconds[first] ? 1 : 0;
  }
  return result;
}

// Every field but the pruning counters, which the reference cannot have.
void ExpectSameSearch(const plan::PlannerResult& got,
                      const plan::PlannerResult& want) {
  EXPECT_EQ(got.plan, want.plan);
  EXPECT_EQ(got.predicted_seconds, want.predicted_seconds);
  EXPECT_EQ(got.estimated_seconds, want.estimated_seconds);
  EXPECT_EQ(got.from_cache, want.from_cache);
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.evaluated, want.evaluated);
  EXPECT_EQ(got.des_runs, want.des_runs);
  EXPECT_GE(got.estimates, got.evaluated);
  EXPECT_LE(got.estimates, got.candidates);
}

TEST(PlannerBound, PrunedSearchEqualsExhaustiveShortlist) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  const plan::LinkHealthSet healths[] = {
      {}, SlowRow(topo, 3, 4.0), DeadYCable(topo, 5, 3)};
  for (const plan::LinkHealthSet& health : healths) {
    for (const int top_k : {1, 3, 8, 24}) {
      SCOPED_TRACE("des_top_k=" + std::to_string(top_k) +
                   health.CacheKeyFragment());
      plan::PlanRequest request;
      request.elems = (1 << 20) + 3;
      request.des_top_k = top_k;
      const plan::PlannerResult want = ExhaustiveSearch(topo, request, health);
      const plan::PlannerResult got =
          plan::FindBestPlan(topo, net::NetworkConfig{}, request, health);
      ExpectSameSearch(got, want);
      EXPECT_EQ(got.evaluated, std::min(top_k, got.candidates));
      EXPECT_GE(got.des_runs, 1);
      EXPECT_LE(got.des_runs, got.evaluated);
    }
  }
}

// Seeded meshes for the differential tests: square and non-square, one to
// three pods, torus and open Y, X strided over model-parallel peers, and
// chunk-pipelined candidates.
struct SeededMesh {
  topo::TopologyConfig shape;
  plan::PlanRequest request;
};

std::vector<SeededMesh> SeededMeshes(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<SeededMesh> meshes;
  for (int i = 0; i < count; ++i) {
    SeededMesh mesh;
    if (i % 2 == 0) {  // one square pod: 2x2 .. 8x8
      mesh.shape.pod_size_x = 2 + 2 * static_cast<int>(rng.NextBounded(4));
      mesh.shape.pod_size_y = mesh.shape.pod_size_x;
      mesh.shape.num_pods = 1;
    } else {  // one to three pods side by side
      mesh.shape.pod_size_x = 2 + 2 * static_cast<int>(rng.NextBounded(2));
      mesh.shape.pod_size_y = 2 + static_cast<int>(rng.NextBounded(7));
      mesh.shape.num_pods = 1 + static_cast<int>(rng.NextBounded(3));
    }
    mesh.shape.wrap_y = rng.NextBounded(2) == 0;
    mesh.request.elems =
        1000 + static_cast<std::int64_t>(rng.NextBounded(50000));
    mesh.request.model_parallel_stride = rng.NextBounded(3) == 0 ? 2 : 1;
    mesh.request.max_chunks = rng.NextBounded(2) == 0 ? 1 : 4;
    meshes.push_back(mesh);
  }
  return meshes;
}

// `links` distinct link ids of `topo`, ascending.
std::vector<topo::LinkId> SeededLinks(const topo::MeshTopology& topo, Rng& rng,
                                      int links) {
  std::set<topo::LinkId> picked;
  while (static_cast<int>(picked.size()) < links) {
    picked.insert(static_cast<topo::LinkId>(rng.NextBounded(topo.links().size())));
  }
  return {picked.begin(), picked.end()};
}

// Empty, failed-only, degraded-only, mixed, and degraded by exactly 1.0.
std::vector<plan::LinkHealthSet> SeededHealthSets(const topo::MeshTopology& topo,
                                                  Rng& rng) {
  const double factors[] = {1.5, 2.0, 4.0, 1024.0};
  std::vector<plan::LinkHealthSet> healths(5);
  healths[1].failed = SeededLinks(topo, rng, 1 + rng.NextBounded(3));
  for (const topo::LinkId link : SeededLinks(topo, rng, 1 + rng.NextBounded(3))) {
    healths[2].degraded.emplace_back(link, factors[rng.NextBounded(4)]);
  }
  const std::vector<topo::LinkId> mixed = SeededLinks(topo, rng, 4);
  for (const topo::LinkId link : mixed) {
    if (rng.NextBounded(2) == 0) {
      healths[3].failed.push_back(link);
    } else {
      healths[3].degraded.emplace_back(link, factors[rng.NextBounded(4)]);
    }
  }
  for (const topo::LinkId link : SeededLinks(topo, rng, 2)) {
    healths[4].degraded.emplace_back(link, 1.0);
  }
  return healths;
}

// The fault-local re-pricer against the full estimate, bit for bit, on every
// candidate of every seeded mesh under every seeded health set; and the
// partial estimate the search orders by never exceeds the estimate.
TEST(PlanRepricer, MatchesTheFullEstimateOnSeededMeshesAndHealthSets) {
  const net::NetworkConfig config;
  int meshes = 0;
  for (const SeededMesh& mesh : SeededMeshes(17, 12)) {
    const topo::MeshTopology topo(mesh.shape);
    Rng rng(1000 + meshes++);
    const std::vector<plan::LinkHealthSet> healths =
        SeededHealthSets(topo, rng);
    for (const plan::CollectivePlan& candidate :
         plan::GeneratePlans(topo, mesh.request)) {
      const plan::LoweredPlan lowered =
          plan::LowerPlan(topo, candidate, mesh.request.elems);
      const plan::PlanRepricer repricer(topo, config, lowered);
      EXPECT_EQ(repricer.healthy_seconds(),
                plan::EstimatePlanSeconds(topo, config, {}, lowered));
      for (const plan::LinkHealthSet& health : healths) {
        SCOPED_TRACE(std::to_string(topo.size_x()) + "x" +
                     std::to_string(topo.size_y()) + " " + candidate.name() +
                     health.CacheKeyFragment());
        const SimTime estimate =
            plan::EstimatePlanSeconds(topo, config, health, lowered);
        EXPECT_EQ(repricer.Seconds(health), estimate);
        const SimTime partial =
            plan::PartialEstimateSeconds(topo, config, health, lowered);
        EXPECT_LE(partial, estimate);
        if (candidate.chunks > 1) {
          EXPECT_EQ(partial, 0.0);
        }
      }
    }
  }
}

// Every single-link failure of two small meshes, so every link a group's
// routes cross is exercised through the repricer's index.
TEST(PlanRepricer, MatchesTheFullEstimateUnderEverySingleLinkFailure) {
  const net::NetworkConfig config;
  topo::TopologyConfig three_pods;
  three_pods.pod_size_x = 2;
  three_pods.pod_size_y = 4;
  three_pods.num_pods = 3;
  for (const topo::TopologyConfig& shape :
       {three_pods, topo::TopologyConfig::Slice(4, 4, false)}) {
    const topo::MeshTopology topo(shape);
    plan::PlanRequest request;
    request.elems = 4099;
    for (const plan::CollectivePlan& candidate :
         plan::GeneratePlans(topo, request)) {
      const plan::LoweredPlan lowered =
          plan::LowerPlan(topo, candidate, request.elems);
      const plan::PlanRepricer repricer(topo, config, lowered);
      for (const topo::Link& link : topo.links()) {
        plan::LinkHealthSet health;
        health.failed.push_back(link.id);
        EXPECT_EQ(repricer.Seconds(health),
                  plan::EstimatePlanSeconds(topo, config, health, lowered))
            << candidate.name() << " link " << link.id;
      }
    }
  }
}

// The pruned closed-form tier against the exhaustive reference at every
// shortlist size on seeded meshes and health sets. The square meshes have
// identical X and Y links, so mirrored plans (Y->X and X->Y) tie exactly on
// estimate and the shortlist's edge falls between equal estimates.
TEST(PlannerBound, PrunedEstimatesEqualExhaustiveOnSeededMeshes) {
  const net::NetworkConfig config;
  int ties = 0;
  int mesh_index = 0;
  for (const SeededMesh& mesh : SeededMeshes(29, 4)) {
    const topo::MeshTopology topo(mesh.shape);
    Rng rng(2000 + mesh_index++);
    const std::vector<plan::LinkHealthSet> healths =
        SeededHealthSets(topo, rng);
    for (const plan::LinkHealthSet& health : {healths[0], healths[3]}) {
      std::vector<SimTime> estimates;
      for (const plan::CollectivePlan& candidate :
           plan::GeneratePlans(topo, mesh.request)) {
        estimates.push_back(plan::EstimatePlanSeconds(
            topo, config, health,
            plan::LowerPlan(topo, candidate, mesh.request.elems)));
      }
      std::sort(estimates.begin(), estimates.end());
      for (std::size_t i = 1; i < estimates.size(); ++i) {
        ties += estimates[i] == estimates[i - 1] ? 1 : 0;
      }
      for (int top_k = 1; top_k <= static_cast<int>(estimates.size());
           top_k += 3) {
        SCOPED_TRACE(std::to_string(topo.size_x()) + "x" +
                     std::to_string(topo.size_y()) + " des_top_k=" +
                     std::to_string(top_k) + health.CacheKeyFragment());
        plan::PlanRequest request = mesh.request;
        request.des_top_k = top_k;
        ExpectSameSearch(plan::FindBestPlan(topo, config, request, health),
                         ExhaustiveSearch(topo, request, health));
      }
    }
  }
  EXPECT_GT(ties, 0);
}

TEST(PlannerBound, HealthyPaperPlanWinsOnOneSimulation) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  plan::PlanRequest request;
  request.elems = 1 << 22;
  const plan::PlannerResult best =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request);
  EXPECT_EQ(best.plan, plan::PaperPlan(request));
  EXPECT_EQ(best.evaluated, 3);
  EXPECT_EQ(best.des_runs, 1);
}

// The pruning walk on synthetic prices: it must price exactly the
// candidates whose bound does not exceed the first price, and pick the same
// candidate as pricing everything would.
TEST(PlannerBound, ShortlistWalkPricesOnlyCandidatesThatCanWin) {
  struct Case {
    const char* label;
    std::vector<SimTime> bounds;
    std::vector<std::string> names;
    std::vector<SimTime> prices;
    int want_index;
    std::vector<int> want_priced;
  };
  const Case cases[] = {
      {"single", {1.0}, {"a"}, {1.5}, 0, {0}},
      {"skips the hopeless", {1.0, 5.0, 2.0}, {"a", "b", "c"},
       {3.0, 6.0, 2.5}, 2, {0, 2}},
      // The smaller name has the larger bound, equal to the first price: it
      // must still run, and win the exact tie.
      {"tie at the bound", {1.0, 2.0}, {"b", "a"}, {2.0, 2.0}, 1, {0, 1}},
      {"lowest bound first", {4.0, 0.5, 3.0, 9.0}, {"w", "x", "y", "z"},
       {4.0, 3.5, 3.5, 9.0}, 1, {1, 2}},
      {"equal bounds", {2.0, 2.0, 2.0}, {"c", "b", "a"},
       {3.0, 3.0, 3.0}, 2, {0, 1, 2}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    std::vector<int> calls(c.bounds.size(), 0);
    const plan::ShortlistPick pick =
        plan::PriceShortlist(c.bounds, c.names, [&](int i) {
          ++calls[i];
          return c.prices[i];
        });
    EXPECT_EQ(pick.index, c.want_index);
    EXPECT_EQ(pick.seconds, c.prices[c.want_index]);
    EXPECT_EQ(pick.des_runs, static_cast<int>(c.want_priced.size()));
    std::vector<int> priced;
    for (int i = 0; i < static_cast<int>(calls.size()); ++i) {
      EXPECT_LE(calls[i], 1);
      if (calls[i] == 1) priced.push_back(i);
    }
    EXPECT_EQ(priced, c.want_priced);
  }
}

// On the 1024-chip multipod at the BERT payload, the first group of each
// stage prices the stage closely enough that the walk estimates only a few
// candidates and never a halving-doubling one (their estimates are over 10x
// the shortlist's edge).
TEST(PlannerBound, PartialEstimatesSkipHalvingDoublingAtScale) {
  const topo::MeshTopology topo(core::TopologyForChips(1024));
  const net::NetworkConfig config;
  plan::PlanRequest request;
  request.elems = models::GetModelSpec(models::Benchmark::kBert).parameters;
  for (const plan::LinkHealthSet& health :
       {plan::LinkHealthSet{}, SlowRow(topo, 5, 4.0)}) {
    SCOPED_TRACE(health.CacheKeyFragment());
    const std::vector<plan::CollectivePlan> candidates =
        plan::GeneratePlans(topo, request);
    std::vector<plan::LoweredPlan> lowered;
    std::vector<SimTime> partials;
    std::vector<std::string> names;
    for (const plan::CollectivePlan& candidate : candidates) {
      lowered.push_back(plan::LowerPlan(topo, candidate, request.elems));
      partials.push_back(
          plan::PartialEstimateSeconds(topo, config, health, lowered.back()));
      names.push_back(candidate.name());
    }
    std::vector<std::string> estimated;
    plan::ShortlistByEstimate(
        partials, names,
        [&](int i) {
          estimated.push_back(names[i]);
          return plan::EstimatePlanSeconds(topo, config, health, lowered[i]);
        },
        request.des_top_k);
    ASSERT_GE(estimated.size(), 3u);
    EXPECT_LT(estimated.size(), candidates.size() / 2);
    for (const std::string& name : estimated) {
      EXPECT_EQ(name.rfind("hd-", 0), std::string::npos) << name;
    }
    const plan::PlannerResult result =
        plan::FindBestPlan(topo, config, request, health);
    EXPECT_EQ(result.estimates, static_cast<int>(estimated.size()));
    EXPECT_EQ(result.plan, plan::PaperPlan(request));
  }
}

// The closed-form walk on synthetic partials and estimates with forced
// ties: it must estimate exactly the candidates whose partial does not
// exceed the shortlist's edge when reached, and return the same shortlist as
// estimating everything.
TEST(PlannerBound, EstimateWalkEstimatesOnlyCandidatesThatCanMakeTheShortlist) {
  struct Case {
    const char* label;
    std::vector<SimTime> partials;
    std::vector<std::string> names;
    std::vector<SimTime> estimates;
    int top_k;
    std::vector<int> want_shortlist;
    std::vector<int> want_estimated;
  };
  const Case cases[] = {
      {"single", {1.0}, {"a"}, {1.5}, 1, {0}, {0}},
      {"stops past the edge", {1.0, 5.0, 2.0}, {"a", "b", "c"},
       {3.0, 6.0, 2.5}, 1, {2}, {0, 2}},
      // The smaller name has the larger partial, equal to the edge's
      // estimate and to its own: it must still be estimated, and enter.
      {"equal partial at the edge", {1.0, 2.0}, {"b", "a"}, {2.0, 2.0}, 1,
       {1}, {0, 1}},
      {"tied estimates order by name", {0.5, 0.5, 0.5}, {"c", "b", "a"},
       {3.0, 3.0, 3.0}, 2, {2, 1}, {0, 1, 2}},
      {"tie one past the edge", {1.0, 1.0, 3.0, 4.0}, {"w", "x", "y", "z"},
       {3.0, 2.0, 3.0, 9.0}, 2, {1, 0}, {0, 1, 2}},
      {"top k beyond the candidates", {2.0, 1.0}, {"a", "b"}, {4.0, 1.0}, 5,
       {1, 0}, {0, 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    std::vector<int> calls(c.partials.size(), 0);
    const plan::EstimateShortlist shortlist = plan::ShortlistByEstimate(
        c.partials, c.names,
        [&](int i) {
          ++calls[i];
          return c.estimates[i];
        },
        c.top_k);
    EXPECT_EQ(shortlist.indices, c.want_shortlist);
    std::vector<SimTime> want_estimates;
    for (const int i : c.want_shortlist) want_estimates.push_back(c.estimates[i]);
    EXPECT_EQ(shortlist.estimates, want_estimates);
    EXPECT_EQ(shortlist.estimated, static_cast<int>(c.want_estimated.size()));
    std::vector<int> estimated;
    for (int i = 0; i < static_cast<int>(calls.size()); ++i) {
      EXPECT_LE(calls[i], 1);
      if (calls[i] == 1) estimated.push_back(i);
    }
    EXPECT_EQ(estimated, c.want_estimated);
  }
}

// Chunk-pipelined plans carry no bound, so they survive the first price:
// the search simulates several of them, and a repeat matches exactly, run
// count included.
TEST(PlannerBound, ChunkedPlansSurviveTheFirstPrice) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(8, 8, true));
  plan::PlanRequest request;
  request.elems = 1 << 16;
  request.max_chunks = 4;
  request.des_top_k = 8;
  const plan::PlannerResult first =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request);
  const plan::PlannerResult repeat =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request);
  EXPECT_GE(first.des_runs, 3);
  EXPECT_EQ(repeat.des_runs, first.des_runs);
  EXPECT_EQ(repeat.plan, first.plan);
  EXPECT_EQ(repeat.predicted_seconds, first.predicted_seconds);
  EXPECT_EQ(repeat.estimated_seconds, first.estimated_seconds);
}

TEST(Planner, EstimatorPricesFailedLinksIntoTheRanking) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  plan::PlanRequest request;
  request.elems = 1 << 20;
  const plan::CollectivePlan paper = plan::PaperPlan(request);
  const plan::LoweredPlan lowered =
      plan::LowerPlan(topo, paper, request.elems);

  const SimTime healthy = plan::EstimatePlanSeconds(
      topo, net::NetworkConfig{}, {}, lowered);
  plan::LinkHealthSet health;
  health.failed.push_back(topo.LinkBetween(topo.ChipAt({5, 3}),
                                           topo.ChipAt({5, 4})));
  const SimTime failed = plan::EstimatePlanSeconds(
      topo, net::NetworkConfig{}, health, lowered);
  EXPECT_LT(healthy, Seconds(1.0));
  EXPECT_GT(failed, net::Network::kFailedLinkStall);
}

// A dead Y-torus link in the middle of the mesh stalls every 2-D schedule
// (all of them run a ring or exchange through that column) but not the flat
// snake ring, which only turns at the mesh edges. The monitored execution
// must detect the stall, re-plan under the observed health, pick the flat
// ring, and beat the stalled fixed schedule by orders of magnitude.
TEST(Planner, ReplansAroundADeadLink) {
  const topo::TopologyConfig config = topo::TopologyConfig::Slice(16, 8, true);
  const std::int64_t elems = 1 << 20;
  Rig rig(config);
  rig.network.FailLink(rig.topo.LinkBetween(rig.topo.ChipAt({5, 3}),
                                            rig.topo.ChipAt({5, 4})));
  rig.network.FailLink(rig.topo.LinkBetween(rig.topo.ChipAt({5, 4}),
                                            rig.topo.ChipAt({5, 3})));

  plan::PlanRequest request;
  request.elems = elems;
  plan::PlanCache cache;
  fault::HealthMonitor monitor;
  const plan::MitigatedSummation outcome = plan::ExecuteWithReplanning(
      rig.network, request, plan::PaperPlan(request), monitor, &cache);

  EXPECT_TRUE(outcome.first.timed_out);
  EXPECT_GT(outcome.first.total(), Seconds(3600.0));
  ASSERT_TRUE(outcome.replanned);
  EXPECT_GE(outcome.detected_at, 0.0);
  EXPECT_EQ(outcome.replan.plan.name(), "ring-flat bidir bf16");
  EXPECT_FALSE(outcome.second.timed_out);
  EXPECT_LT(outcome.second.total(), Seconds(1.0));
  EXPECT_LT(outcome.second.total() * 1000, outcome.first.total());
  EXPECT_GT(monitor.stats().detections, 0);
}

// SystemOptions::collective_planner: on a healthy machine the planned step
// matches the fixed-schedule step exactly, and the second step hits the
// plan cache instead of searching again.
TEST(Planner, MultipodSystemPlannerModeMatchesFixedSchedule) {
  const models::ModelSpec& spec =
      models::GetModelSpec(models::Benchmark::kBert);
  const std::int64_t batch = 4096;

  core::SystemOptions fixed_options;
  core::MultipodSystem fixed(512, fixed_options);
  const core::StepBreakdown want = fixed.SimulateStep(spec, batch, 1);

  core::SystemOptions planned_options;
  planned_options.collective_planner = true;
  core::MultipodSystem planned(512, planned_options);
  const core::StepBreakdown got = planned.SimulateStep(spec, batch, 1);

  EXPECT_EQ(got.allreduce, want.allreduce);
  EXPECT_EQ(got.weight_update, want.weight_update);
  EXPECT_EQ(got.step(), want.step());
  EXPECT_EQ(planned.plan_cache().misses(), 1);

  planned.SimulateStep(spec, batch, 1);
  EXPECT_EQ(planned.plan_cache().hits(), 1);
  EXPECT_EQ(planned.plan_cache().misses(), 1);
}

// A cached search still reports the winner's closed-form estimate, so every
// observed planner-mode step exports the same provenance.
TEST(Planner, CachedPlannerModeStepsReportTheEstimate) {
  const models::ModelSpec& spec =
      models::GetModelSpec(models::Benchmark::kBert);
  core::SystemOptions options;
  options.collective_planner = true;
  core::MultipodSystem system(topo::TopologyConfig::Slice(16, 8, true),
                              options);
  trace::RunReport first, second;
  system.SimulateStep(spec, 1024, 1, nullptr, nullptr, &first);
  system.SimulateStep(spec, 1024, 1, nullptr, nullptr, &second);
  EXPECT_EQ(system.plan_cache().hits(), 1);
  EXPECT_GT(first.plan_estimated_seconds, 0.0);
  EXPECT_EQ(second.plan_estimated_seconds, first.plan_estimated_seconds);
  EXPECT_EQ(second.plan_predicted_seconds, first.plan_predicted_seconds);
}

TEST(Planner, HealthyExecutionDoesNotReplan) {
  const topo::TopologyConfig config = topo::TopologyConfig::Slice(16, 8, true);
  Rig rig(config);
  plan::PlanRequest request;
  request.elems = 1 << 20;
  fault::HealthMonitor monitor;
  const plan::MitigatedSummation outcome = plan::ExecuteWithReplanning(
      rig.network, request, plan::PaperPlan(request), monitor);
  EXPECT_FALSE(outcome.first.timed_out);
  EXPECT_FALSE(outcome.replanned);
  EXPECT_EQ(monitor.stats().phases_observed, 4);
  EXPECT_EQ(monitor.stats().false_positives, 0);
}

}  // namespace
}  // namespace tpu
