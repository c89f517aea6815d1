// The event-free ring pricer against the discrete-event simulation it
// replaces: for every generated candidate it prices, on multipods, slices
// with and without the Y wrap and 2-long dimensions, at strides 1, 2 and 4,
// over BERT-sized, tiny (fewer elements than ring ranks) and prime payloads,
// under failed, degraded, doubly degraded and slowed-row health sets, the
// price must equal ExecutePlan's total() on a fresh network bit for bit,
// and with a sharded-update hook the pricer's timeline and summary must
// equal RunLoweredPlan's in every field.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/multipod.h"
#include "network/network.h"
#include "plan/cost.h"
#include "plan/executor.h"
#include "plan/generator.h"
#include "plan/plan_ir.h"
#include "plan/ring_pricer.h"
#include "plan/schedule.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace tpu {
namespace {

constexpr std::int64_t kBertElems = 340 * 1000 * 1000;

SimTime Simulated(const topo::MeshTopology& topo,
                  const net::NetworkConfig& config,
                  const plan::LinkHealthSet& health,
                  const plan::CollectivePlan& plan, std::int64_t elems) {
  sim::Simulator simulator;
  net::Network network(&topo, config, &simulator);
  health.ApplyTo(network);
  return plan::ExecutePlan(network, plan, elems).total();
}

// A sharded update whose seconds vary with the chip's owned elements, so
// chips finish at different times and the barrier must take the latest.
SimTime UpdateSeconds(std::int64_t owned_elems) {
  return 1e-9 * static_cast<double>(owned_elems) +
         3e-7 * static_cast<double>(owned_elems % 7);
}

std::uint64_t Bits(SimTime t) { return std::bit_cast<std::uint64_t>(t); }

// RunLoweredPlan's result and timeline under the update hook on a fresh
// network, against the pricer's, field by field and bit for bit.
void ExpectPricedRunMatchesSimulation(const topo::MeshTopology& topo,
                                      const net::NetworkConfig& config,
                                      const plan::LinkHealthSet& health,
                                      const plan::LoweredPlan& lowered) {
  plan::PlanExecutionConfig exec;
  exec.shard_update_seconds = UpdateSeconds;
  sim::Simulator simulator;
  net::Network network(&topo, config, &simulator);
  health.ApplyTo(network);
  plan::StageTimeline want_timeline;
  const coll::GradientSummationResult want =
      plan::RunLoweredPlan(network, lowered, exec, &want_timeline);
  sim::Simulator idle_simulator;
  net::Network idle(&topo, config, &idle_simulator);
  health.ApplyTo(idle);
  const plan::StageTimeline timeline = plan::PriceRingPlan(idle, lowered, exec);
  const coll::GradientSummationResult got =
      plan::SummarizeTimeline(lowered, timeline);

  EXPECT_EQ(Bits(timeline.start), Bits(want_timeline.start));
  ASSERT_EQ(timeline.stage_end.size(), want_timeline.stage_end.size());
  for (std::size_t i = 0; i < timeline.stage_end.size(); ++i) {
    EXPECT_EQ(Bits(timeline.stage_end[i]), Bits(want_timeline.stage_end[i]))
        << "stage " << i;
  }
  EXPECT_EQ(Bits(timeline.update_end), Bits(want_timeline.update_end));
  EXPECT_EQ(Bits(got.reduce_seconds), Bits(want.reduce_seconds));
  EXPECT_EQ(Bits(got.update_seconds), Bits(want.update_seconds));
  EXPECT_EQ(Bits(got.broadcast_seconds), Bits(want.broadcast_seconds));
  EXPECT_EQ(got.max_owned_elems, want.max_owned_elems);
  EXPECT_EQ(got.update_after, want.update_after);
  ASSERT_EQ(got.stages.size(), want.stages.size());
  for (std::size_t i = 0; i < got.stages.size(); ++i) {
    EXPECT_STREQ(got.stages[i].name, want.stages[i].name);
    EXPECT_EQ(Bits(got.stages[i].seconds), Bits(want.stages[i].seconds))
        << want.stages[i].name;
  }
}

bool IsXLink(const topo::Link& link) {
  return link.type == topo::LinkType::kMeshX ||
         link.type == topo::LinkType::kCrossPodX;
}

// The first link of `topo` matching `pred`.
template <typename Pred>
topo::LinkId FirstLink(const topo::MeshTopology& topo, Pred pred) {
  for (const topo::Link& link : topo.links()) {
    if (pred(link)) return link.id;
  }
  ADD_FAILURE() << "no such link";
  return 0;
}

// Healthy; a failed Y link; every X link of row 1 slowed 3x plus one Y
// link 1.5x; a failed X link and an X link degraded by 1.0; one X link
// degraded twice (the worse factor holds).
std::vector<plan::LinkHealthSet> HealthSets(const topo::MeshTopology& topo) {
  const topo::LinkId y_link = FirstLink(topo, [&](const topo::Link& link) {
    return !IsXLink(link) && topo.CoordOf(link.from).x == 1;
  });
  const topo::LinkId x_link = FirstLink(topo, [&](const topo::Link& link) {
    return IsXLink(link) && topo.CoordOf(link.from).x == 1;
  });
  const topo::LinkId x_back = FirstLink(topo, [&](const topo::Link& link) {
    return IsXLink(link) && topo.CoordOf(link.to).x == 1;
  });
  std::vector<plan::LinkHealthSet> healths(5);
  healths[1].failed = {y_link};
  for (const topo::Link& link : topo.links()) {
    if (IsXLink(link) && topo.CoordOf(link.from).y == 1) {
      healths[2].degraded.emplace_back(link.id, 3.0);
    }
  }
  healths[2].degraded.emplace_back(y_link, 1.5);
  healths[3].failed = {x_link};
  healths[3].degraded = {{x_back, 1.0}};
  healths[4].degraded = {{x_link, 2.0}, {x_link, 4.0}};
  return healths;
}

// A network whose bandwidths and latencies are powers of two, so every
// simulated time is exact and unequal routes often tie: passes whose steps
// end at one instant must then issue in the simulator's barrier order.
net::NetworkConfig DyadicConfig() {
  net::NetworkConfig config;
  config.mesh_x = {0x1p30, 0x1p-21};
  config.cross_pod_x = {0x1p30, 0x1p-19};
  config.mesh_y = {0x1p30, 0x1p-21};
  config.wrap_y = {0x1p30, 0x1p-20};
  config.message_overhead = 0x1p-20;
  return config;
}

struct Case {
  std::string label;
  topo::TopologyConfig shape;
  std::vector<int> strides;
  std::vector<std::int64_t> payloads;
};

// Prices every candidate of every case under the first `health_sets`
// health sets and checks it against the simulation:
// EvaluatePlanOnSimulator (the ring pricer where it applies, the simulator
// on the rest) on all, or with `ring_only` on those the ring pricer prices,
// and on ring-priced plans the full result under a non-uniform update hook.
// Returns how many (candidate, health set) pairs the ring pricer priced.
int ExpectPricesMatchSimulation(const std::vector<Case>& cases,
                                const net::NetworkConfig& config,
                                int max_chunks, int health_sets = 5,
                                bool ring_only = false) {
  int priced = 0;
  for (const Case& c : cases) {
    const topo::MeshTopology topo(c.shape);
    std::vector<plan::LinkHealthSet> healths = HealthSets(topo);
    healths.resize(health_sets);
    for (const int stride : c.strides) {
      for (const std::int64_t elems : c.payloads) {
        plan::PlanRequest request;
        request.elems = elems;
        request.model_parallel_stride = stride;
        request.max_chunks = max_chunks;
        for (const plan::CollectivePlan& candidate :
             plan::GeneratePlans(topo, request)) {
          const plan::LoweredPlan lowered =
              plan::LowerPlan(topo, candidate, elems);
          if (ring_only && !plan::RingPricerApplies(lowered)) continue;
          for (const plan::LinkHealthSet& health : healths) {
            SCOPED_TRACE(c.label + " s" + std::to_string(stride) + " e" +
                         std::to_string(elems) + " " + candidate.name() +
                         health.CacheKeyFragment());
            EXPECT_EQ(Bits(plan::EvaluatePlanOnSimulator(topo, config, health,
                                                         lowered)),
                      Bits(Simulated(topo, config, health, candidate, elems)));
            if (!plan::RingPricerApplies(lowered)) continue;
            ++priced;
            ExpectPricedRunMatchesSimulation(topo, config, health, lowered);
          }
        }
      }
    }
  }
  return priced;
}

TEST(RingPricer, MatchesTheSimulationOnSmallMeshes) {
  topo::TopologyConfig three_pods;  // cross-pod X links, 12 x 4
  three_pods.pod_size_x = 4;
  three_pods.pod_size_y = 4;
  three_pods.num_pods = 3;
  topo::TopologyConfig two_narrow_pods;  // 2-long pods, open Y
  two_narrow_pods.pod_size_x = 2;
  two_narrow_pods.pod_size_y = 6;
  two_narrow_pods.num_pods = 2;
  two_narrow_pods.wrap_y = false;
  // 3 elements: fewer than ring ranks, so chunks and direction halves come
  // out empty; 10007 is prime.
  const std::vector<std::int64_t> payloads = {kBertElems, 3, 10007};
  const std::vector<Case> cases = {
      {"16x8 wrap", topo::TopologyConfig::Slice(16, 8, true), {1, 2, 4},
       payloads},
      {"16x8 open", topo::TopologyConfig::Slice(16, 8, false), {1, 2, 4},
       payloads},
      {"3 pods", three_pods, {1, 2, 4}, payloads},
      {"2 narrow pods", two_narrow_pods, {1, 2}, payloads},
      {"2x8", topo::TopologyConfig::Slice(2, 8, true), {1, 2}, payloads},
      {"8x2", topo::TopologyConfig::Slice(8, 2, false), {1, 2}, payloads},
  };
  EXPECT_GT(ExpectPricesMatchSimulation(cases, net::NetworkConfig{}, 4),
            1000);
}

TEST(RingPricer, MatchesTheSimulationWhenStepsTie) {
  topo::TopologyConfig two_pods;
  two_pods.pod_size_x = 4;
  two_pods.pod_size_y = 4;
  two_pods.num_pods = 2;
  const std::vector<std::int64_t> payloads = {1 << 20, 3, 11, 1009};
  const std::vector<Case> cases = {
      {"8x4 wrap", topo::TopologyConfig::Slice(8, 4, true), {1, 2, 4},
       payloads},
      {"12x4 open", topo::TopologyConfig::Slice(12, 4, false), {1, 2, 3, 4},
       payloads},
      {"2 pods", two_pods, {1, 2}, payloads},
  };
  EXPECT_GT(ExpectPricesMatchSimulation(cases, DyadicConfig(), 1), 100);
}

// The 2048-chip multipod TopologyForChips builds: two 32x32 pods joined by
// cross-pod X links, at the BERT payload, healthy, with a failed Y link and
// with a slowed row.
TEST(RingPricer, MatchesTheSimulationOnATwoPodMultipod) {
  const std::vector<Case> cases = {
      {"2048 chips", core::TopologyForChips(2048), {1}, {kBertElems}}};
  EXPECT_GT(ExpectPricesMatchSimulation(cases, net::NetworkConfig{}, 1,
                                        /*health_sets=*/3, /*ring_only=*/true),
            0);
}

// The 4096-chip flat ring: on that multipod each direction of
// `ring-flat bidir bf16` is a lone pass (one pass, every directed link
// crossed at most once), which PriceRingPlan prices per route class. Here it
// is checked against RunLoweredPlan bit for bit, healthy, with one failed
// link (its class holds one rank) and with one link slowed 4096x (a class
// that differs from the healthy one only in degradation).
class FlatRingAt4096 : public ::testing::TestWithParam<int> {};

TEST_P(FlatRingAt4096, MatchesTheSimulation) {
  const topo::MeshTopology topo(core::TopologyForChips(4096));
  plan::PlanRequest request;
  request.elems = kBertElems;
  const std::vector<plan::CollectivePlan> candidates =
      plan::GeneratePlans(topo, request);
  const auto flat = std::find_if(
      candidates.begin(), candidates.end(),
      [](const plan::CollectivePlan& plan) {
        return plan.name() == "ring-flat bidir bf16";
      });
  ASSERT_NE(flat, candidates.end());
  const plan::LoweredPlan lowered = plan::LowerPlan(topo, *flat, kBertElems);
  ASSERT_TRUE(plan::RingPricerApplies(lowered));
  // The snake's X link (1, 0) -> (2, 0) and its Y link (0, 1) -> (0, 2).
  plan::LinkHealthSet health;
  if (GetParam() == 1) {
    health.failed = {topo.LinkBetween(topo.ChipAt({1, 0}), topo.ChipAt({2, 0}))};
  } else if (GetParam() == 2) {
    health.degraded = {
        {topo.LinkBetween(topo.ChipAt({0, 1}), topo.ChipAt({0, 2})), 4096.0}};
  }
  ExpectPricedRunMatchesSimulation(topo, net::NetworkConfig{}, health,
                                   lowered);
}

INSTANTIATE_TEST_SUITE_P(HealthyFailedSlowed, FlatRingAt4096,
                         ::testing::Values(0, 1, 2));

// A lone pass that crosses one directed link twice: a monodirectional ring
// over row 0 of a 4 x 2 mesh in the order x = 0, 2, 1, 3, whose hops
// 0 -> 2 and 1 -> 3 both cross (1, 0) -> (2, 0), so the second message
// queues behind the first. Such a pass must keep the queue path.
TEST(RingPricer, LonePassCrossingALinkTwiceQueues) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 2, false));
  plan::PlanRequest request;
  request.elems = 1 << 20;
  const std::vector<plan::CollectivePlan> candidates =
      plan::GeneratePlans(topo, request);
  const auto flat = std::find_if(
      candidates.begin(), candidates.end(),
      [](const plan::CollectivePlan& plan) {
        return plan.name() == "ring-flat mono fp32";
      });
  ASSERT_NE(flat, candidates.end());
  plan::LoweredPlan lowered = plan::LowerPlan(topo, *flat, request.elems);
  ASSERT_EQ(lowered.stages.size(), 2u);
  coll::RingSpec spec;
  for (const int x : {0, 2, 1, 3}) spec.order.push_back(topo.ChipAt({x, 0}));
  for (const int x : {3, 2, 1, 0}) spec.order.push_back(topo.ChipAt({x, 1}));
  spec.range = {0, request.elems};
  const auto specs =
      std::make_shared<std::vector<coll::RingSpec>>(1, std::move(spec));
  for (plan::LoweredStage& stage : lowered.stages) stage.specs = specs;

  // The pass does cross a directed link twice.
  sim::Simulator simulator;
  net::Network network(&topo, net::NetworkConfig{}, &simulator);
  std::vector<int> crossings(topo.links().size(), 0);
  const std::vector<topo::ChipId>& order = specs->front().order;
  for (std::size_t r = 0; r < order.size(); ++r) {
    for (const auto& hop :
         network.RouteFor(order[r], order[(r + 1) % order.size()]).hops) {
      ++crossings[hop.link];
    }
  }
  EXPECT_EQ(*std::max_element(crossings.begin(), crossings.end()), 2);

  for (const net::NetworkConfig& config :
       {net::NetworkConfig{}, DyadicConfig()}) {
    for (const plan::LinkHealthSet& health : HealthSets(topo)) {
      SCOPED_TRACE(health.CacheKeyFragment());
      ExpectPricedRunMatchesSimulation(topo, config, health, lowered);
    }
  }
}

}  // namespace
}  // namespace tpu
