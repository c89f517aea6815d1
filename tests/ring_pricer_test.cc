// The event-free ring pricer against the discrete-event simulation it
// replaces: for every generated candidate it prices, on multipods, slices
// with and without the Y wrap and 2-long dimensions, at strides 1, 2 and 4,
// over BERT-sized, tiny (fewer elements than ring ranks) and prime payloads,
// under failed, degraded, doubly degraded and slowed-row health sets, the
// price must equal ExecutePlan's total() on a fresh network bit for bit,
// and with a sharded-update hook the pricer's timeline and summary must
// equal RunLoweredPlan's in every field.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

}  // namespace
}  // namespace tpu
