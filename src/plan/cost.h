// Three-tier candidate pricing: the estimate ranks, the bound prunes, the
// exact price decides.
//
// EstimatePlanSeconds is the fast closed-form tier: it walks the lowered
// stages' actual group orders and per-hop routes, charging each hop the
// store-and-forward cost of its links *including* current degradation
// factors and failed-link stalls — unlike Network::EstimateArrival, which
// deliberately stays healthy-only for deadline expectations. Fault
// awareness is what lets the planner prune stalled schedules (every 2-D
// plan crossing a dead Y link prices at hours) while keeping survivors
// (the flat snake ring that never touches interior Y links) in the running.
// It ignores link contention between concurrent groups, so it ranks rather
// than predicts — and it is not a lower bound either: it charges every ring
// step a full chunk on the slowest hop, though a step may route the short
// remainder chunk over that hop.
//
// PartialEstimateSeconds prices only each stage's first group with the same
// arithmetic, so it never exceeds the estimate: the planner estimates
// candidates in ascending partial order and stops once the next partial
// exceeds the shortlist's last estimate. PlanRepricer re-prices one lowered
// plan under many health sets by recomputing only the groups whose routes
// cross a listed link. DESIGN.md §9 carries both exactness arguments.
//
// LowerBoundPlanSeconds is the certified tier: a closed-form price that is
// never above EvaluatePlanOnSimulator's, so a candidate whose bound exceeds
// a price already seen can be skipped without running it. DESIGN.md §9
// carries the argument, including the floating-point margin.
//
// EvaluatePlanOnSimulator is the exact tier: the simulated seconds the real
// execution of the plan will take, bit for bit, on a throwaway Network with
// the health set re-applied. Unchunked ring plans are priced without the
// event queue (PriceRingPlan, plan/ring_pricer.h); halving-doubling and
// chunk-pipelined plans run timing-only on the discrete-event simulator.
// The name predates the event-free path and stays because the benchmark
// calls it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "network/network.h"
#include "plan/plan_ir.h"
#include "plan/schedule.h"
#include "topology/topology.h"

namespace tpu::plan {

SimTime EstimatePlanSeconds(const topo::MeshTopology& topo,
                            const net::NetworkConfig& config,
                            const LinkHealthSet& health,
                            const LoweredPlan& lowered);

// EstimatePlanSeconds over only the first group of each stage: a lower
// bound on it, bit for bit. Returns 0 for chunk-pipelined plans, whose
// overlap formula is not monotone in the stage times.
SimTime PartialEstimateSeconds(const topo::MeshTopology& topo,
                               const net::NetworkConfig& config,
                               const LinkHealthSet& health,
                               const LoweredPlan& lowered);

// EstimatePlanSeconds of one lowered plan under any health set, built once:
// it keeps every group's healthy seconds and, for each link, the groups
// whose hop routes cross it. Seconds(health) recomputes only the groups
// that touch one of `health`'s links, each whole, keeps the stored values
// of the rest and reduces the stages as the estimate does, so it returns
// EstimatePlanSeconds(topo, config, health, lowered) exactly. `topo` must
// outlive the repricer.
class PlanRepricer {
 public:
  PlanRepricer(const topo::MeshTopology& topo, const net::NetworkConfig& config,
               LoweredPlan lowered);

  SimTime Seconds(const LinkHealthSet& health) const;
  SimTime healthy_seconds() const { return healthy_seconds_; }

 private:
  const topo::MeshTopology& topo_;
  net::NetworkConfig config_;
  LoweredPlan lowered_;
  // Groups are numbered stage by stage: stage s owns [stage_begin_[s],
  // stage_begin_[s + 1]).
  std::vector<int> stage_begin_;
  std::vector<SimTime> group_seconds_;  // healthy, per group
  std::vector<SimTime> stage_seconds_;  // healthy, per stage
  SimTime healthy_seconds_ = 0;
  // The groups crossing link l are link_groups_[link_begin_[l] ..
  // link_begin_[l + 1]), ascending.
  std::vector<int> link_begin_;
  std::vector<int> link_groups_;
};

// Sum over stages of the slowest group's certified step bounds, scaled by
// (1 - 1e-9) to absorb the rounding both sides accumulate. Ring
// steps are charged max(slowest hop carrying the smallest chunk, fastest hop
// carrying the largest); halving-doubling rounds their exact per-round
// bytes. Returns 0 (prunes nothing) for chunk-pipelined plans, whose stages
// overlap, and for plans whose rounding chain is too long for the margin.
SimTime LowerBoundPlanSeconds(const topo::MeshTopology& topo,
                              const net::NetworkConfig& config,
                              const LinkHealthSet& health,
                              const LoweredPlan& lowered);

SimTime EvaluatePlanOnSimulator(const topo::MeshTopology& topo,
                                const net::NetworkConfig& config,
                                const LinkHealthSet& health,
                                const CollectivePlan& plan,
                                std::int64_t elems);

// The same price for a plan already lowered on `topo`, which the search
// keeps from its estimate pass.
SimTime EvaluatePlanOnSimulator(const topo::MeshTopology& topo,
                                const net::NetworkConfig& config,
                                const LinkHealthSet& health,
                                const LoweredPlan& lowered);

}  // namespace tpu::plan
