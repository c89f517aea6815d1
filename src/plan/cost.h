// Three-tier candidate pricing: the estimate ranks, the bound prunes, the
// discrete-event simulation decides.
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
// LowerBoundPlanSeconds is the certified tier: a closed-form price that is
// never above EvaluatePlanOnSimulator's, so a candidate whose bound exceeds
// a price already seen can be skipped without running it. DESIGN.md §9
// carries the argument, including the floating-point margin.
//
// EvaluatePlanOnSimulator is the exact tier: it executes the plan timing-only
// on a throwaway discrete-event Network with the health set re-applied, and
// returns the same simulated seconds the real execution will take —
// bit-identical, since the simulation is deterministic.
#pragma once

#include <cstdint>

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

}  // namespace tpu::plan
