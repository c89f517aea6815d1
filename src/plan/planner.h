// The planner: search, cache, execute, and replan on failure.
//
// FindBestPlan enumerates candidates, shortlists the top K by the
// fault-aware closed-form estimate (estimating only candidates whose
// partial estimate can still make the shortlist, ShortlistByEstimate), and
// returns the one the exact tier (EvaluatePlanOnSimulator) prices cheapest —
// consulting the PlanCache first when one is supplied. The certified lower
// bound (plan/cost.h) spares the exact tier every shortlisted candidate
// that cannot win (PriceShortlist). Ties break on (time, name), so
// identical inputs always pick the same plan.
//
// ExecuteWithReplanning is the fault-driven loop the paper's recovery story
// needs: execute the current plan with per-phase deadlines armed, feed the
// timings to the HealthMonitor, and on a detection snapshot the network's
// *actual* link health, re-plan under it (a changed health set misses the
// cache by construction), and execute the replacement schedule on the same —
// still degraded — network.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "fault/health_monitor.h"
#include "network/network.h"
#include "plan/cache.h"
#include "plan/executor.h"
#include "plan/plan_ir.h"
#include "topology/topology.h"
#include "trace/run_report.h"

namespace tpu::plan {

struct PlannerResult {
  CollectivePlan plan;
  SimTime predicted_seconds = 0;  // exact simulated time of the winner
  SimTime estimated_seconds = 0;  // its closed-form estimate
  bool from_cache = false;
  int candidates = 0;  // plans enumerated (0 on a cache hit)
  int evaluated = 0;   // plans shortlisted for the exact tier
  int estimates = 0;   // plans the closed-form tier estimated in full
  int des_runs = 0;    // shortlisted plans the exact tier actually priced
};

// The closed-form tier's walk: the `top_k` candidates least by
// (estimate(i), names[i]), in that order. `partials[i]` must not exceed
// estimate(i). Candidates are estimated in ascending (partial, name) order
// until the next partial exceeds the K-th best estimate so far: that
// candidate and every later one estimates above the whole shortlist. A
// partial equal to it still estimates, since an equal estimate with a
// smaller name would enter.
struct EstimateShortlist {
  std::vector<int> indices;        // into the candidates, best first
  std::vector<SimTime> estimates;  // theirs
  int estimated = 0;               // candidates estimate() ran on
};

EstimateShortlist ShortlistByEstimate(
    const std::vector<SimTime>& partials,
    const std::vector<std::string>& names,
    const std::function<SimTime(int)>& estimate, int top_k);

// The exact tier's walk over a shortlist. `price(i)` prices candidate i
// exactly and must return at least `bounds[i]`. Prices the
// lowest-bound candidate (the earliest on a tie) alone, then every other
// whose bound does not exceed that price, and picks the least (price, name)
// among those priced. A skipped candidate prices at least its bound,
// strictly above a price already seen, so the pick equals pricing the whole
// shortlist. A bound equal to the price still runs: an exact tie breaks on
// name.
struct ShortlistPick {
  int index = -1;       // into the shortlist
  SimTime seconds = 0;  // its price
  int des_runs = 0;     // candidates priced
};

ShortlistPick PriceShortlist(const std::vector<SimTime>& bounds,
                             const std::vector<std::string>& names,
                             const std::function<SimTime(int)>& price);

PlannerResult FindBestPlan(const topo::MeshTopology& topo,
                           const net::NetworkConfig& config,
                           const PlanRequest& request,
                           const LinkHealthSet& health = {},
                           PlanCache* cache = nullptr);

// Re-executes `plan` on a throwaway discrete-event network with `health`
// applied and the causal critical-path tracker installed, and returns a
// RunReport: per-stage phase seconds, the extracted critical path with
// link/phase attribution, the slack and what-if tables, and the closed-form
// estimate next to the simulated time — a direct accuracy probe for the
// planner's two-tier evaluator. Pass the search's `estimated_seconds` to
// reuse it; a negative value recomputes the estimate here.
trace::RunReport ProbePlan(const topo::MeshTopology& topo,
                           const net::NetworkConfig& config,
                           const LinkHealthSet& health,
                           const CollectivePlan& plan, std::int64_t elems,
                           SimTime estimated_seconds = -1.0);

// One monitored execution, plus the replanned retry when a phase overran its
// deadline. `second.total()` is meaningful only when `replanned`.
struct MitigatedSummation {
  coll::GradientSummationResult first;
  bool replanned = false;
  SimTime detected_at = -1.0;  // when the overrun was detected
  PlannerResult replan;        // the fault-aware search result
  coll::GradientSummationResult second;  // the replacement plan's run
};

MitigatedSummation ExecuteWithReplanning(net::Network& network,
                                         const PlanRequest& request,
                                         const CollectivePlan& plan,
                                         fault::HealthMonitor& monitor,
                                         PlanCache* cache = nullptr,
                                         PlanExecutionConfig config = {});

}  // namespace tpu::plan
