// Collective planner walkthrough: enumerate the schedule space, price it,
// let the search rediscover the paper's 2-D Y-then-X schedule on a healthy
// slice, then kill a link and watch the planner route around it.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/collective_planner
#include <cstdio>

#include "fault/health_monitor.h"
#include "network/network.h"
#include "plan/cost.h"
#include "plan/generator.h"
#include "plan/planner.h"
#include "plan/schedule.h"
#include "sim/simulator.h"
#include "topology/topology.h"

int main() {
  using namespace tpu;

  // --- Part 1: the search space. On a 32x16 slice with a 64M-element
  // payload, every legal schedule gets a closed-form estimate; the top
  // candidates that a certified lower bound cannot rule out are priced
  // exactly on the discrete-event simulator.
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(32, 16, true));
  plan::PlanRequest request;
  request.elems = 64 * 1000 * 1000;

  std::printf("Part 1 — candidate schedules on a healthy 32x16 slice\n");
  for (const plan::CollectivePlan& candidate :
       plan::GeneratePlans(topo, request)) {
    const plan::LoweredPlan lowered =
        plan::LowerPlan(topo, candidate, request.elems);
    std::printf("  %-28s ~%8.3f ms\n", candidate.name().c_str(),
                ToMillis(plan::EstimatePlanSeconds(
                    topo, net::NetworkConfig{}, {}, lowered)));
  }

  plan::PlanCache cache;
  const plan::PlannerResult best =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request, {}, &cache);
  std::printf("\nchosen: %s (%.3f ms simulated) — %d candidates, %d "
              "shortlisted, %d priced exactly\n",
              best.plan.name().c_str(), ToMillis(best.predicted_seconds),
              best.candidates, best.evaluated, best.des_runs);
  const plan::PlannerResult again =
      plan::FindBestPlan(topo, net::NetworkConfig{}, request, {}, &cache);
  std::printf("second search: %s (cache %s)\n\n", again.plan.name().c_str(),
              again.from_cache ? "hit" : "miss");

  // --- Part 2: replanning. Kill one Y-torus link mid-mesh: every 2-D
  // schedule now stalls on that column's ring, but the flat snake ring never
  // turns mid-mesh. The monitored execution detects the overrun through its
  // phase deadline and re-plans under the observed link health.
  std::printf("Part 2 — a dead Y link at column 5\n");
  sim::Simulator simulator;
  net::Network network(&topo, net::NetworkConfig{}, &simulator);
  network.FailLink(topo.LinkBetween(topo.ChipAt({5, 7}), topo.ChipAt({5, 8})));
  network.FailLink(topo.LinkBetween(topo.ChipAt({5, 8}), topo.ChipAt({5, 7})));

  fault::HealthMonitor monitor;
  const plan::MitigatedSummation outcome = plan::ExecuteWithReplanning(
      network, request, best.plan, monitor, &cache);
  std::printf("  first attempt (%s): %.1f s — timed out in %s\n",
              best.plan.name().c_str(), outcome.first.total(),
              outcome.first.timed_out_phase ? outcome.first.timed_out_phase
                                            : "-");
  std::printf("  detected at %.6f s, replanned to %s\n", outcome.detected_at,
              outcome.replan.plan.name().c_str());
  std::printf("  retry: %.6f s (%.0fx faster than waiting out the stall)\n",
              outcome.second.total(),
              outcome.first.total() / outcome.second.total());
  std::printf("  cache now holds %zu plans (%lld hits, %lld misses)\n",
              cache.size(), static_cast<long long>(cache.hits()),
              static_cast<long long>(cache.misses()));
  return 0;
}
