#include "plan/planner.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "plan/cost.h"
#include "plan/generator.h"
#include "plan/schedule.h"
#include "trace/critical_path.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::plan {

ShortlistPick PriceShortlist(const std::vector<SimTime>& bounds,
                             const std::vector<std::string>& names,
                             const std::function<SimTime(int)>& price) {
  TPU_CHECK(!bounds.empty());
  TPU_CHECK_EQ(bounds.size(), names.size());
  const int first = static_cast<int>(
      std::min_element(bounds.begin(), bounds.end()) - bounds.begin());
  ShortlistPick pick{first, price(first), 1};
  const SimTime first_seconds = pick.seconds;
  for (int i = 0; i < static_cast<int>(bounds.size()); ++i) {
    if (i == first || bounds[i] > first_seconds) continue;
    const SimTime seconds = price(i);
    ++pick.des_runs;
    if (seconds < pick.seconds ||
        (seconds == pick.seconds && names[i] < names[pick.index])) {
      pick.index = i;
      pick.seconds = seconds;
    }
  }
  return pick;
}

EstimateShortlist ShortlistByEstimate(
    const std::vector<SimTime>& partials,
    const std::vector<std::string>& names,
    const std::function<SimTime(int)>& estimate, int top_k) {
  TPU_CHECK(!partials.empty());
  TPU_CHECK_EQ(partials.size(), names.size());
  const int n = static_cast<int>(partials.size());
  top_k = std::min(std::max(top_k, 1), n);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return partials[a] != partials[b] ? partials[a] < partials[b]
                                      : names[a] < names[b];
  });
  // The best `top_k` estimated so far as (estimate, index), sorted by
  // (estimate, name).
  std::vector<std::pair<SimTime, int>> best;
  EstimateShortlist shortlist;
  for (const int i : order) {
    if (static_cast<int>(best.size()) == top_k &&
        partials[i] > best.back().first) {
      break;
    }
    const std::pair<SimTime, int> entry{estimate(i), i};
    ++shortlist.estimated;
    best.insert(std::upper_bound(best.begin(), best.end(), entry,
                                 [&](const auto& a, const auto& b) {
                                   return a.first != b.first
                                              ? a.first < b.first
                                              : names[a.second] <
                                                    names[b.second];
                                 }),
                entry);
    if (static_cast<int>(best.size()) > top_k) best.pop_back();
  }
  for (const auto& [seconds, i] : best) {
    shortlist.indices.push_back(i);
    shortlist.estimates.push_back(seconds);
  }
  return shortlist;
}

PlannerResult FindBestPlan(const topo::MeshTopology& topo,
                           const net::NetworkConfig& config,
                           const PlanRequest& request,
                           const LinkHealthSet& health, PlanCache* cache) {
  const std::string key =
      cache != nullptr ? PlanCacheKey(topo, request, health) : std::string();
  if (cache != nullptr) {
    if (const PlanCache::Entry* entry = cache->Lookup(key)) {
      PlannerResult result;
      result.plan = entry->plan;
      result.predicted_seconds = entry->predicted_seconds;
      result.estimated_seconds = entry->estimated_seconds;
      result.from_cache = true;
      return result;
    }
  }

  std::vector<CollectivePlan> candidates = GeneratePlans(topo, request);
  TPU_CHECK(!candidates.empty());

  // Closed-form tier, pruned by the partial estimate; the lowerings are kept
  // for the shortlist's bounds.
  std::vector<LoweredPlan> lowered;
  std::vector<SimTime> partials;
  std::vector<std::string> names;
  lowered.reserve(candidates.size());
  for (const CollectivePlan& plan : candidates) {
    lowered.push_back(LowerPlan(topo, plan, request.elems));
    partials.push_back(
        PartialEstimateSeconds(topo, config, health, lowered.back()));
    names.push_back(plan.name());
  }
  const EstimateShortlist shortlist = ShortlistByEstimate(
      partials, names,
      [&](int i) {
        return EstimatePlanSeconds(topo, config, health, lowered[i]);
      },
      request.des_top_k);

  // Exact tier over the shortlist's kept lowerings, pruned by the certified
  // bound; the price of the winner is bit-identical to what running it for
  // real will report.
  std::vector<SimTime> bounds;
  std::vector<std::string> shortlist_names;
  std::vector<LoweredPlan> shortlisted;
  for (const int i : shortlist.indices) {
    bounds.push_back(LowerBoundPlanSeconds(topo, config, health, lowered[i]));
    shortlist_names.push_back(names[i]);
    shortlisted.push_back(std::move(lowered[i]));
  }
  lowered.clear();  // only the shortlist is priced
  const ShortlistPick pick =
      PriceShortlist(bounds, shortlist_names, [&](int i) {
        return EvaluatePlanOnSimulator(topo, config, health, shortlisted[i]);
      });

  PlannerResult result;
  result.plan = candidates[shortlist.indices[pick.index]];
  result.predicted_seconds = pick.seconds;
  result.estimated_seconds = shortlist.estimates[pick.index];
  result.candidates = static_cast<int>(candidates.size());
  result.evaluated = static_cast<int>(shortlist.indices.size());
  result.estimates = shortlist.estimated;
  result.des_runs = pick.des_runs;

  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    // Pin the instant at the recorder's frontier; subtract the active offset
    // so Stamp() doesn't apply it twice.
    recorder->Instant(recorder->Track("system", "plan"),
                      "plan-search " + result.plan.name(),
                      recorder->last_timestamp() - recorder->time_offset());
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("plan.search.runs").Add(1);
    metrics->Counter("plan.search.candidates").Add(result.candidates);
    metrics->Counter("plan.search.evaluated").Add(result.evaluated);
  }
  if (cache != nullptr) {
    cache->Insert(key, {result.plan, result.predicted_seconds,
                        result.estimated_seconds});
  }
  return result;
}

trace::RunReport ProbePlan(const topo::MeshTopology& topo,
                           const net::NetworkConfig& config,
                           const LinkHealthSet& health,
                           const CollectivePlan& plan, std::int64_t elems,
                           SimTime estimated_seconds) {
  // Same throwaway discipline as EvaluatePlanOnSimulator — silence every
  // sink so the probe leaves nothing behind — but with the causal tracker
  // installed so the re-execution yields a full report.
  sim::ScopedSilence silence;
  trace::CriticalPathTracker tracker;
  sim::ScopedEventObserver observe(&tracker);
  sim::Simulator simulator;
  net::Network network(&topo, config, &simulator);
  health.ApplyTo(network);
  const coll::GradientSummationResult result =
      ExecutePlan(network, plan, elems);

  if (estimated_seconds < 0) {
    estimated_seconds =
        EstimatePlanSeconds(topo, config, health, LowerPlan(topo, plan, elems));
  }

  trace::RunReport report;
  report.label = "probe " + plan.name();
  report.planned = true;
  report.plan_name = plan.name();
  report.plan_predicted_seconds = result.total();
  report.plan_estimated_seconds = estimated_seconds;
  report.step_seconds = result.total();
  report.compute_seconds = result.update_seconds;
  report.comm_seconds = result.reduce_seconds + result.broadcast_seconds;
  for (const coll::StageSeconds& stage : result.stages) {
    report.phases.push_back({stage.name, stage.seconds});
  }
  report.has_critical_path = true;
  report.critical_path = tracker.Analyze();
  return report;
}

MitigatedSummation ExecuteWithReplanning(net::Network& network,
                                         const PlanRequest& request,
                                         const CollectivePlan& plan,
                                         fault::HealthMonitor& monitor,
                                         PlanCache* cache,
                                         PlanExecutionConfig config) {
  config.deadline = monitor.config().ToPhaseDeadline();

  MitigatedSummation outcome;
  outcome.first = ExecutePlan(network, plan, request.elems, config);

  // Score every monitored phase against the injector-independent deadline;
  // ground truth for the observation is the network's actual link state.
  const LinkHealthSet health = LinkHealthSet::FromNetwork(network);
  const bool fault_active = !health.healthy();
  for (const coll::PhaseTiming& timing : outcome.first.phases) {
    monitor.Observe({timing.start, timing.expected, timing.actual,
                     fault_active});
  }
  if (!outcome.first.timed_out) return outcome;

  // A phase overran its deadline: re-plan under the observed link health
  // (which, being part of the cache key, forces a fresh search) and run the
  // replacement on the same degraded network.
  outcome.replanned = true;
  outcome.detected_at = outcome.first.detected_at;
  outcome.replan = FindBestPlan(network.topology(), network.config(), request,
                                health, cache);
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    recorder->Instant(recorder->Track("system", "plan"),
                      "replan " + outcome.replan.plan.name(),
                      network.simulator().now());
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("plan.replans").Add(1);
  }
  outcome.second =
      ExecutePlan(network, outcome.replan.plan, request.elems, config);
  return outcome;
}

}  // namespace tpu::plan
