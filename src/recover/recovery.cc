#include "recover/recovery.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "common/check.h"
#include "plan/planner.h"
#include "sim/run_context.h"

namespace tpu::recover {
namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

// Chips that can no longer participate at full width: dead chips, every chip
// of a permanently lost host, and one endpoint of each permanently bad link
// (a rectangle excluding either endpoint cannot route over the link, since
// dimension-ordered routes between in-rectangle chips stay inside the
// rectangle's bounding box).
std::vector<topo::ChipId> UnusableChips(const topo::MeshTopology& topo,
                                        const Diagnosis& diagnosis) {
  std::vector<topo::ChipId> chips = diagnosis.dead_chips;
  for (const topo::HostId host : diagnosis.lost_hosts) {
    for (const topo::ChipId chip : topo.ChipsOfHost(host)) {
      chips.push_back(chip);
    }
  }
  for (const topo::LinkId link : diagnosis.broken_links) {
    TPU_CHECK_GE(link, 0);
    TPU_CHECK_LT(static_cast<std::size_t>(link), topo.links().size());
    chips.push_back(topo.links()[link].from);
  }
  std::sort(chips.begin(), chips.end());
  chips.erase(std::unique(chips.begin(), chips.end()), chips.end());
  return chips;
}

// Standby hosts a swap-in must attach: the hosts owning the permanently
// lost chips. Permanent link faults are cables, not hosts — a swap cannot
// fix them, so they make swap-in infeasible upstream.
int HostsNeeded(const topo::MeshTopology& topo, const Diagnosis& diagnosis) {
  std::vector<topo::HostId> hosts = diagnosis.lost_hosts;
  for (const topo::ChipId chip : diagnosis.dead_chips) {
    hosts.push_back(topo.HostOf(chip));
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  return static_cast<int>(hosts.size());
}

void AppendSeconds(std::string* out, const char* key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "\"%s\":%.12g", key, value);
  *out += buffer;
}

void AppendInt(std::string* out, const char* key, long long value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "\"%s\":%lld", key, value);
  *out += buffer;
}

}  // namespace

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kWaitForHeal:
      return "wait-for-heal";
    case Strategy::kRouteAround:
      return "route-around";
    case Strategy::kElasticShrink:
      return "elastic-shrink";
    case Strategy::kSpareSwapIn:
      return "spare-swap-in";
    case Strategy::kCheckpointRestart:
      return "checkpoint-restart";
  }
  return "unknown";
}

SimTime DegradedStepSeconds(SimTime healthy_step, SimTime healthy_allreduce,
                            const plan::PlanRepricer& comm,
                            const plan::LinkHealthSet& health) {
  const SimTime comm_healthy = comm.healthy_seconds();
  if (comm_healthy <= 0) return healthy_step;
  return healthy_step +
         healthy_allreduce * (comm.Seconds(health) / comm_healthy - 1.0);
}

SimTime ReplannedStepSeconds(SimTime healthy_step, SimTime healthy_allreduce,
                             const topo::MeshTopology& topo,
                             const net::NetworkConfig& config,
                             const plan::PlanRequest& request,
                             plan::PlanCache* cache,
                             const plan::LinkHealthSet& health) {
  sim::ScopedSilence silence;
  const SimTime planned_healthy =
      plan::FindBestPlan(topo, config, request, {}, cache).predicted_seconds;
  const SimTime planned =
      plan::FindBestPlan(topo, config, request, health, cache)
          .predicted_seconds;
  if (planned_healthy <= 0) return healthy_step;
  const double ratio = std::max(planned / planned_healthy, 1.0);
  return healthy_step + healthy_allreduce * (ratio - 1.0);
}

double EffectiveWorkRate(SimTime healthy_step, SimTime step, SimTime tau,
                         SimTime delta) {
  if (healthy_step <= 0 || step <= 0) return 0;
  const double discount = tau > 0 ? tau / (tau + delta) : 1.0;
  return healthy_step / step * discount;
}

std::vector<StrategyOption> PriceStrategies(const PricingContext& context,
                                            const Diagnosis& diagnosis) {
  TPU_CHECK(context.topo != nullptr);
  TPU_CHECK(context.pricer != nullptr);
  const RecoveryPolicy& policy = context.policy;
  const StepPricer& pricer = *context.pricer;
  const SimTime healthy = pricer.healthy_step;
  TPU_CHECK_GT(healthy, 0.0);
  const SimTime tau = context.checkpoint_interval;
  const SimTime delta = context.costs.checkpoint_write;
  const double healthy_rate = EffectiveWorkRate(healthy, healthy, tau, delta);
  const SimTime slowdown_cap = policy.max_step_slowdown * healthy;

  const std::vector<topo::ChipId> unusable =
      UnusableChips(*context.topo, diagnosis);

  // Rate at the post-recovery step time, or 0 when the step is unusable
  // (slower than the slowdown cap, or degenerate).
  const auto rate_after = [&](SimTime step) {
    if (step <= 0 || step > slowdown_cap) return 0.0;
    return EffectiveWorkRate(healthy, step, tau, delta);
  };

  std::vector<StrategyOption> options;
  options.reserve(kNumStrategies);
  const auto infeasible = [&](Strategy strategy, const char* why) {
    StrategyOption option;
    option.strategy = strategy;
    option.feasible = false;
    option.why = why;
    option.future_seconds = kInfeasible;
    options.push_back(option);
  };
  const auto feasible = [&](Strategy strategy, SimTime downtime,
                            SimTime lost_work, SimTime step_after,
                            double rate) {
    StrategyOption option;
    option.strategy = strategy;
    option.feasible = true;
    option.downtime = downtime;
    option.lost_work = lost_work;
    option.step_after = step_after;
    option.future_seconds =
        downtime + (context.remaining_work + lost_work) / rate;
    options.push_back(option);
  };

  // 1. Wait for heal: only when every active fault heals on its own. The
  // machine stays stalled for the (memoryless) expected residual, then
  // resumes at full health with nothing lost — the synchronous step simply
  // completes late.
  if (!policy.allow_wait_for_heal) {
    infeasible(Strategy::kWaitForHeal, "disabled by policy");
  } else if (context.exhausted & StrategyBit(Strategy::kWaitForHeal)) {
    infeasible(Strategy::kWaitForHeal, "wait deadline exhausted");
  } else if (!diagnosis.transient_only) {
    infeasible(Strategy::kWaitForHeal, "permanent fault active");
  } else {
    feasible(Strategy::kWaitForHeal, diagnosis.expected_residual_heal,
             /*lost_work=*/0, healthy, healthy_rate);
  }

  // 2. Route around: re-plan the collective off the bad links. Fixes link
  // faults only — a dead chip cannot compute, no schedule routes around
  // that.
  if (!policy.allow_route_around) {
    infeasible(Strategy::kRouteAround, "disabled by policy");
  } else if (context.exhausted & StrategyBit(Strategy::kRouteAround)) {
    infeasible(Strategy::kRouteAround, "replan did not clear the deadline");
  } else if (!diagnosis.dead_chips.empty() || !diagnosis.lost_hosts.empty()) {
    infeasible(Strategy::kRouteAround, "chips lost, not just links");
  } else if (diagnosis.health.healthy()) {
    infeasible(Strategy::kRouteAround, "no link fault to route around");
  } else {
    const SimTime step = pricer.replanned_step(diagnosis.health);
    const double rate = rate_after(step);
    if (rate <= 0) {
      infeasible(Strategy::kRouteAround, "replanned step over slowdown cap");
    } else {
      feasible(Strategy::kRouteAround, policy.replan_seconds, /*lost_work=*/0,
               step, rate);
    }
  }

  // 3. Elastic shrink: carve the largest healthy rectangle (quantized to the
  // model-parallel group width along X), restore the missing shards from the
  // last checkpoint, continue narrow. Work since the checkpoint is redone at
  // the shrunk rate.
  if (!policy.allow_elastic_shrink) {
    infeasible(Strategy::kElasticShrink, "disabled by policy");
  } else if (context.exhausted & StrategyBit(Strategy::kElasticShrink)) {
    infeasible(Strategy::kElasticShrink, "shrink attempt failed");
  } else if (unusable.empty()) {
    infeasible(Strategy::kElasticShrink, "no permanently lost chips");
  } else {
    const topo::SubmeshRect rect = topo::LargestHealthySubmesh(
        *context.topo, unusable, context.x_granularity);
    const int min_chips = static_cast<int>(policy.min_shrink_fraction *
                                           context.topo->num_chips());
    if (rect.chips() < std::max(1, min_chips)) {
      infeasible(Strategy::kElasticShrink, "healthy sub-mesh too small");
    } else {
      const SimTime step = pricer.shrunk_step(rect);
      const double rate = rate_after(step);
      if (rate <= 0) {
        infeasible(Strategy::kElasticShrink, "shrunk step over slowdown cap");
      } else {
        feasible(Strategy::kElasticShrink, context.costs.restore_seconds,
                 context.lost_work, step, rate);
        options.back().rect = rect;
      }
    }
  }

  // 4. Spare swap-in: attach standby hosts for the lost ones and re-shard
  // state from the checkpoint; resumes at full width. Cables (permanent link
  // faults) are not hosts, so they rule this out.
  const int hosts_needed = HostsNeeded(*context.topo, diagnosis);
  if (!policy.allow_spare_swap_in || policy.spare_hosts <= 0) {
    infeasible(Strategy::kSpareSwapIn, "no spare pool");
  } else if (context.exhausted & StrategyBit(Strategy::kSpareSwapIn)) {
    infeasible(Strategy::kSpareSwapIn, "swap attempt failed");
  } else if (hosts_needed == 0) {
    infeasible(Strategy::kSpareSwapIn, "no lost host to replace");
  } else if (!diagnosis.broken_links.empty()) {
    infeasible(Strategy::kSpareSwapIn, "permanent link fault not host-bound");
  } else if (hosts_needed > context.spares_left) {
    infeasible(Strategy::kSpareSwapIn, "spare pool exhausted");
  } else {
    feasible(Strategy::kSpareSwapIn,
             policy.spare_attach_seconds + context.costs.restore_seconds,
             context.lost_work, healthy, healthy_rate);
  }

  // 5. Checkpoint restart: the universal fallback — a replacement machine,
  // full restore plus framework re-init, work since the checkpoint redone.
  feasible(Strategy::kCheckpointRestart, context.costs.restart_seconds,
           context.lost_work, healthy, healthy_rate);

  return options;
}

StrategyOption ChooseStrategy(const std::vector<StrategyOption>& options) {
  const StrategyOption* best = nullptr;
  for (const StrategyOption& option : options) {
    if (!option.feasible) continue;
    // Strict <: options arrive in enum order, so ties keep the lightest.
    if (best == nullptr || option.future_seconds < best->future_seconds) {
      best = &option;
    }
  }
  TPU_CHECK(best != nullptr) << "checkpoint restart must always be feasible";
  return *best;
}

std::string RecoveryTimeline::ToJson() const {
  std::string out = "{";
  AppendSeconds(&out, "total_work", total_work);
  out += ",";
  AppendSeconds(&out, "base_seconds", base_seconds);
  out += ",";
  AppendSeconds(&out, "makespan", makespan);
  out += ",";
  AppendSeconds(&out, "goodput", goodput());
  out += ",\"completed\":";
  out += completed ? "true" : "false";
  out += ",";
  AppendInt(&out, "faults_applied", faults_applied);
  out += ",";
  AppendInt(&out, "faults_healed", faults_healed);
  out += ",";
  AppendInt(&out, "detections", detections);
  out += ",";
  AppendInt(&out, "micro_stalls", micro_stalls);
  out += ",";
  AppendInt(&out, "probes", probes);
  out += ",";
  AppendInt(&out, "restarts", restarts);
  out += ",";
  AppendSeconds(&out, "lost_work_seconds", lost_work_seconds);
  out += ",";
  AppendSeconds(&out, "stalled_seconds", stalled_seconds);
  out += ",\"decisions\":[";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const RecoveryDecision& decision = decisions[i];
    if (i > 0) out += ",";
    out += "{\"strategy\":\"";
    out += StrategyName(decision.strategy);
    out += "\",";
    AppendSeconds(&out, "stall_start", decision.stall_start);
    out += ",";
    AppendSeconds(&out, "decided_at", decision.decided_at);
    out += ",";
    AppendInt(&out, "attempt", decision.attempt);
    out += ",\"transient_only\":";
    out += decision.transient_only ? "true" : "false";
    out += ",";
    AppendInt(&out, "dead_chips", decision.dead_chips);
    out += ",";
    AppendInt(&out, "failed_links", decision.failed_links);
    out += ",";
    AppendInt(&out, "degraded_links", decision.degraded_links);
    out += ",";
    AppendSeconds(&out, "predicted_downtime", decision.predicted_downtime);
    out += ",";
    AppendSeconds(&out, "predicted_step_after", decision.predicted_step_after);
    out += ",";
    AppendSeconds(&out, "predicted_extra_seconds",
                  decision.predicted_extra_seconds);
    out += ",";
    AppendSeconds(&out, "lost_work", decision.lost_work);
    out += ",";
    AppendSeconds(&out, "resumed_at", decision.resumed_at);
    out += ",\"verified\":";
    out += decision.verified ? "true" : "false";
    out += "}";
  }
  out += "],\"intervals\":[";
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const ThroughputInterval& interval = intervals[i];
    if (i > 0) out += ",";
    out += "{\"mode\":\"";
    out += interval.mode;
    out += "\",";
    AppendSeconds(&out, "start", interval.start);
    out += ",";
    AppendSeconds(&out, "end", interval.end);
    out += ",";
    AppendSeconds(&out, "work_rate", interval.work_rate);
    out += ",";
    AppendSeconds(&out, "step_seconds", interval.step_seconds);
    out += "}";
  }
  out += "]}";
  return out;
}

void RecoveryTimeline::ExportMetrics(trace::MetricsRegistry& metrics) const {
  metrics.Counter("recovery.faults_applied").Add(faults_applied);
  metrics.Counter("recovery.faults_healed").Add(faults_healed);
  metrics.Counter("recovery.detections").Add(detections);
  metrics.Counter("recovery.micro_stalls").Add(micro_stalls);
  metrics.Counter("recovery.probes").Add(probes);
  metrics.Counter("recovery.restarts").Add(restarts);
  metrics.Counter("recovery.decisions")
      .Add(static_cast<std::int64_t>(decisions.size()));
  for (const RecoveryDecision& decision : decisions) {
    metrics
        .Counter(std::string("recovery.strategy.") +
                 StrategyName(decision.strategy))
        .Add(1);
    if (decision.verified) {
      metrics.Histogram("recovery.time_to_recover_us")
          .Record(ToMicros(decision.resumed_at - decision.stall_start));
      metrics.Histogram("recovery.downtime_us")
          .Record(ToMicros(decision.resumed_at - decision.decided_at));
    }
  }
  metrics.Gauge("recovery.goodput").Set(goodput());
  metrics.Gauge("recovery.lost_work_seconds").Set(lost_work_seconds);
  metrics.Gauge("recovery.stalled_seconds").Set(stalled_seconds);
}

}  // namespace tpu::recover
