// Policy-driven fault recovery: the strategy space, its pricing, and the
// recovered timeline.
//
// The paper's multipod run is one globally synchronous program: a dead chip,
// a preempted host or a flapping optical link stalls every step until
// *something* restores a working machine. This module names the somethings —
// wait out a transient with exponential backoff, re-plan the collective
// around bad links, carve the largest healthy sub-mesh and continue narrow,
// swap in a standby host, or fall back to a full checkpoint restart — and
// prices each one as the predicted makespan from the decision point, using
// the same two-tier step estimates the planner searches with. The
// RecoveryController (recover/controller.h) drives detect -> diagnose ->
// select -> execute -> verify over the live discrete-event simulation;
// everything here is pure data + pure pricing so tests can interrogate a
// decision without running a simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "network/network.h"
#include "plan/cache.h"
#include "plan/cost.h"
#include "plan/plan_ir.h"
#include "topology/topology.h"
#include "trace/metrics.h"

namespace tpu::recover {

// Ordered lightest-first: ties in predicted makespan resolve to the lower
// enum value, so the controller prefers the least disruptive strategy.
enum class Strategy {
  kWaitForHeal = 0,    // transient: probe with exponential backoff
  kRouteAround,        // re-plan the collective schedule off the bad links
  kElasticShrink,      // continue on the largest healthy sub-mesh
  kSpareSwapIn,        // attach standby host(s), re-shard from checkpoint
  kCheckpointRestart,  // full restore + framework re-init (always feasible)
};
inline constexpr int kNumStrategies = 5;

const char* StrategyName(Strategy strategy);

inline constexpr unsigned StrategyBit(Strategy strategy) {
  return 1u << static_cast<int>(strategy);
}

struct BackoffConfig {
  SimTime initial_probe = Seconds(1);  // first probe after the decision
  double multiplier = 2.0;             // gap growth per unanswered probe
  SimTime max_probe = Seconds(60);     // gap cap
  SimTime wait_deadline = Seconds(120);  // give up waiting after this long
};

struct RecoveryPolicy {
  // Off (the default) preserves the analytic checkpoint/restart goodput
  // model byte-for-byte; on replaces it with the event-driven controller.
  bool enabled = false;

  BackoffConfig backoff;
  bool allow_wait_for_heal = true;
  bool allow_route_around = true;
  bool allow_elastic_shrink = true;
  bool allow_spare_swap_in = true;

  // Standby pool: whole hosts (4 chips each) held out of the job, attachable
  // after a permanent chip/host loss. 0 disables swap-in.
  int spare_hosts = 0;
  SimTime spare_attach_seconds = Seconds(30);

  // Cost of a route-around: the planner search plus distributing the new
  // schedule to every worker.
  SimTime replan_seconds = Seconds(5);

  // A degraded/shrunk configuration whose step exceeds this multiple of the
  // healthy step is not worth keeping — the strategy prices as infeasible
  // (checkpoint restart never does).
  double max_step_slowdown = 4.0;
  // An elastic shrink below this fraction of the original chips is refused.
  double min_shrink_fraction = 0.25;
  // After this many strategy attempts for one stall, everything but the
  // checkpoint-restart fallback is considered exhausted.
  int max_attempts_per_fault = 4;
};

// What the controller concluded about the machine when the alarm fired.
struct Diagnosis {
  bool transient_only = true;  // every active fault will heal on its own
  std::vector<topo::ChipId> dead_chips;   // permanent chip failures, sorted
  std::vector<topo::HostId> lost_hosts;   // permanent host preemptions
  std::vector<topo::LinkId> broken_links; // permanent link faults
  plan::LinkHealthSet health;             // live link-state snapshot
  // Memoryless residual: the mean duration of the slowest active transient
  // class (exponential durations forget elapsed time).
  SimTime expected_residual_heal = 0;
};

// Step-time oracles the pricing runs on. All three are pure functions of
// their argument (and the healthy baseline), deterministic, and silent —
// implementations must not emit trace events or metrics.
struct StepPricer {
  SimTime healthy_step = 0;
  // Step time of the *current* schedule under a link-health snapshot (the
  // closed-form tier: stalls price at hours, so a failed link on the
  // schedule's route trips any deadline).
  std::function<SimTime(const plan::LinkHealthSet&)> degraded_step;
  // Step time after re-planning the collective under the snapshot (the
  // planner's two-tier search; >= healthy_step by construction).
  std::function<SimTime(const plan::LinkHealthSet&)> replanned_step;
  // Step time of the same job carved down to a healthy sub-mesh (same
  // global batch on fewer chips).
  std::function<SimTime(const topo::SubmeshRect&)> shrunk_step;
};

// The arithmetic behind degraded_step and replanned_step, for a job whose
// healthy step spends `healthy_allreduce` of `healthy_step` in the gradient
// all-reduce. Link health scales only that share:
//   * DegradedStepSeconds: by the current schedule's closed-form comm
//     estimate under `health` over its healthy estimate;
//   * ReplannedStepSeconds: by the planner's predicted seconds under
//     `health` over those under full health, at least 1. Both searches run
//     silenced and memoize in `cache`.
// Each returns healthy_step when the healthy comm price is not positive.
SimTime DegradedStepSeconds(SimTime healthy_step, SimTime healthy_allreduce,
                            const plan::PlanRepricer& comm,
                            const plan::LinkHealthSet& health);
SimTime ReplannedStepSeconds(SimTime healthy_step, SimTime healthy_allreduce,
                             const topo::MeshTopology& topo,
                             const net::NetworkConfig& config,
                             const plan::PlanRequest& request,
                             plan::PlanCache* cache,
                             const plan::LinkHealthSet& health);

struct RecoveryCosts {
  SimTime checkpoint_write = 0;   // delta: one checkpoint write
  SimTime restore_seconds = 0;    // read back + redistribute (no re-init)
  SimTime restart_seconds = 0;    // restore + full framework re-init
};

// Everything PriceStrategies needs, bundled so the controller and tests
// price identically.
struct PricingContext {
  const topo::MeshTopology* topo = nullptr;
  RecoveryPolicy policy;
  RecoveryCosts costs;
  const StepPricer* pricer = nullptr;
  SimTime checkpoint_interval = 0;  // tau; <= 0 means no checkpointing
  SimTime remaining_work = 0;       // useful seconds still to run
  SimTime lost_work = 0;            // work since the last checkpoint
  SimTime detection_deadline = 0;   // the healthy-step alarm threshold
  int spares_left = 0;
  int x_granularity = 1;  // shrink carve quantum (model-parallel group width)
  unsigned exhausted = 0;  // StrategyBit mask of already-failed strategies
};

struct StrategyOption {
  Strategy strategy = Strategy::kCheckpointRestart;
  bool feasible = false;
  const char* why = "";     // infeasibility reason (empty when feasible)
  SimTime downtime = 0;     // zero-throughput seconds before resuming
  SimTime lost_work = 0;    // work rolled back and redone
  SimTime step_after = 0;   // step time once training resumes
  // Predicted makespan from the decision point: downtime plus the remaining
  // (and redone) work at the post-recovery rate. The selection objective.
  SimTime future_seconds = 0;
  topo::SubmeshRect rect;   // kElasticShrink: the carved sub-mesh
};

// Useful-work seconds per wall second at a given step time: the slowdown
// ratio times the checkpoint-write discount tau / (tau + delta). This is the
// accrual rate the controller's timeline integrates, so pricing with it makes
// the predicted makespan directly comparable to the simulated one.
double EffectiveWorkRate(SimTime healthy_step, SimTime step, SimTime tau,
                         SimTime delta);

// Prices all five strategies for one diagnosis. Pure and deterministic:
// identical (context, diagnosis) give identical options in enum order.
std::vector<StrategyOption> PriceStrategies(const PricingContext& context,
                                            const Diagnosis& diagnosis);

// The feasible option with the minimum predicted makespan; ties resolve to
// the lightest strategy. Checkpoint restart is always feasible, so this
// never returns an infeasible option.
StrategyOption ChooseStrategy(const std::vector<StrategyOption>& options);

// One piecewise-constant throughput segment of the recovered run.
struct ThroughputInterval {
  SimTime start = 0;
  SimTime end = 0;
  double work_rate = 0;     // useful-work seconds per wall second
  SimTime step_seconds = 0; // 0 while stalled or recovering
  const char* mode = "";    // healthy / degraded / routed / shrunk /
                            // stalled / recovering
};

// One detect -> diagnose -> select -> execute -> verify pass.
struct RecoveryDecision {
  SimTime stall_start = 0;
  SimTime decided_at = 0;  // detection + any earlier failed attempts
  int attempt = 1;         // 1-based attempt number for this stall
  Strategy strategy = Strategy::kCheckpointRestart;
  bool transient_only = true;
  int dead_chips = 0;
  int failed_links = 0;
  int degraded_links = 0;
  SimTime predicted_downtime = 0;
  SimTime predicted_step_after = 0;
  // Predicted extra makespan attributable to this fault versus the fault-free
  // schedule: the stall already elapsed plus the priced future, minus what
  // the healthy machine would have needed. Tests hold the simulated extra
  // makespan within 10% of this.
  SimTime predicted_extra_seconds = 0;
  SimTime lost_work = 0;
  SimTime resumed_at = -1;  // filled when the verify step passes
  bool verified = false;
};

// The event-driven recovery timeline: fault -> decision -> downtime ->
// degraded-throughput intervals, composing into goodput.
struct RecoveryTimeline {
  SimTime total_work = 0;    // useful seconds the run had to complete
  SimTime base_seconds = 0;  // fault-free makespan (incl. checkpoint writes)
  SimTime makespan = 0;      // simulated clock when the work completed
  bool completed = false;    // false: the horizon expired first (truncated)

  int faults_applied = 0;
  int faults_healed = 0;
  int detections = 0;
  int micro_stalls = 0;  // stalls that healed before the alarm fired
  int probes = 0;
  int restarts = 0;
  SimTime lost_work_seconds = 0;  // total work rolled back and redone
  SimTime stalled_seconds = 0;    // total zero-throughput time

  std::vector<ThroughputInterval> intervals;
  std::vector<RecoveryDecision> decisions;

  // 0 for a truncated timeline: the work never finished.
  double goodput() const {
    if (!completed) return 0;
    return makespan > 0 ? base_seconds / makespan : 1.0;
  }

  // Stable JSON document (%.12g doubles): scalars, then decisions, then
  // intervals. Byte-identical across repeats and thread counts.
  std::string ToJson() const;

  // Dumps recovery.* counters/gauges/histograms (decision counts by
  // strategy, downtime and time-to-recover distributions, goodput) into
  // `metrics`. Counters add; call once per timeline.
  void ExportMetrics(trace::MetricsRegistry& metrics) const;
};

}  // namespace tpu::recover
