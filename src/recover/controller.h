// Event-driven recovery orchestration over the live simulation.
//
// The RecoveryController subscribes to a FaultInjector's apply/heal events
// and drives a per-fault state machine — detect -> diagnose -> select ->
// execute -> verify — on the same simulator clock the faults fire on. The
// run itself is modeled as a piecewise-constant work accumulator: between
// events, training accrues useful seconds at the current effective rate
// (healthy, silently degraded, routed or shrunk); a fault whose priced step
// overruns the detection deadline stalls the machine at rate zero until a
// recovery strategy restores an acceptable step time. The result is a
// RecoveryTimeline: every fault, decision, downtime and throughput interval
// on the simulated clock, composing into goodput.
//
// Determinism: the controller schedules plain simulator events, prices with
// the deterministic StepPricer oracles, and never consults wall-clock or
// randomness — a seeded fault schedule replays to a bit-identical timeline
// at any planner thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "fault/fault_injector.h"
#include "network/network.h"
#include "plan/plan_ir.h"
#include "recover/recovery.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace tpu::telemetry {
class TimeSeriesSampler;
}  // namespace tpu::telemetry

namespace tpu::recover {

struct ControllerConfig {
  RecoveryPolicy policy;
  RecoveryCosts costs;
  StepPricer pricer;
  // Useful training seconds the run must accumulate (the fault-free
  // makespan, before the checkpoint-write discount).
  SimTime total_work = 0;
  // The stall alarm: a priced step above this stalls the machine and fires
  // detection after exactly this long (the health monitor's deadline).
  SimTime detection_deadline = 0;
  // Checkpoint cadence tau in useful seconds; <= 0 disables checkpointing
  // (a rollback then redoes the whole run so far).
  SimTime checkpoint_interval = 0;
  // Mean transient durations for the memoryless residual-heal estimate.
  fault::FaultModelConfig faults;
  // Elastic-shrink carve quantum along X (the model-parallel group width).
  int x_granularity = 1;

  // --- Cluster-mode extension points. The defaults reproduce the
  //     single-job behaviour exactly; a cluster driver running many
  //     controllers on one shared machine overrides them so each job
  //     observes only its carved slice.

  // Mesh the controller diagnoses and prices against; nullptr = the
  // network's own topology. A cluster job passes its slice topology, so
  // every chip / link / host id the controller handles is slice-local.
  const topo::MeshTopology* mesh = nullptr;
  // Link-health observation; null = LinkHealthSet::FromNetwork(network). A
  // cluster job reads only its slice's interior links, translated to
  // slice-local ids.
  std::function<plan::LinkHealthSet()> observe_health;
  // Restores one mesh-local link after an in-place restart; null = the
  // network's RestoreLink.
  std::function<void(topo::LinkId)> restore_link;
  // When false the caller owns the injector's observer hooks and dispatches
  // events via HandleFault / HandleHeal — required when several controllers
  // share one injector.
  bool auto_subscribe = true;
  // Cluster semantics for kCheckpointRestart: instead of restoring links in
  // place, the job leaves the machine — rollback to the last checkpoint,
  // close the books (timeline.completed stays false) and fire on_restart so
  // the caller can requeue the remaining work elsewhere.
  bool reschedule_on_restart = false;
  // Fired right after the work completes (cluster: free the slice).
  std::function<void()> on_finished;
  // Fired when an elastic shrink commits, with the carved mesh-local rect
  // (cluster: shrink the allocation and free the complement).
  std::function<void(const topo::SubmeshRect&)> on_shrunk;
  // Fired when reschedule_on_restart sends the job back to the queue.
  std::function<void()> on_restart;
};

class RecoveryController {
 public:
  // The network and injector must outlive the controller's run; the caller
  // arms the injector (Arm / ArmScripted) and may arm later horizons of the
  // same injector while the run goes on.
  RecoveryController(net::Network* network, fault::FaultInjector* injector,
                     ControllerConfig config);

  // Starts accruing work at the current simulated time and, with
  // auto_subscribe, registers the controller as the injector's apply/heal
  // observer. The controller never runs the simulator: the caller owns the
  // event loop (RunUntil for one job, the cluster's loop for many) until
  // finished(), or calls Stop() to cut the run short. Call once.
  void Begin();
  // Dispatch one injector event to this controller (auto_subscribe=false).
  void HandleFault(const fault::FaultEvent& event) { OnFault(event); }
  void HandleHeal(const fault::FaultEvent& event) { OnHeal(event); }
  // Ends the run and returns the timeline. Before the work completed —
  // preemption, migration, or a last fault horizon that expired — it closes
  // the books at the current simulated time (completed stays false) and
  // retires every pending callback; further events are ignored. After
  // completion it returns the finished timeline unchanged.
  RecoveryTimeline Stop();
  const RecoveryTimeline& timeline() const { return timeline_; }

  // Instantaneous state for telemetry probes (RegisterRecoveryProbes) and
  // the sampler's stop predicate. Safe to call at any simulated time.
  double work_rate() const { return rate_; }
  SimTime step_seconds() const { return step_seconds_; }
  SimTime work_done() const { return work_done_; }
  // 0 running, 1 stalled, 2 waiting (backoff probes), 3 executing.
  int mode_index() const { return static_cast<int>(mode_); }
  int active_fault_count() const {
    return static_cast<int>(active_faults_.size());
  }
  bool finished() const { return done_; }
  double healthy_rate() const { return RateFor(config_.pricer.healthy_step); }

 private:
  // Control state: kRunning accrues work; kStalled is the pre-detection
  // window (a heal here resolves the stall silently); kWaiting is the
  // backoff probe loop; kExecuting is a strategy's downtime.
  enum class Mode { kRunning, kStalled, kWaiting, kExecuting };
  // What schedule the machine is executing while running.
  enum class ExecMode { kNormal, kRouted, kShrunk };

  void OnFault(const fault::FaultEvent& event);
  void OnHeal(const fault::FaultEvent& event);
  void OnDetect(std::uint64_t stall_seq);
  void OnProbe(std::uint64_t decision_seq, SimTime gap);
  void OnVerify(std::uint64_t decision_seq);
  void OnFinish(std::uint64_t rate_epoch);

  // Mode-aware step estimate under the network's current link state.
  SimTime CurrentStepEstimate();
  Diagnosis Diagnose() const;
  const topo::MeshTopology& mesh() const {
    return config_.mesh != nullptr ? *config_.mesh : network_->topology();
  }
  plan::LinkHealthSet ObserveHealth() const;
  PricingContext Context();
  void Decide();
  void EnterStall();
  void CompleteDecision(SimTime step_after);
  void Rollback();
  // No active fault touches the carved rectangle's chips or interior links.
  bool RectClean(const topo::SubmeshRect& rect) const;

  void AdvanceWork();
  void CloseInterval();
  void SetRate(SimTime step_seconds, const char* label);
  double RateFor(SimTime step) const;
  const char* LabelFor(SimTime step) const;
  void TraceInstant(const char* name);
  void TelemetryEvent(const char* name, const char* detail = nullptr);

  net::Network* network_;
  fault::FaultInjector* injector_;
  ControllerConfig config_;
  sim::Simulator* sim_;

  RecoveryTimeline timeline_;
  Mode mode_ = Mode::kRunning;
  ExecMode exec_mode_ = ExecMode::kNormal;
  double rate_ = 0;
  SimTime step_seconds_ = 0;
  SimTime interval_start_ = 0;
  const char* interval_label_ = "healthy";
  SimTime work_done_ = 0;
  SimTime last_advance_ = 0;
  bool done_ = false;
  bool begun_ = false;

  // Epoch guards: the simulator has no event cancellation, so every
  // scheduled callback carries the epoch it was issued under and no-ops if
  // the state moved on.
  std::uint64_t rate_epoch_ = 0;      // guards the finish event
  std::uint64_t stall_seq_ = 0;       // guards the detection event
  std::uint64_t decision_seq_ = 0;    // guards probes and verify

  SimTime stall_start_ = -1;
  int attempt_ = 0;
  unsigned exhausted_ = 0;
  int spares_left_ = 0;
  std::vector<fault::FaultEvent> active_faults_;
  StrategyOption pending_;
  topo::SubmeshRect rect_;
  SimTime shrunk_step_ = 0;
};

// Wires the controller's run-level signals into the sampler: run.work_rate
// (feeds the goodput-SLO watchdog), run.step_seconds (feeds the step-time
// regression watchdog; 0 while stalled), run.work_done, run.mode and
// run.active_faults. The controller must outlive the sampler's run.
void RegisterRecoveryProbes(telemetry::TimeSeriesSampler& sampler,
                            const RecoveryController& controller);

}  // namespace tpu::recover
