// The multi-tenant cluster driver: a stream of heterogeneous jobs carved
// onto shared pods, one fault domain.
//
// The paper dedicates a whole multipod to one training run; a production
// fleet time- and space-shares the same pods. ClusterSimulation runs a
// deterministic job stream (cluster/workload.h) through the SliceScheduler's
// topology-aware carving (cluster/scheduler.h) on ONE simulated machine:
// one Simulator clock, one Network, one FaultInjector. A dead cross-pod
// cable therefore degrades every co-located job at once — the injector's
// apply/heal events are dispatched to each admitted job whose slice the
// fault touches, translated into that job's slice-local chip/link/host ids,
// and each job's RecoveryController prices its own recovery independently
// (one shrinks in place, a neighbor checkpoint-restarts back to the queue).
//
// Scheduling semantics:
//   * first-fit / best-fit — FCFS with head-of-line blocking.
//   * backfill — lower-priority jobs behind a blocked head may run; the
//     head may preempt strictly-lower-priority victims (priced as an
//     on-demand checkpoint write + restore, no work lost).
//   * requeued jobs (preempted or restarted) may be readmitted shrunk-to-fit
//     down to min_readmit_fraction of their requested chips — remaining
//     work is denominated in steps, so it carries across shapes.
//   * optional defragmentation: relocate running jobs (each move priced as
//     checkpoint-restore) when that unblocks the queue head.
//
// Everything runs on the simulated clock with seeded randomness only, so a
// cluster run — timeline, report JSON, every decision — is bit-identical
// across repeats and planner thread counts.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/report.h"
#include "cluster/scheduler.h"
#include "cluster/workload.h"
#include "core/multipod.h"
#include "fault/fault_injector.h"
#include "network/network.h"
#include "plan/cache.h"
#include "plan/cost.h"
#include "plan/plan_ir.h"
#include "recover/controller.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace tpu::telemetry {
class TimeSeriesSampler;
}  // namespace tpu::telemetry

namespace tpu::cluster {

struct ClusterConfig {
  // The shared machine: pods side by side along X (default two 8x8 pods —
  // one cross-pod boundary at x=7).
  topo::TopologyConfig topology{.pod_size_x = 8, .pod_size_y = 8,
                                .num_pods = 2};
  core::SystemOptions system;
  frameworks::Framework framework = frameworks::Framework::kTensorFlow;

  CarvePolicy policy = CarvePolicy::kBackfill;
  SimTime horizon = Hours(2);

  // Cluster-wide fault model (one injector for every tenant). When
  // scripted_faults is non-empty it is armed instead of the MTBF schedule.
  fault::FaultModelConfig faults;
  std::vector<fault::FaultEvent> scripted_faults;

  fault::HealthMonitorConfig monitor;
  fault::CheckpointConfig checkpoint;
  // Checkpoint cadence tau (useful seconds) for every job; also the basis
  // of preemption cost (write + restore).
  SimTime checkpoint_interval = Seconds(120);

  // Default per-job recovery policy; enabled is forced on and the spare-host
  // pool forced off (a tenant cannot attach cluster spares). Per-job
  // overrides let a scenario give tenants different tolerances (e.g. one
  // refuses to shrink below 75%).
  recover::RecoveryPolicy recovery;
  std::map<int, recover::RecoveryPolicy> job_recovery_overrides;

  // Requeued jobs may be readmitted on a halved shape down to this fraction
  // of their requested chips; 1.0 disables shrink-to-fit readmission.
  double min_readmit_fraction = 0.5;

  // Defragmentation: relocate running jobs to admit a blocked head when the
  // summed migration cost (checkpoint write + restore per victim) stays
  // under the budget.
  bool enable_defrag = false;
  SimTime max_migration_seconds = Seconds(120);

  std::string label = "cluster";  // telemetry run label
};

// The canonical shared-fault scenario: every directed link crossing the pod
// boundary at x = boundary_x -> boundary_x + 1 flaps at `at` (duration 0 =
// permanent, degrade 1024x — an effectively dead optical cable that the
// depth-counted link state can still heal if a duration is given). Events
// are ordered by y, +x direction before -x.
std::vector<fault::FaultEvent> CrossPodCableFault(const topo::MeshTopology& topo,
                                                  int boundary_x, SimTime at,
                                                  SimTime duration = 0);

class ClusterSimulation {
 public:
  // Jobs with arrival >= horizon are dropped up front (they could never be
  // admitted); the rest keep their ids.
  ClusterSimulation(ClusterConfig config, std::vector<JobSpec> jobs);
  ~ClusterSimulation();

  ClusterSimulation(const ClusterSimulation&) = delete;
  ClusterSimulation& operator=(const ClusterSimulation&) = delete;

  // Runs the cluster to completion or the horizon and builds the report.
  // Call once.
  ClusterReport Run();

  // Instantaneous state for telemetry probes (RegisterClusterProbes) and
  // the sampler's stop predicate.
  int running_jobs() const;
  int queued_jobs() const { return static_cast<int>(queue_.size()); }
  int busy_chips() const { return scheduler_.busy_chips(); }
  int free_chips() const { return scheduler_.free_chips(); }
  double fragmentation() const { return scheduler_.Fragmentation(); }
  bool all_done() const { return completed_ == jobs_to_run_; }

  const sim::Simulator& simulator() const { return sim_; }

 private:
  // Everything needed to run and price one slice shape, memoized cluster-
  // wide by (size_x, size_y, wrap_y, benchmark, global_batch): the carved
  // rect is itself a legal Slice topology, so one throwaway MultipodSystem
  // prices the healthy step, and the planner oracles run on the slice mesh.
  struct ShapePricing {
    topo::TopologyConfig slice_config;
    std::unique_ptr<topo::MeshTopology> topo;
    SimTime healthy_step = 0;
    SimTime healthy_allreduce = 0;
    plan::PlanRequest request;
    // The paper plan's closed-form comm estimate on the slice, re-priced
    // per health set from the groups a fault touches.
    std::unique_ptr<plan::PlanRepricer> comm;
    std::shared_ptr<plan::PlanCache> cache;
    SimTime detection_deadline = 0;
    fault::CheckpointCosts checkpoint;
    SimTime restart_seconds = 0;  // restore + framework re-init
  };
  using PricingKey = std::tuple<int, int, bool, int, std::int64_t>;

  // One admission of one job onto one carved rect. Incarnations stay alive
  // (live = false once stopped) for the whole run: controllers own pending
  // simulator callbacks and must not be destroyed from inside them.
  struct Incarnation {
    int job = -1;
    topo::SubmeshRect rect;         // as carved (slice-local id base)
    topo::SubmeshRect active_rect;  // shrinks when a shrink commits
    std::shared_ptr<ShapePricing> pricing;
    // Slice link id -> cluster link id, in slice-link-id order.
    std::vector<topo::LinkId> slice_to_cluster;
    std::unique_ptr<recover::RecoveryController> controller;
    // Faults delivered to this controller (original, translated): heals are
    // matched against the original so a shrunk active_rect cannot strand an
    // active fault.
    std::vector<std::pair<fault::FaultEvent, fault::FaultEvent>> delivered;
    bool live = false;
  };

  struct JobState {
    JobSpec spec;
    double remaining_steps = 0;
    bool requeued = false;       // eligible for shrink-to-fit readmission
    SimTime ready_at = 0;        // earliest (re)admission time
    SimTime queued_since = -1;   // start of the current queued stretch
    SimTime pending_resume = 0;  // allocation-to-start delay (restore/restart)
    std::uint64_t resume_seq = 0;  // guards the scheduled StartIncarnation
    Incarnation* active = nullptr;
    JobOutcome outcome;
  };

  std::shared_ptr<ShapePricing> PricingFor(int size_x, int size_y,
                                           models::Benchmark benchmark,
                                           std::int64_t global_batch);
  bool RectAdmissible(const topo::SubmeshRect& rect) const;

  // Scheduling order: higher priority first, then earlier arrival, then
  // lower id.
  bool QueuedBefore(int a, int b) const;
  // Inserts a job entering the queue (submit or requeue) in order.
  void Enqueue(int job);
  void OnSubmit(int job);
  void SchedulePass();
  void Admit(int job, const topo::SubmeshRect& rect);
  void StartIncarnation(int job, std::uint64_t resume_seq);
  void Preempt(int job);
  void Migrate(int job, const topo::SubmeshRect& to);
  void Requeue(int job, SimTime ready_at, SimTime pending_resume);
  // Stops the live incarnation (if any) and folds its timeline into the
  // job's outcome and remaining steps. Does not release the allocation.
  void StopIncarnation(int job);
  void MergeTimeline(JobState& job, const recover::RecoveryTimeline& timeline);
  recover::StepPricer BuildPricer(Incarnation* inc);
  plan::LinkHealthSet ObserveSliceHealth(const Incarnation& inc) const;

  void OnJobFinished(Incarnation* inc);
  void OnJobShrunk(Incarnation* inc, const topo::SubmeshRect& slice_rect);
  void OnJobRestart(Incarnation* inc);

  void OnFaultApplied(const fault::FaultEvent& event);
  void OnFaultHealed(const fault::FaultEvent& event);
  // Slice-local translation of a cluster fault event; false when the event
  // is not interior to `active_rect` (merely crossing faults are observable
  // but not the job's own hardware).
  bool TranslateEvent(const Incarnation& inc, const fault::FaultEvent& event,
                      fault::FaultEvent* translated) const;

  // Integrates busy-chip and fragmentation state over time. Call BEFORE any
  // occupancy mutation, and once more at `elapsed` when the run ends.
  void UpdateOccupancy(SimTime upto);
  void RecordEvent(const char* kind, int job, const topo::SubmeshRect& rect);

  recover::RecoveryPolicy PolicyFor(int job) const;
  std::string TopologyString() const;

  ClusterConfig config_;
  topo::MeshTopology topo_;
  sim::Simulator sim_;
  net::Network network_;
  fault::FaultInjector injector_;
  SliceScheduler scheduler_;

  std::vector<JobState> jobs_;  // by job id (dropped arrivals excluded)
  // Submitted jobs waiting for a slot, in scheduling order (QueuedBefore),
  // ready or still writing a preemption checkpoint.
  std::vector<int> queue_;
  std::vector<std::unique_ptr<Incarnation>> incarnations_;
  std::map<PricingKey, std::shared_ptr<ShapePricing>> pricing_;
  // Permanently failed links (both endpoints, cluster coords): the rect
  // filter refuses slices that would enclose one.
  std::vector<std::pair<topo::Coord, topo::Coord>> dead_links_;

  std::vector<SchedulerEvent> events_;
  int jobs_to_run_ = 0;
  int completed_ = 0;
  int preemptions_ = 0;
  int migrations_ = 0;
  int shrinks_ = 0;
  int requeues_ = 0;
  SimTime last_activity_ = 0;
  double busy_integral_ = 0;
  double frag_integral_ = 0;
  double frag_max_ = 0;
  SimTime occupancy_last_ = 0;
  bool ran_ = false;
};

// Wires the cluster's fleet-level signals into the sampler:
// cluster.running_jobs, cluster.queued_jobs, cluster.busy_chips,
// cluster.free_chips, cluster.fragmentation. The cluster must outlive the
// sampler's run.
void RegisterClusterProbes(telemetry::TimeSeriesSampler& sampler,
                           const ClusterSimulation& cluster);

}  // namespace tpu::cluster
