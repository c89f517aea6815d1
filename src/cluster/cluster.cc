#include "cluster/cluster.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <tuple>

#include "common/check.h"
#include "fault/checkpoint.h"
#include "fault/health_monitor.h"
#include "frameworks/runtime_model.h"
#include "plan/cost.h"
#include "plan/generator.h"
#include "plan/plan_ir.h"
#include "sim/run_context.h"
#include "telemetry/probes.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "trace/metrics.h"

namespace tpu::cluster {
namespace {

// Job lifecycle states. Pointer identity is the comparison (every assignment
// uses these constants), and the pointers land verbatim in JobOutcome.state.
constexpr const char* kQueued = "queued";
constexpr const char* kReserved = "reserved";
constexpr const char* kRunning = "running";
constexpr const char* kCompleted = "completed";

}  // namespace

std::vector<fault::FaultEvent> CrossPodCableFault(
    const topo::MeshTopology& topo, int boundary_x, SimTime at,
    SimTime duration) {
  TPU_CHECK(topo.IsCrossPodBoundary(boundary_x));
  std::vector<fault::FaultEvent> events;
  for (int y = 0; y < topo.size_y(); ++y) {
    const topo::ChipId near = topo.ChipAt({boundary_x, y});
    const topo::ChipId far = topo.ChipAt({boundary_x + 1, y});
    for (const auto& [from, to] :
         {std::pair<topo::ChipId, topo::ChipId>{near, far},
          std::pair<topo::ChipId, topo::ChipId>{far, near}}) {
      fault::FaultEvent event;
      event.kind = fault::FaultKind::kLinkFlap;
      event.at = at;
      event.duration = duration;
      event.link = topo.LinkBetween(from, to);
      event.degrade_factor = 1024.0;
      events.push_back(event);
    }
  }
  return events;
}

ClusterSimulation::ClusterSimulation(ClusterConfig config,
                                     std::vector<JobSpec> jobs)
    : config_(std::move(config)),
      topo_(config_.topology),
      network_(&topo_, config_.system.network, &sim_),
      injector_(&network_, config_.faults),
      scheduler_(topo_.size_x(), topo_.size_y()) {
  scheduler_.set_rect_filter(
      [this](const topo::SubmeshRect& rect) { return RectAdmissible(rect); });
  for (JobSpec& spec : jobs) {
    if (spec.arrival >= config_.horizon) continue;
    JobState job;
    job.spec = std::move(spec);
    job.remaining_steps = job.spec.steps;
    job.outcome.spec = job.spec;
    job.outcome.state = kQueued;
    jobs_.push_back(std::move(job));
  }
  jobs_to_run_ = static_cast<int>(jobs_.size());
}

ClusterSimulation::~ClusterSimulation() = default;

std::shared_ptr<ClusterSimulation::ShapePricing> ClusterSimulation::PricingFor(
    int size_x, int size_y, models::Benchmark benchmark,
    std::int64_t global_batch) {
  // A carve keeps the Y wrap links only when it spans the cluster's full Y
  // extent (TopologyConfig::Slice semantics).
  const bool wrap_y = config_.topology.wrap_y && size_y == topo_.size_y();
  const PricingKey key{size_x, size_y, wrap_y, static_cast<int>(benchmark),
                       global_batch};
  const auto it = pricing_.find(key);
  if (it != pricing_.end()) return it->second;

  auto pricing = std::make_shared<ShapePricing>();
  pricing->slice_config = topo::TopologyConfig::Slice(size_x, size_y, wrap_y);
  pricing->topo = std::make_unique<topo::MeshTopology>(pricing->slice_config);
  pricing->cache = std::make_shared<plan::PlanCache>();
  const models::ModelSpec& spec = models::GetModelSpec(benchmark);
  {
    sim::ScopedSilence silence;
    core::MultipodSystem system(pricing->slice_config, config_.system);
    const core::StepBreakdown step =
        system.SimulateStep(spec, global_batch, 1, nullptr);
    pricing->healthy_step = step.step();
    pricing->healthy_allreduce = step.allreduce;
  }
  pricing->request.elems = std::max<std::int64_t>(1, spec.parameters);
  pricing->request.model_parallel_stride = 1;
  pricing->request.allow_bfloat16 = config_.system.bfloat16_gradients;
  pricing->request.allow_bidirectional = config_.system.bidirectional_rings;
  {
    sim::ScopedSilence silence;
    pricing->comm = std::make_unique<plan::PlanRepricer>(
        *pricing->topo, config_.system.network,
        plan::LowerPlan(*pricing->topo, plan::PaperPlan(pricing->request),
                        pricing->request.elems));
  }
  pricing->detection_deadline =
      fault::HealthMonitor(config_.monitor).DeadlineFor(pricing->healthy_step);
  pricing->checkpoint = fault::EstimateCheckpointCosts(
      spec, pricing->topo->num_hosts(), config_.checkpoint);
  pricing->restart_seconds =
      pricing->checkpoint.restore_seconds +
      frameworks::EstimateInitTime(config_.framework, benchmark,
                                   pricing->topo->num_chips())
          .total();
  pricing_[key] = pricing;
  return pricing;
}

bool ClusterSimulation::RectAdmissible(const topo::SubmeshRect& rect) const {
  // A slice must not enclose a permanently failed link: both endpoints
  // inside means the dead cable is interior hardware the job cannot avoid.
  for (const auto& [from, to] : dead_links_) {
    if (rect.Contains(from) && rect.Contains(to)) return false;
  }
  return true;
}

recover::RecoveryPolicy ClusterSimulation::PolicyFor(int job) const {
  const auto it = config_.job_recovery_overrides.find(jobs_[job].spec.id);
  recover::RecoveryPolicy policy = it != config_.job_recovery_overrides.end()
                                       ? it->second
                                       : config_.recovery;
  policy.enabled = true;
  // Tenants have no private standby pool; spare capacity is the queue's.
  policy.allow_spare_swap_in = false;
  policy.spare_hosts = 0;
  return policy;
}

std::string ClusterSimulation::TopologyString() const {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%dx(%dx%d)", config_.topology.num_pods,
                config_.topology.pod_size_x, config_.topology.pod_size_y);
  return buffer;
}

int ClusterSimulation::running_jobs() const {
  int count = 0;
  for (const JobState& job : jobs_) {
    count += job.outcome.state == kRunning || job.outcome.state == kReserved;
  }
  return count;
}

bool ClusterSimulation::QueuedBefore(int a, int b) const {
  const JobSpec& ja = jobs_[a].spec;
  const JobSpec& jb = jobs_[b].spec;
  if (ja.priority != jb.priority) return ja.priority > jb.priority;
  if (ja.arrival != jb.arrival) return ja.arrival < jb.arrival;
  return a < b;
}

void ClusterSimulation::Enqueue(int job) {
  queue_.insert(std::upper_bound(queue_.begin(), queue_.end(), job,
                                 [this](int a, int b) {
                                   return QueuedBefore(a, b);
                                 }),
                job);
}

ClusterReport ClusterSimulation::Run() {
  TPU_CHECK(!ran_);
  ran_ = true;

  injector_.set_on_apply(
      [this](const fault::FaultEvent& event) { OnFaultApplied(event); });
  injector_.set_on_heal(
      [this](const fault::FaultEvent& event) { OnFaultHealed(event); });
  if (!config_.scripted_faults.empty()) {
    injector_.ArmScripted(config_.scripted_faults);
  } else if (config_.faults.any_enabled()) {
    injector_.Arm(config_.horizon);
  }

  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    JobState& job = jobs_[i];
    // Price the requested shape up front: the goodput numerator is the
    // fault-free seconds of the shape the user asked for, whether or not
    // churn ever lets the job run whole.
    job.outcome.ideal_seconds =
        job.spec.steps * PricingFor(job.spec.size_x, job.spec.size_y,
                                    job.spec.benchmark, job.spec.global_batch)
                             ->healthy_step;
    sim_.ScheduleAt(job.spec.arrival,
                    [this, i] { OnSubmit(static_cast<int>(i)); });
  }

  // Continuous telemetry over the cluster run (same session pattern as the
  // recovery rounds): fleet probes tick on telemetry-class events, so every
  // work timestamp is bit-identical with sampling on or off.
  telemetry::TelemetrySession* session = telemetry::CurrentTelemetry();
  std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
  if (session != nullptr) {
    session->BeginRun("cluster/" + config_.label, sim_.now());
    sampler = std::make_unique<telemetry::TimeSeriesSampler>(&sim_, session);
    RegisterClusterProbes(*sampler, *this);
    telemetry::RegisterNetworkProbes(*sampler, network_);
    telemetry::RegisterSimulatorProbes(*sampler, sim_);
    sampler->set_stop_predicate([this] { return all_done(); });
    sampler->Start();
  }

  // kAdvanceToDeadline pins now() to the horizon even when the queue drains
  // early, so truncation timestamps below never depend on whether a sampler
  // (or any other trailing event) kept the clock busy.
  sim_.RunUntil(config_.horizon,
                sim::Simulator::DeadlinePolicy::kAdvanceToDeadline);

  const SimTime elapsed = all_done() ? last_activity_ : config_.horizon;

  // Horizon truncation: close every live incarnation's books, then flush
  // the final queued stretches.
  for (std::size_t i = 0; i < incarnations_.size(); ++i) {
    Incarnation* inc = incarnations_[i].get();
    if (!inc->live) continue;
    RecordEvent("stop", inc->job, inc->active_rect);
    StopIncarnation(inc->job);
  }
  for (JobState& job : jobs_) {
    if (job.queued_since >= 0) {
      job.outcome.wait_seconds += elapsed - job.queued_since;
      job.queued_since = -1;
    }
  }
  UpdateOccupancy(elapsed);
  if (session != nullptr) session->CommitRun();

  ClusterReport report;
  report.policy = CarvePolicyName(config_.policy);
  report.topology = TopologyString();
  report.horizon = config_.horizon;
  report.elapsed = elapsed;
  report.jobs_submitted = jobs_to_run_;
  report.jobs_completed = completed_;
  report.faults_injected = static_cast<int>(injector_.injected().size());
  report.preemptions = preemptions_;
  report.migrations = migrations_;
  report.shrinks = shrinks_;
  report.requeues = requeues_;
  report.fragmentation_max = frag_max_;
  if (elapsed > 0) {
    report.utilization =
        busy_integral_ / (static_cast<double>(scheduler_.total_chips()) *
                          elapsed);
    report.fragmentation_mean = frag_integral_ / elapsed;
  }

  std::vector<double> waits;
  double ideal_sum = 0;
  double span_sum = 0;
  for (const JobState& job : jobs_) {
    if (job.outcome.state == kRunning || job.outcome.state == kReserved) {
      ++report.jobs_running_at_end;
    } else if (job.outcome.state == kQueued) {
      ++report.jobs_queued_at_end;
    }
    if (job.outcome.finished_at >= 0) {
      ideal_sum += job.outcome.ideal_seconds;
      span_sum += job.outcome.finished_at - job.spec.arrival;
    }
    waits.push_back(job.outcome.wait_seconds);
    report.jobs.push_back(job.outcome);
  }
  report.wait_p50 = NearestRankPercentile(waits, 50);
  report.wait_p99 = NearestRankPercentile(waits, 99);
  report.goodput = span_sum > 0 ? ideal_sum / span_sum : 0;
  report.events = events_;

  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    report.ExportMetrics(*metrics);
  }
  return report;
}

void ClusterSimulation::OnSubmit(int job) {
  JobState& state = jobs_[job];
  state.queued_since = sim_.now();
  Enqueue(job);
  RecordEvent("submit", job, {});
  SchedulePass();
}

void ClusterSimulation::SchedulePass() {
  const SimTime now = sim_.now();
  // Two phases: every wake-up for a job still writing its preemption
  // checkpoint is scheduled before any admission. The ready jobs are
  // snapshotted in queue order, since admissions and requeues edit queue_.
  std::vector<int> ready;
  for (const int i : queue_) {
    if (jobs_[i].ready_at > now) {
      sim_.ScheduleAt(jobs_[i].ready_at, [this] { SchedulePass(); });
      continue;
    }
    ready.push_back(i);
  }
  if (ready.empty()) return;

  // Shapes that found no slot. Allocations, dead chips and dead links only
  // take slots away, so a failed shape keeps failing until a release or a
  // shrink moves the scheduler's free epoch.
  std::vector<std::pair<int, int>> unfit;
  std::uint64_t unfit_epoch = scheduler_.free_epoch();
  const auto find_slot = [&](int w, int h) {
    if (scheduler_.free_epoch() != unfit_epoch) {
      unfit.clear();
      unfit_epoch = scheduler_.free_epoch();
    }
    const std::pair<int, int> shape{w, h};
    if (std::find(unfit.begin(), unfit.end(), shape) != unfit.end()) {
      return topo::SubmeshRect{};
    }
    const topo::SubmeshRect slot = scheduler_.FindSlot(w, h, config_.policy);
    if (slot.empty()) unfit.push_back(shape);
    return slot;
  };

  bool head = true;
  for (const int index : ready) {
    JobState& job = jobs_[index];
    const bool was_head = head;
    head = false;
    if (job.outcome.state != kQueued) continue;
    const int w = job.spec.size_x;
    const int h = job.spec.size_y;
    topo::SubmeshRect slot = find_slot(w, h);
    if (slot.empty() && job.requeued && config_.min_readmit_fraction < 1.0) {
      // Shrink-to-fit readmission: alternately halve the larger dimension
      // until something fits or the shape drops under the floor. Remaining
      // work is in steps, so it carries onto the smaller slice.
      int cw = w;
      int ch = h;
      while (slot.empty()) {
        if (cw >= ch) {
          cw /= 2;
        } else {
          ch /= 2;
        }
        if (cw < 1 || ch < 1) break;
        if (cw * ch < config_.min_readmit_fraction * w * h) break;
        slot = find_slot(cw, ch);
      }
    }
    if (!slot.empty()) {
      Admit(index, slot);
      continue;
    }
    if (was_head && config_.policy == CarvePolicy::kBackfill) {
      // Priority preemption for the blocked head: victims must be strictly
      // lower priority, and the plan minimizes victim count.
      const int priority = job.spec.priority;
      const SliceScheduler::PreemptionPlan preemption =
          scheduler_.FindPreemption(w, h, [this, priority](int owner) {
            return jobs_[owner].spec.priority < priority;
          });
      if (preemption.found) {
        for (const int victim : preemption.victims) Preempt(victim);
        Admit(index, preemption.rect);
        continue;
      }
      if (config_.enable_defrag) {
        const SliceScheduler::MigrationPlan migration =
            scheduler_.FindMigration(w, h);
        if (migration.found) {
          SimTime cost = 0;
          for (const auto& [victim, to] : migration.moves) {
            const topo::SubmeshRect current =
                scheduler_.allocations().at(victim);
            const auto pricing =
                PricingFor(current.size_x, current.size_y,
                           jobs_[victim].spec.benchmark,
                           jobs_[victim].spec.global_batch);
            cost += pricing->checkpoint.write_seconds +
                    pricing->checkpoint.restore_seconds;
          }
          if (cost <= config_.max_migration_seconds) {
            for (const auto& [victim, to] : migration.moves) {
              Migrate(victim, to);
            }
            Admit(index, migration.rect);
            continue;
          }
        }
      }
    }
    // Head-of-line blocking: FCFS policies stop at the blocked head;
    // backfill keeps walking the queue.
    if (config_.policy != CarvePolicy::kBackfill) break;
  }
}

void ClusterSimulation::Admit(int job, const topo::SubmeshRect& rect) {
  JobState& state = jobs_[job];
  queue_.erase(std::find(queue_.begin(), queue_.end(), job));
  UpdateOccupancy(sim_.now());
  scheduler_.Allocate(job, rect);
  frag_max_ = std::max(frag_max_, scheduler_.Fragmentation());
  const SimTime now = sim_.now();
  state.outcome.wait_seconds += now - state.queued_since;
  state.queued_since = -1;
  ++state.outcome.admissions;
  const bool first = state.outcome.first_admitted_at < 0;
  if (first) state.outcome.first_admitted_at = now;
  state.outcome.last_rect = rect;
  state.outcome.state = kReserved;
  RecordEvent(first ? "admit" : "resume", job, rect);
  const std::uint64_t seq = ++state.resume_seq;
  const SimTime delay = state.pending_resume;
  state.pending_resume = 0;
  if (delay > 0) {
    sim_.ScheduleAt(now + delay,
                    [this, job, seq] { StartIncarnation(job, seq); });
  } else {
    StartIncarnation(job, seq);
  }
}

recover::StepPricer ClusterSimulation::BuildPricer(Incarnation* inc) {
  const std::shared_ptr<ShapePricing> pricing = inc->pricing;
  const net::NetworkConfig netcfg = config_.system.network;
  recover::StepPricer pricer;
  pricer.healthy_step = pricing->healthy_step;
  // The slice-local link snapshot scales the healthy all-reduce share, as in
  // MultipodSystem::SimulateTrainingUnderFailures.
  pricer.degraded_step = [pricing](const plan::LinkHealthSet& health) {
    return recover::DegradedStepSeconds(pricing->healthy_step,
                                        pricing->healthy_allreduce,
                                        *pricing->comm, health);
  };
  pricer.replanned_step = [pricing, netcfg](const plan::LinkHealthSet& health) {
    return recover::ReplannedStepSeconds(
        pricing->healthy_step, pricing->healthy_allreduce, *pricing->topo,
        netcfg, pricing->request, pricing->cache.get(), health);
  };
  // The cluster-wide shape memo doubles as the shrunk-step oracle: a carved
  // sub-rect is just another slice shape.
  const models::Benchmark benchmark = jobs_[inc->job].spec.benchmark;
  const std::int64_t batch = jobs_[inc->job].spec.global_batch;
  pricer.shrunk_step = [this, benchmark, batch](const topo::SubmeshRect& rect) {
    return PricingFor(rect.size_x, rect.size_y, benchmark, batch)
        ->healthy_step;
  };
  return pricer;
}

plan::LinkHealthSet ClusterSimulation::ObserveSliceHealth(
    const Incarnation& inc) const {
  // Slice link ids ascend with the loop, so both vectors come out sorted —
  // the same invariant LinkHealthSet::FromNetwork maintains.
  plan::LinkHealthSet health;
  for (std::size_t i = 0; i < inc.slice_to_cluster.size(); ++i) {
    const topo::LinkId cluster_link = inc.slice_to_cluster[i];
    const topo::LinkId slice_link = static_cast<topo::LinkId>(i);
    if (network_.LinkFailed(cluster_link)) {
      health.failed.push_back(slice_link);
    } else {
      const double degradation = network_.LinkDegradation(cluster_link);
      if (degradation != 1.0) health.degraded.emplace_back(slice_link,
                                                           degradation);
    }
  }
  return health;
}

void ClusterSimulation::StartIncarnation(int job, std::uint64_t resume_seq) {
  JobState& state = jobs_[job];
  if (state.resume_seq != resume_seq || state.outcome.state != kReserved) {
    return;  // preempted (or re-placed) while waiting out the resume delay
  }
  const topo::SubmeshRect rect = scheduler_.allocations().at(job);
  auto owned = std::make_unique<Incarnation>();
  Incarnation* inc = owned.get();
  inc->job = job;
  inc->rect = rect;
  inc->active_rect = rect;
  inc->pricing = PricingFor(rect.size_x, rect.size_y, state.spec.benchmark,
                            state.spec.global_batch);

  // Slice link id -> cluster link id: map each slice link's endpoint coords
  // through the rect offset. Wrap-Y links only exist when the slice spans
  // the cluster's full Y extent, where the cluster has the same wrap link.
  const topo::MeshTopology& slice = *inc->pricing->topo;
  inc->slice_to_cluster.reserve(slice.links().size());
  for (const topo::Link& link : slice.links()) {
    const topo::Coord from = slice.CoordOf(link.from);
    const topo::Coord to = slice.CoordOf(link.to);
    inc->slice_to_cluster.push_back(topo_.LinkBetween(
        topo_.ChipAt({rect.x0 + from.x, rect.y0 + from.y}),
        topo_.ChipAt({rect.x0 + to.x, rect.y0 + to.y})));
  }

  recover::ControllerConfig cc;
  cc.policy = PolicyFor(job);
  cc.costs.checkpoint_write = inc->pricing->checkpoint.write_seconds;
  cc.costs.restore_seconds = inc->pricing->checkpoint.restore_seconds;
  cc.costs.restart_seconds = inc->pricing->restart_seconds;
  cc.pricer = BuildPricer(inc);
  cc.total_work = state.remaining_steps * inc->pricing->healthy_step;
  cc.detection_deadline = inc->pricing->detection_deadline;
  cc.checkpoint_interval = config_.checkpoint_interval;
  cc.faults = config_.faults;
  cc.x_granularity = 1;
  cc.mesh = inc->pricing->topo.get();
  cc.observe_health = [this, inc] { return ObserveSliceHealth(*inc); };
  // A tenant cannot repair shared cables; restarts leave the slice instead
  // (reschedule_on_restart), so the in-place restore path never runs.
  cc.restore_link = [](topo::LinkId) {};
  cc.auto_subscribe = false;
  cc.reschedule_on_restart = true;
  cc.on_finished = [this, inc] { OnJobFinished(inc); };
  cc.on_shrunk = [this, inc](const topo::SubmeshRect& slice_rect) {
    OnJobShrunk(inc, slice_rect);
  };
  cc.on_restart = [this, inc] { OnJobRestart(inc); };

  inc->controller = std::make_unique<recover::RecoveryController>(
      &network_, &injector_, std::move(cc));
  inc->live = true;
  state.active = inc;
  state.outcome.state = kRunning;
  incarnations_.push_back(std::move(owned));
  inc->controller->Begin();

  // Faults already in flight when the job lands: deliver every active event
  // interior to the new slice, so the controller prices the hardware as-is
  // (permanent chip/host losses cannot appear — the carve excluded them).
  for (const fault::FaultEvent& event : injector_.injected()) {
    if (!event.ActiveAt(sim_.now())) continue;
    fault::FaultEvent translated;
    if (!TranslateEvent(*inc, event, &translated)) continue;
    ++state.outcome.faults_observed;
    inc->delivered.emplace_back(event, translated);
    inc->controller->HandleFault(translated);
  }
}

void ClusterSimulation::Preempt(int job) {
  JobState& state = jobs_[job];
  SimTime write = 0;
  SimTime restore = 0;
  if (state.active != nullptr) {
    // On-demand checkpoint: the victim spends write_seconds getting its
    // state out (ready_at) and owes a restore before it runs again.
    write = state.active->pricing->checkpoint.write_seconds;
    restore = state.active->pricing->checkpoint.restore_seconds;
    StopIncarnation(job);
  } else {
    restore = state.pending_resume;  // reserved victim: still owes its delay
  }
  UpdateOccupancy(sim_.now());
  const topo::SubmeshRect rect = scheduler_.allocations().at(job);
  scheduler_.Release(job);
  frag_max_ = std::max(frag_max_, scheduler_.Fragmentation());
  ++state.outcome.preemptions;
  ++preemptions_;
  ++state.resume_seq;  // retire a pending StartIncarnation
  RecordEvent("preempt", job, rect);
  Requeue(job, sim_.now() + write, restore);
}

void ClusterSimulation::Migrate(int job, const topo::SubmeshRect& to) {
  JobState& state = jobs_[job];
  SimTime write = 0;
  SimTime restore = 0;
  if (state.active != nullptr) {
    write = state.active->pricing->checkpoint.write_seconds;
    restore = state.active->pricing->checkpoint.restore_seconds;
    StopIncarnation(job);
  } else {
    restore = state.pending_resume;
  }
  UpdateOccupancy(sim_.now());
  scheduler_.Release(job);
  scheduler_.Allocate(job, to);
  frag_max_ = std::max(frag_max_, scheduler_.Fragmentation());
  ++state.outcome.migrations;
  ++migrations_;
  state.outcome.state = kReserved;
  state.outcome.last_rect = to;
  state.pending_resume = 0;
  const std::uint64_t seq = ++state.resume_seq;
  RecordEvent("migrate", job, to);
  sim_.ScheduleAt(sim_.now() + write + restore,
                  [this, job, seq] { StartIncarnation(job, seq); });
}

void ClusterSimulation::Requeue(int job, SimTime ready_at,
                                SimTime pending_resume) {
  JobState& state = jobs_[job];
  state.outcome.state = kQueued;
  state.requeued = true;
  state.ready_at = ready_at;
  state.pending_resume = pending_resume;
  state.queued_since = sim_.now();
  Enqueue(job);
  ++requeues_;
  if (ready_at > sim_.now()) {
    sim_.ScheduleAt(ready_at, [this] { SchedulePass(); });
  }
}

void ClusterSimulation::StopIncarnation(int job) {
  JobState& state = jobs_[job];
  Incarnation* inc = state.active;
  if (inc == nullptr) return;
  const recover::RecoveryTimeline& timeline = inc->controller->finished()
                                                  ? inc->controller->timeline()
                                                  : inc->controller->Stop();
  const double steps_done =
      inc->pricing->healthy_step > 0
          ? inc->controller->work_done() / inc->pricing->healthy_step
          : 0;
  state.remaining_steps = std::max(0.0, state.remaining_steps - steps_done);
  state.outcome.steps_done += steps_done;
  state.outcome.last_rect = inc->active_rect;
  MergeTimeline(state, timeline);
  inc->live = false;
  state.active = nullptr;
}

void ClusterSimulation::MergeTimeline(
    JobState& job, const recover::RecoveryTimeline& timeline) {
  job.outcome.lost_work_seconds += timeline.lost_work_seconds;
  job.outcome.stalled_seconds += timeline.stalled_seconds;
  job.outcome.restarts += timeline.restarts;
  job.outcome.decisions.insert(job.outcome.decisions.end(),
                               timeline.decisions.begin(),
                               timeline.decisions.end());
}

void ClusterSimulation::OnJobFinished(Incarnation* inc) {
  const int job = inc->job;
  JobState& state = jobs_[job];
  const topo::SubmeshRect rect = inc->active_rect;
  StopIncarnation(job);
  UpdateOccupancy(sim_.now());
  scheduler_.Release(job);
  frag_max_ = std::max(frag_max_, scheduler_.Fragmentation());
  state.outcome.state = kCompleted;
  state.outcome.finished_at = sim_.now();
  state.remaining_steps = 0;
  ++completed_;
  RecordEvent("finish", job, rect);
  SchedulePass();
}

void ClusterSimulation::OnJobShrunk(Incarnation* inc,
                                    const topo::SubmeshRect& slice_rect) {
  const int job = inc->job;
  const topo::SubmeshRect cluster_rect{inc->rect.x0 + slice_rect.x0,
                                       inc->rect.y0 + slice_rect.y0,
                                       slice_rect.size_x, slice_rect.size_y};
  UpdateOccupancy(sim_.now());
  scheduler_.ShrinkTo(job, cluster_rect);
  frag_max_ = std::max(frag_max_, scheduler_.Fragmentation());
  inc->active_rect = cluster_rect;
  jobs_[job].outcome.last_rect = cluster_rect;
  ++jobs_[job].outcome.shrinks;
  ++shrinks_;
  RecordEvent("shrink", job, cluster_rect);
  SchedulePass();  // the freed complement may admit queued work
}

void ClusterSimulation::OnJobRestart(Incarnation* inc) {
  const int job = inc->job;
  const topo::SubmeshRect rect = inc->active_rect;
  const SimTime restart = inc->pricing->restart_seconds;
  StopIncarnation(job);
  UpdateOccupancy(sim_.now());
  scheduler_.Release(job);
  frag_max_ = std::max(frag_max_, scheduler_.Fragmentation());
  RecordEvent("requeue", job, rect);
  // The checkpoint is already durable (rollback happened inside the
  // controller); the job re-enters the queue at once and pays restore +
  // framework re-init when next placed.
  Requeue(job, sim_.now(), restart);
  SchedulePass();
}

bool ClusterSimulation::TranslateEvent(const Incarnation& inc,
                                       const fault::FaultEvent& event,
                                       fault::FaultEvent* translated) const {
  const topo::MeshTopology& slice = *inc.pricing->topo;
  const topo::SubmeshRect& rect = inc.active_rect;
  // Localization is against the ORIGINAL carve (the slice mesh's id space);
  // the interior test is against the possibly-shrunk active rect.
  const auto localize = [&inc](topo::Coord c) {
    return topo::Coord{c.x - inc.rect.x0, c.y - inc.rect.y0};
  };
  *translated = event;
  switch (event.kind) {
    case fault::FaultKind::kChipFailure: {
      const topo::Coord c = topo_.CoordOf(event.chip);
      if (!rect.Contains(c)) return false;
      translated->chip = slice.ChipAt(localize(c));
      return true;
    }
    case fault::FaultKind::kLinkFlap: {
      const topo::Link& link = topo_.links()[event.link];
      const topo::Coord from = topo_.CoordOf(link.from);
      const topo::Coord to = topo_.CoordOf(link.to);
      if (!rect.Contains(from) || !rect.Contains(to)) return false;
      translated->link = slice.LinkBetween(slice.ChipAt(localize(from)),
                                           slice.ChipAt(localize(to)));
      return true;
    }
    case fault::FaultKind::kHostPreemption:
    case fault::FaultKind::kSlowHost: {
      // Host boundaries do not tile arbitrary rects: deliver the slice host
      // of the first affected chip inside the rect — coarse (the slice
      // host's links degrade as a group) but deterministic.
      for (const topo::ChipId chip : topo_.ChipsOfHost(event.host)) {
        const topo::Coord c = topo_.CoordOf(chip);
        if (!rect.Contains(c)) continue;
        translated->host = slice.HostOf(slice.ChipAt(localize(c)));
        return true;
      }
      return false;
    }
  }
  return false;
}

void ClusterSimulation::OnFaultApplied(const fault::FaultEvent& event) {
  if (event.permanent()) {
    UpdateOccupancy(sim_.now());
    switch (event.kind) {
      case fault::FaultKind::kChipFailure:
        scheduler_.MarkUnusable(topo_.CoordOf(event.chip));
        break;
      case fault::FaultKind::kLinkFlap: {
        const topo::Link& link = topo_.links()[event.link];
        dead_links_.emplace_back(topo_.CoordOf(link.from),
                                 topo_.CoordOf(link.to));
        break;
      }
      case fault::FaultKind::kHostPreemption:
        for (const topo::ChipId chip : topo_.ChipsOfHost(event.host)) {
          scheduler_.MarkUnusable(topo_.CoordOf(chip));
        }
        break;
      case fault::FaultKind::kSlowHost:
        break;  // degrades, never kills capacity
    }
    frag_max_ = std::max(frag_max_, scheduler_.Fragmentation());
  }
  // ONE fault, every tenant it touches: each co-located job sees the same
  // event through its own slice. Size is snapshotted — a controller's
  // reaction can admit new jobs, and those pick up still-active faults in
  // StartIncarnation instead.
  const std::size_t count = incarnations_.size();
  for (std::size_t i = 0; i < count; ++i) {
    Incarnation* inc = incarnations_[i].get();
    if (!inc->live) continue;
    if (!injector_.EventTouchesRect(event, inc->active_rect)) continue;
    // Observable from the slice — counted even when the fault only crosses
    // the boundary (shared cable) and is not the job's own hardware.
    ++jobs_[inc->job].outcome.faults_observed;
    fault::FaultEvent translated;
    if (!TranslateEvent(*inc, event, &translated)) continue;
    inc->delivered.emplace_back(event, translated);
    inc->controller->HandleFault(translated);
  }
}

void ClusterSimulation::OnFaultHealed(const fault::FaultEvent& event) {
  const std::size_t count = incarnations_.size();
  for (std::size_t i = 0; i < count; ++i) {
    Incarnation* inc = incarnations_[i].get();
    if (!inc->live) continue;
    // Heals are matched against the delivered originals, so a shrink of the
    // active rect between apply and heal cannot strand an active fault.
    const auto it = std::find_if(
        inc->delivered.begin(), inc->delivered.end(),
        [&event](const auto& entry) { return entry.first == event; });
    if (it == inc->delivered.end()) continue;
    const fault::FaultEvent translated = it->second;
    inc->delivered.erase(it);
    inc->controller->HandleHeal(translated);
  }
}

void ClusterSimulation::UpdateOccupancy(SimTime upto) {
  if (upto <= occupancy_last_) return;
  const double dt = upto - occupancy_last_;
  busy_integral_ += dt * scheduler_.busy_chips();
  const double frag = scheduler_.Fragmentation();
  frag_integral_ += dt * frag;
  frag_max_ = std::max(frag_max_, frag);
  occupancy_last_ = upto;
}

void ClusterSimulation::RecordEvent(const char* kind, int job,
                                    const topo::SubmeshRect& rect) {
  const SimTime now = sim_.now();
  events_.push_back({now, kind, jobs_[job].spec.id, rect});
  last_activity_ = std::max(last_activity_, now);
}

void RegisterClusterProbes(telemetry::TimeSeriesSampler& sampler,
                           const ClusterSimulation& cluster) {
  const ClusterSimulation* c = &cluster;
  sampler.RegisterProbe("cluster.running_jobs", [c] {
    return static_cast<double>(c->running_jobs());
  });
  sampler.RegisterProbe("cluster.queued_jobs", [c] {
    return static_cast<double>(c->queued_jobs());
  });
  sampler.RegisterProbe("cluster.busy_chips", [c] {
    return static_cast<double>(c->busy_chips());
  });
  sampler.RegisterProbe("cluster.free_chips", [c] {
    return static_cast<double>(c->free_chips());
  });
  sampler.RegisterProbe("cluster.fragmentation",
                        [c] { return c->fragmentation(); });
}

}  // namespace tpu::cluster
