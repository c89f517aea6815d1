#include "recover/controller.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "trace/trace.h"

namespace tpu::recover {

RecoveryController::RecoveryController(net::Network* network,
                                       fault::FaultInjector* injector,
                                       ControllerConfig config)
    : network_(network),
      injector_(injector),
      config_(std::move(config)),
      sim_(&network->simulator()) {
  TPU_CHECK(network_ != nullptr);
  TPU_CHECK(injector_ != nullptr);
  TPU_CHECK_GT(config_.total_work, 0.0);
  TPU_CHECK_GT(config_.pricer.healthy_step, 0.0);
  TPU_CHECK_GT(config_.detection_deadline, 0.0);
  TPU_CHECK(config_.pricer.degraded_step != nullptr);
  TPU_CHECK(config_.pricer.replanned_step != nullptr);
  TPU_CHECK(config_.pricer.shrunk_step != nullptr);
}

void RecoveryController::Begin() {
  TPU_CHECK(!begun_);
  begun_ = true;
  if (config_.auto_subscribe) {
    injector_->set_on_apply(
        [this](const fault::FaultEvent& event) { OnFault(event); });
    injector_->set_on_heal(
        [this](const fault::FaultEvent& event) { OnHeal(event); });
  }
  spares_left_ = config_.policy.spare_hosts;
  timeline_.total_work = config_.total_work;
  timeline_.base_seconds =
      config_.total_work / RateFor(config_.pricer.healthy_step);
  last_advance_ = interval_start_ = sim_->now();
  SetRate(config_.pricer.healthy_step, "healthy");
}

RecoveryTimeline RecoveryController::Stop() {
  if (!done_) {
    AdvanceWork();
    CloseInterval();
    timeline_.makespan = sim_->now();
    timeline_.completed = false;
    done_ = true;
    // Retire every pending finish / detect / probe / verify callback.
    ++rate_epoch_;
    ++stall_seq_;
    ++decision_seq_;
  }
  return timeline_;
}

plan::LinkHealthSet RecoveryController::ObserveHealth() const {
  return config_.observe_health != nullptr
             ? config_.observe_health()
             : plan::LinkHealthSet::FromNetwork(*network_);
}

double RecoveryController::RateFor(SimTime step) const {
  return EffectiveWorkRate(config_.pricer.healthy_step, step,
                           config_.checkpoint_interval,
                           config_.costs.checkpoint_write);
}

void RecoveryController::TraceInstant(const char* name) {
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    recorder->Instant(recorder->Track("system", "recovery"), name,
                      sim_->now());
  }
}

void RecoveryController::TelemetryEvent(const char* name, const char* detail) {
  if (telemetry::TelemetrySession* session = telemetry::CurrentTelemetry()) {
    session->RecordEvent(sim_->now(), name, detail == nullptr ? "" : detail);
  }
}

void RecoveryController::AdvanceWork() {
  const SimTime elapsed = sim_->now() - last_advance_;
  if (elapsed > 0) {
    if (rate_ > 0) {
      work_done_ += elapsed * rate_;
    } else {
      timeline_.stalled_seconds += elapsed;
    }
  }
  last_advance_ = sim_->now();
}

void RecoveryController::CloseInterval() {
  if (sim_->now() > interval_start_) {
    timeline_.intervals.push_back({interval_start_, sim_->now(), rate_,
                                   step_seconds_, interval_label_});
  }
  interval_start_ = sim_->now();
}

void RecoveryController::SetRate(SimTime step_seconds, const char* label) {
  AdvanceWork();
  CloseInterval();
  mode_ = Mode::kRunning;
  step_seconds_ = step_seconds;
  rate_ = RateFor(step_seconds);
  interval_label_ = label;
  ++rate_epoch_;
  const SimTime remaining = config_.total_work - work_done_;
  const SimTime delay = remaining > 0 ? remaining / rate_ : 0.0;
  sim_->Schedule(delay,
                 [this, epoch = rate_epoch_] { OnFinish(epoch); });
}

void RecoveryController::OnFinish(std::uint64_t rate_epoch) {
  if (done_ || rate_epoch != rate_epoch_) return;
  AdvanceWork();
  CloseInterval();
  done_ = true;
  timeline_.completed = true;
  timeline_.makespan = sim_->now();
  if (config_.on_finished) config_.on_finished();
}

const char* RecoveryController::LabelFor(SimTime step) const {
  if (exec_mode_ == ExecMode::kShrunk) return "shrunk";
  if (exec_mode_ == ExecMode::kRouted) return "routed";
  return step == config_.pricer.healthy_step ? "healthy" : "degraded";
}

SimTime RecoveryController::CurrentStepEstimate() {
  const plan::LinkHealthSet health = ObserveHealth();
  switch (exec_mode_) {
    case ExecMode::kShrunk: {
      // The shrunk job only touches chips and interior links of the carved
      // rectangle. Faults outside are invisible; inside, degradations
      // multiply the step by their worst factor (a coarse but conservative
      // proxy) and anything failing a link or chip stalls it outright.
      const topo::MeshTopology& topo = mesh();
      double worst = 1.0;
      for (const fault::FaultEvent& event : active_faults_) {
        switch (event.kind) {
          case fault::FaultKind::kChipFailure:
            if (rect_.Contains(topo.CoordOf(event.chip))) {
              return shrunk_step_ + net::Network::kFailedLinkStall;
            }
            break;
          case fault::FaultKind::kLinkFlap: {
            const topo::Link& link = topo.links()[event.link];
            if (rect_.Contains(topo.CoordOf(link.from)) &&
                rect_.Contains(topo.CoordOf(link.to))) {
              if (event.permanent()) {
                return shrunk_step_ + net::Network::kFailedLinkStall;
              }
              worst = std::max(worst, event.degrade_factor);
            }
            break;
          }
          case fault::FaultKind::kHostPreemption:
          case fault::FaultKind::kSlowHost:
            for (const topo::ChipId chip : topo.ChipsOfHost(event.host)) {
              if (!rect_.Contains(topo.CoordOf(chip))) continue;
              if (event.kind == fault::FaultKind::kHostPreemption) {
                return shrunk_step_ + net::Network::kFailedLinkStall;
              }
              worst = std::max(worst, event.degrade_factor);
              break;
            }
            break;
        }
      }
      return shrunk_step_ * worst;
    }
    case ExecMode::kRouted:
      return health.healthy() ? config_.pricer.healthy_step
                              : config_.pricer.replanned_step(health);
    case ExecMode::kNormal:
      return health.healthy() ? config_.pricer.healthy_step
                              : config_.pricer.degraded_step(health);
  }
  return config_.pricer.healthy_step;  // unreachable
}

bool RecoveryController::RectClean(const topo::SubmeshRect& rect) const {
  const topo::MeshTopology& topo = mesh();
  for (const fault::FaultEvent& event : active_faults_) {
    switch (event.kind) {
      case fault::FaultKind::kChipFailure:
        if (rect.Contains(topo.CoordOf(event.chip))) return false;
        break;
      case fault::FaultKind::kLinkFlap: {
        const topo::Link& link = topo.links()[event.link];
        if (rect.Contains(topo.CoordOf(link.from)) &&
            rect.Contains(topo.CoordOf(link.to))) {
          return false;
        }
        break;
      }
      case fault::FaultKind::kHostPreemption:
      case fault::FaultKind::kSlowHost:
        for (const topo::ChipId chip : topo.ChipsOfHost(event.host)) {
          if (rect.Contains(topo.CoordOf(chip))) return false;
        }
        break;
    }
  }
  return true;
}

void RecoveryController::OnFault(const fault::FaultEvent& event) {
  if (done_) return;
  ++timeline_.faults_applied;
  active_faults_.push_back(event);
  if (mode_ != Mode::kRunning) {
    // Already stalled or mid-recovery: the next probe / verify re-prices
    // under the union of active faults.
    return;
  }
  const SimTime estimate = CurrentStepEstimate();
  if (estimate > config_.detection_deadline) {
    EnterStall();
    return;
  }
  if (estimate != step_seconds_) {
    // Silent degradation: the step slows but clears its deadline, so no
    // alarm fires — the run just proceeds at the degraded rate.
    SetRate(estimate, LabelFor(estimate));
  }
}

void RecoveryController::OnHeal(const fault::FaultEvent& event) {
  if (done_) return;
  ++timeline_.faults_healed;
  const auto it =
      std::find(active_faults_.begin(), active_faults_.end(), event);
  if (it != active_faults_.end()) active_faults_.erase(it);
  switch (mode_) {
    case Mode::kRunning: {
      const SimTime estimate = CurrentStepEstimate();
      if (estimate > config_.detection_deadline) {
        // A heal cannot stall a running machine; re-pricing says otherwise
        // only if another still-active fault does. Treat it as a stall.
        EnterStall();
      } else if (estimate != step_seconds_) {
        SetRate(estimate, LabelFor(estimate));
      }
      return;
    }
    case Mode::kStalled: {
      // Pre-detection window: if the heal clears the stall before the alarm
      // fires, the overrunning step just completes late — no recovery pass.
      const SimTime estimate = CurrentStepEstimate();
      if (estimate <= config_.detection_deadline) {
        ++timeline_.micro_stalls;
        ++stall_seq_;  // invalidates the pending detection event
        stall_start_ = -1;
        TraceInstant("recovery: stall healed before detection");
        TelemetryEvent("recovery.micro_stall");
        SetRate(estimate, LabelFor(estimate));
      }
      return;
    }
    case Mode::kWaiting:
    case Mode::kExecuting:
      // The probe / verify event re-prices when it fires.
      return;
  }
}

void RecoveryController::EnterStall() {
  AdvanceWork();
  CloseInterval();
  mode_ = Mode::kStalled;
  rate_ = 0;
  step_seconds_ = 0;
  interval_label_ = "stalled";
  ++rate_epoch_;  // invalidates the scheduled finish
  stall_start_ = sim_->now();
  ++stall_seq_;
  attempt_ = 0;
  exhausted_ = 0;
  TraceInstant("recovery: stall");
  TelemetryEvent("recovery.stall");
  sim_->Schedule(config_.detection_deadline,
                 [this, seq = stall_seq_] { OnDetect(seq); });
}

void RecoveryController::OnDetect(std::uint64_t stall_seq) {
  if (done_ || stall_seq != stall_seq_ || mode_ != Mode::kStalled) return;
  ++timeline_.detections;
  TraceInstant("recovery: detected");
  // Recorded at exactly the detection instant; the telemetry session's
  // dump_on_events default makes this the flight recorder's trigger, so the
  // dump's triggered_at *is* the fault's detection time.
  TelemetryEvent("recovery.detected");
  Decide();
}

Diagnosis RecoveryController::Diagnose() const {
  Diagnosis diagnosis;
  diagnosis.health = ObserveHealth();
  SimTime residual = 0;
  for (const fault::FaultEvent& event : active_faults_) {
    if (event.permanent()) {
      diagnosis.transient_only = false;
      switch (event.kind) {
        case fault::FaultKind::kChipFailure:
          diagnosis.dead_chips.push_back(event.chip);
          break;
        case fault::FaultKind::kLinkFlap:
          diagnosis.broken_links.push_back(event.link);
          break;
        case fault::FaultKind::kHostPreemption:
        case fault::FaultKind::kSlowHost:
          diagnosis.lost_hosts.push_back(event.host);
          break;
      }
      continue;
    }
    SimTime mean = 0;
    switch (event.kind) {
      case fault::FaultKind::kLinkFlap:
        mean = config_.faults.link_flap_mean_duration;
        break;
      case fault::FaultKind::kHostPreemption:
        mean = config_.faults.host_preemption_mean_duration;
        break;
      case fault::FaultKind::kSlowHost:
        mean = config_.faults.slow_host_mean_duration;
        break;
      case fault::FaultKind::kChipFailure:
        break;  // chip failures are never transient
    }
    residual = std::max(residual, mean);
  }
  const auto dedupe = [](auto* values) {
    std::sort(values->begin(), values->end());
    values->erase(std::unique(values->begin(), values->end()), values->end());
  };
  dedupe(&diagnosis.dead_chips);
  dedupe(&diagnosis.lost_hosts);
  dedupe(&diagnosis.broken_links);
  diagnosis.expected_residual_heal = residual;
  return diagnosis;
}

PricingContext RecoveryController::Context() {
  PricingContext context;
  context.topo = &mesh();
  context.policy = config_.policy;
  context.costs = config_.costs;
  context.pricer = &config_.pricer;
  context.checkpoint_interval = config_.checkpoint_interval;
  context.remaining_work = config_.total_work - work_done_;
  const SimTime tau = config_.checkpoint_interval;
  const SimTime checkpointed =
      tau > 0 ? std::floor(work_done_ / tau) * tau : 0.0;
  context.lost_work = work_done_ - checkpointed;
  context.detection_deadline = config_.detection_deadline;
  context.spares_left = spares_left_;
  context.x_granularity = config_.x_granularity;
  context.exhausted = exhausted_;
  if (attempt_ >= config_.policy.max_attempts_per_fault) {
    // Out of patience: everything but the fallback is off the table.
    context.exhausted = ~StrategyBit(Strategy::kCheckpointRestart);
  }
  return context;
}

void RecoveryController::Decide() {
  ++attempt_;
  const Diagnosis diagnosis = Diagnose();
  const PricingContext context = Context();
  pending_ = ChooseStrategy(PriceStrategies(context, diagnosis));

  RecoveryDecision decision;
  decision.stall_start = stall_start_;
  decision.decided_at = sim_->now();
  decision.attempt = attempt_;
  decision.strategy = pending_.strategy;
  decision.transient_only = diagnosis.transient_only;
  decision.dead_chips = static_cast<int>(diagnosis.dead_chips.size());
  decision.failed_links = static_cast<int>(diagnosis.health.failed.size());
  decision.degraded_links =
      static_cast<int>(diagnosis.health.degraded.size());
  decision.predicted_downtime = pending_.downtime;
  decision.predicted_step_after = pending_.step_after;
  decision.lost_work = pending_.lost_work;
  decision.predicted_extra_seconds =
      (sim_->now() - stall_start_) + pending_.future_seconds -
      context.remaining_work / RateFor(config_.pricer.healthy_step);
  timeline_.decisions.push_back(decision);
  if (trace::CurrentTrace() != nullptr) {
    const std::string name =
        std::string("recovery: select ") + StrategyName(pending_.strategy);
    TraceInstant(name.c_str());
  }
  if (telemetry::TelemetrySession* session = telemetry::CurrentTelemetry()) {
    // Attribute the anomaly to the concrete links the diagnosis blames —
    // the same links the critical-path report ranks — so the open watchdog
    // firings carry the offending interval's suspect set.
    std::vector<int> suspects;
    suspects.reserve(diagnosis.health.failed.size() +
                     diagnosis.health.degraded.size());
    for (const topo::LinkId link : diagnosis.health.failed) {
      suspects.push_back(static_cast<int>(link));
    }
    for (const auto& [link, factor] : diagnosis.health.degraded) {
      suspects.push_back(static_cast<int>(link));
    }
    session->NoteSuspectLinks(suspects);
    session->RecordEvent(sim_->now(), "recovery.select",
                         StrategyName(pending_.strategy));
  }

  ++decision_seq_;
  if (pending_.strategy == Strategy::kWaitForHeal) {
    mode_ = Mode::kWaiting;
    const SimTime gap = config_.policy.backoff.initial_probe;
    sim_->Schedule(gap, [this, seq = decision_seq_, gap] {
      OnProbe(seq, gap);
    });
  } else {
    mode_ = Mode::kExecuting;
    sim_->Schedule(pending_.downtime,
                   [this, seq = decision_seq_] { OnVerify(seq); });
  }
}

void RecoveryController::OnProbe(std::uint64_t decision_seq, SimTime gap) {
  if (done_ || decision_seq != decision_seq_ || mode_ != Mode::kWaiting) {
    return;
  }
  ++timeline_.probes;
  const SimTime estimate = CurrentStepEstimate();
  if (estimate <= config_.detection_deadline) {
    CompleteDecision(estimate);
    return;
  }
  const bool still_transient =
      std::none_of(active_faults_.begin(), active_faults_.end(),
                   [](const fault::FaultEvent& e) { return e.permanent(); });
  const RecoveryDecision& decision = timeline_.decisions.back();
  if (!still_transient ||
      sim_->now() - decision.decided_at >=
          config_.policy.backoff.wait_deadline) {
    // Timeout (or the fault turned out not to be transient): promote to a
    // heavier strategy.
    exhausted_ |= StrategyBit(Strategy::kWaitForHeal);
    TraceInstant("recovery: wait exhausted");
    Decide();
    return;
  }
  const SimTime next = std::min(gap * config_.policy.backoff.multiplier,
                                config_.policy.backoff.max_probe);
  sim_->Schedule(next, [this, seq = decision_seq_, next] {
    OnProbe(seq, next);
  });
}

void RecoveryController::Rollback() {
  // Work was frozen the moment the stall began (rate zero), so this matches
  // the lost_work the decision was priced with.
  const SimTime tau = config_.checkpoint_interval;
  const SimTime checkpointed =
      tau > 0 ? std::floor(work_done_ / tau) * tau : 0.0;
  timeline_.lost_work_seconds += work_done_ - checkpointed;
  work_done_ = checkpointed;
}

void RecoveryController::OnVerify(std::uint64_t decision_seq) {
  if (done_ || decision_seq != decision_seq_ || mode_ != Mode::kExecuting) {
    return;
  }
  const SimTime healthy = config_.pricer.healthy_step;
  switch (pending_.strategy) {
    case Strategy::kWaitForHeal:
      break;  // wait resolves through probes, never a verify event
    case Strategy::kRouteAround: {
      const plan::LinkHealthSet health = ObserveHealth();
      if (health.healthy()) {
        // Everything healed while the replan ran; the original schedule is
        // fine again.
        exec_mode_ = ExecMode::kNormal;
        CompleteDecision(healthy);
        return;
      }
      const SimTime step = config_.pricer.replanned_step(health);
      if (step <= config_.detection_deadline &&
          step <= config_.policy.max_step_slowdown * healthy) {
        exec_mode_ = ExecMode::kRouted;
        CompleteDecision(step);
        return;
      }
      exhausted_ |= StrategyBit(Strategy::kRouteAround);
      TraceInstant("recovery: route-around verify failed");
      Decide();
      return;
    }
    case Strategy::kElasticShrink: {
      if (!RectClean(pending_.rect)) {
        // A new fault landed inside the carved rectangle while state was
        // resharding: re-diagnose (the next carve excludes it too).
        TraceInstant("recovery: shrink rectangle dirtied");
        Decide();
        return;
      }
      Rollback();
      rect_ = pending_.rect;
      shrunk_step_ = pending_.step_after;
      exec_mode_ = ExecMode::kShrunk;
      CompleteDecision(shrunk_step_);
      if (config_.on_shrunk) config_.on_shrunk(rect_);
      return;
    }
    case Strategy::kSpareSwapIn: {
      Rollback();
      // Replace every host owning a permanently lost chip: its links come
      // back (fresh hardware) and its faults leave the active set.
      const topo::MeshTopology& topo = mesh();
      std::vector<topo::HostId> hosts;
      for (const fault::FaultEvent& event : active_faults_) {
        if (!event.permanent()) continue;
        if (event.kind == fault::FaultKind::kChipFailure) {
          hosts.push_back(topo.HostOf(event.chip));
        } else if (event.kind == fault::FaultKind::kHostPreemption ||
                   event.kind == fault::FaultKind::kSlowHost) {
          hosts.push_back(event.host);
        }
      }
      std::sort(hosts.begin(), hosts.end());
      hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
      for (const topo::HostId host : hosts) {
        for (const topo::LinkId link : injector_->LinksOfHost(host)) {
          network_->RestoreLink(link);
        }
      }
      spares_left_ -= static_cast<int>(hosts.size());
      std::erase_if(active_faults_, [&](const fault::FaultEvent& event) {
        if (!event.permanent()) return false;
        if (event.kind == fault::FaultKind::kChipFailure) {
          return std::binary_search(hosts.begin(), hosts.end(),
                                    topo.HostOf(event.chip));
        }
        if (event.kind == fault::FaultKind::kHostPreemption ||
            event.kind == fault::FaultKind::kSlowHost) {
          return std::binary_search(hosts.begin(), hosts.end(), event.host);
        }
        return false;
      });
      exec_mode_ = ExecMode::kNormal;
      const SimTime estimate = CurrentStepEstimate();
      if (estimate <= config_.detection_deadline) {
        CompleteDecision(estimate);
      } else {
        // Another fault still pins the step over its deadline.
        Decide();
      }
      return;
    }
    case Strategy::kCheckpointRestart: {
      Rollback();
      ++timeline_.restarts;
      if (config_.reschedule_on_restart) {
        // Cluster semantics: the restart does not repair this slice — the
        // job leaves the machine with its last checkpoint and the caller
        // requeues the remaining work on whatever hardware is healthy.
        RecoveryDecision& decision = timeline_.decisions.back();
        decision.resumed_at = sim_->now();
        decision.verified = true;
        ++decision_seq_;
        stall_start_ = -1;
        AdvanceWork();
        CloseInterval();
        timeline_.makespan = sim_->now();
        timeline_.completed = false;
        done_ = true;
        ++rate_epoch_;
        ++stall_seq_;
        TraceInstant("recovery: rescheduled");
        TelemetryEvent("recovery.rescheduled");
        if (config_.on_restart) config_.on_restart();
        return;
      }
      // A restart lands on replacement hardware: every link returns to its
      // configured parameters and no pre-restart fault survives. In-flight
      // heal events from the old incarnation release nothing (the network's
      // per-source bookkeeping makes them no-ops).
      const std::size_t num_links = mesh().links().size();
      for (std::size_t link = 0; link < num_links; ++link) {
        const topo::LinkId id = static_cast<topo::LinkId>(link);
        if (config_.restore_link != nullptr) {
          config_.restore_link(id);
        } else {
          network_->RestoreLink(id);
        }
      }
      active_faults_.clear();
      exec_mode_ = ExecMode::kNormal;
      CompleteDecision(healthy);
      return;
    }
  }
}

void RecoveryController::CompleteDecision(SimTime step_after) {
  RecoveryDecision& decision = timeline_.decisions.back();
  decision.resumed_at = sim_->now();
  decision.verified = true;
  ++decision_seq_;  // retires any still-scheduled probe / verify event
  stall_start_ = -1;
  TraceInstant("recovery: resumed");
  TelemetryEvent("recovery.resumed", LabelFor(step_after));
  SetRate(step_after, LabelFor(step_after));
}

void RegisterRecoveryProbes(telemetry::TimeSeriesSampler& sampler,
                            const RecoveryController& controller) {
  const RecoveryController* ctl = &controller;
  sampler.RegisterProbe("run.work_rate", [ctl] { return ctl->work_rate(); });
  sampler.RegisterProbe("run.step_seconds",
                        [ctl] { return ctl->step_seconds(); });
  sampler.RegisterProbe("run.work_done", [ctl] { return ctl->work_done(); });
  sampler.RegisterProbe("run.mode", [ctl] {
    return static_cast<double>(ctl->mode_index());
  });
  sampler.RegisterProbe("run.active_faults", [ctl] {
    return static_cast<double>(ctl->active_fault_count());
  });
}

}  // namespace tpu::recover
