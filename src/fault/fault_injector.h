// Deterministic, seeded fault injection for the multipod simulation.
//
// The paper's 4096-chip runs assume a dedicated, healthy machine: every step
// is a globally synchronous barrier, so a single flaky optical link, a
// preempted host or a dead chip stalls or kills the whole run. This module
// supplies the missing failure model: an MTBF-driven Poisson schedule of
// fault events over the simulated clock, applied to the Network's per-link
// state (DegradeLink / FailLink / RestoreLink). Everything is a pure function
// of (seed, topology, config, horizon) — same inputs, bit-identical schedule
// and simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "network/network.h"
#include "topology/topology.h"

namespace tpu::fault {

enum class FaultKind {
  kChipFailure,     // permanent: every link touching the chip fails
  kLinkFlap,        // transient: one directed link degrades, then heals
  kHostPreemption,  // transient: all links of the host's chips fail, then heal
  kSlowHost,        // transient straggler: the host's links degrade mildly
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kLinkFlap;
  SimTime at = 0;        // injection time on the simulated clock
  SimTime duration = 0;  // healing delay; 0 = permanent
  topo::ChipId chip = -1;  // kChipFailure
  topo::LinkId link = -1;  // kLinkFlap
  topo::HostId host = -1;  // kHostPreemption / kSlowHost
  double degrade_factor = 1.0;  // kLinkFlap / kSlowHost

  SimTime heal_at() const { return duration > 0 ? at + duration : -1.0; }
  bool permanent() const { return duration <= 0; }
  bool ActiveAt(SimTime now) const {
    return now >= at && (permanent() || now < at + duration);
  }
  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

struct FaultModelConfig {
  std::uint64_t seed = 0;

  // Mean time between failures per unit (chip / directed link / host).
  // A rate of <= 0 disables that fault class.
  SimTime chip_mtbf = 0;             // permanent chip death
  SimTime link_flap_mtbf = 0;        // transient optical-link flap
  SimTime host_preemption_mtbf = 0;  // scheduler reclaims the host
  SimTime slow_host_mtbf = 0;        // thermally/os-noise slowed host

  // Transient-fault shapes.
  SimTime link_flap_mean_duration = Seconds(30);
  double link_flap_degrade_factor = 8.0;
  SimTime host_preemption_mean_duration = Seconds(120);
  SimTime slow_host_mean_duration = Seconds(300);
  double slow_host_degrade_factor = 2.0;

  bool any_enabled() const {
    return chip_mtbf > 0 || link_flap_mtbf > 0 || host_preemption_mtbf > 0 ||
           slow_host_mtbf > 0;
  }
};

// Samples the fault schedule over [0, horizon): per unit, exponential
// inter-arrival times at the configured MTBF (chip failures keep only the
// first arrival — the chip stays dead). Events are sorted by (time, kind,
// unit id), and each unit draws from its own seed-derived RNG stream, so the
// schedule is independent of iteration order and bit-reproducible.
std::vector<FaultEvent> GenerateFaultSchedule(const topo::MeshTopology& topo,
                                              const FaultModelConfig& config,
                                              SimTime horizon);

// Binds a fault schedule to a live Network: Arm() schedules every event (and
// its healing) on the network's simulator clock, so faults fire while a
// collective is in flight — exactly the mid-phase stall a HealthMonitor's
// deadlines are meant to catch.
// Transient heals release exactly what their fault applied (the network's
// depth-counted / per-source link state), so overlapping schedules on the
// same link compose in any order. The injector must outlive the simulator
// run it armed: heal events capture `this` for accounting and observer
// callbacks.
class FaultInjector {
 public:
  using EventHook = std::function<void(const FaultEvent&)>;

  FaultInjector(net::Network* network, const FaultModelConfig& config);

  // Generates the schedule over [0, horizon) and schedules each event not
  // yet armed, at now() + event.at with now() taken at the first Arm. A
  // longer horizon extends a shorter one's schedule bit for bit, so calling
  // Arm again with a later horizon schedules only the events at or after
  // the horizon armed before: one injector grows its run's horizon in
  // place. Returns the number of events this call armed.
  int Arm(SimTime horizon);

  // Arms a hand-written schedule (e.g. a canonical recovery scenario)
  // instead of a generated one. Events fire at now() + event.at in the given
  // order. Returns the number of events armed.
  int ArmScripted(const std::vector<FaultEvent>& schedule);

  // Applies one event to the network now, scheduling its healing if the
  // event is transient. Exposed so tests can inject hand-written faults.
  void Apply(const FaultEvent& event);

  // Observers for a recovery controller: `on_apply` fires right after an
  // event's link-state change lands, `on_heal` right after a transient
  // event's heal releases it. Both run on the simulated clock.
  void set_on_apply(EventHook hook) { on_apply_ = std::move(hook); }
  void set_on_heal(EventHook hook) { on_heal_ = std::move(hook); }

  // Every event applied so far (armed events appear once they fire).
  const std::vector<FaultEvent>& injected() const { return injected_; }
  // Every event armed so far (by Arm()'s horizons or ArmScripted()), in
  // firing order.
  const std::vector<FaultEvent>& schedule() const { return schedule_; }

  // Ground truth for detector accounting: was any injected fault active
  // (i.e. its links still degraded/failed) during [begin, end)?
  bool AnyFaultActiveIn(SimTime begin, SimTime end) const;
  // Rect-scoped variant: only faults observable from inside `rect` count. A
  // per-job HealthMonitor on a carved slice uses this as its ground truth —
  // faults entirely outside the slice are invisible to it.
  bool AnyFaultActiveIn(SimTime begin, SimTime end,
                        const topo::SubmeshRect& rect) const;
  int permanent_failures() const;
  // Injected events whose heal has not fired yet, per kind.
  int active_count(FaultKind kind) const {
    return active_[static_cast<int>(kind)];
  }

  // The directed links a chip-level or host-level fault touches.
  std::vector<topo::LinkId> LinksOfChip(topo::ChipId chip) const;
  std::vector<topo::LinkId> LinksOfHost(topo::HostId host) const;
  // The directed links `event` fails or degrades when applied: the chip's
  // links for kChipFailure, the single flapped link for kLinkFlap, and the
  // host's chips' links for host-level faults.
  std::vector<topo::LinkId> LinksOfEvent(const FaultEvent& event) const;
  // True when the event's effect is observable from inside `rect`: a dead
  // chip inside the rect, or any affected directed link with at least one
  // endpoint inside. This deliberately includes faults that merely *cross*
  // the rect boundary — a dead cross-pod cable is shared hardware, visible
  // to every slice it borders at once.
  bool EventTouchesRect(const FaultEvent& event,
                        const topo::SubmeshRect& rect) const;

 private:
  void ScheduleHeal(const FaultEvent& event, std::vector<topo::LinkId> links);
  void SetActiveGauge(FaultKind kind) const;

  net::Network* network_;
  FaultModelConfig config_;
  std::vector<FaultEvent> schedule_;
  SimTime armed_horizon_ = 0;  // Arm()'s horizon so far
  SimTime armed_at_ = 0;       // now() at the first Arm()
  std::vector<FaultEvent> injected_;
  int active_[4] = {0, 0, 0, 0};  // indexed by FaultKind
  EventHook on_apply_;
  EventHook on_heal_;
};

}  // namespace tpu::fault
