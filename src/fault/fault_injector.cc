#include "fault/fault_injector.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>

#include "common/check.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::fault {
namespace {

// Seed-derived stream per (fault class, unit index): SplitMix64-style mixing
// so neighboring units get uncorrelated streams regardless of how many units
// each class has.
std::uint64_t UnitSeed(std::uint64_t seed, FaultKind kind, std::int64_t unit) {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(kind) + 1));
  x ^= 0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(unit + 1);
  return x;
}

// Poisson arrivals for one unit over [0, horizon). `first_only` models
// permanent faults (the unit cannot fail twice).
void AppendArrivals(FaultKind kind, std::int64_t unit, SimTime mtbf,
                    SimTime horizon, std::uint64_t seed, bool first_only,
                    const std::function<FaultEvent(SimTime, Rng&)>& make,
                    std::vector<FaultEvent>* out) {
  if (mtbf <= 0) return;
  Rng rng(UnitSeed(seed, kind, unit));
  SimTime t = rng.NextExponential(mtbf);
  while (t < horizon) {
    out->push_back(make(t, rng));
    if (first_only) break;
    t += rng.NextExponential(mtbf);
  }
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kChipFailure:
      return "chip-failure";
    case FaultKind::kLinkFlap:
      return "link-flap";
    case FaultKind::kHostPreemption:
      return "host-preemption";
    case FaultKind::kSlowHost:
      return "slow-host";
  }
  return "unknown";
}

std::vector<FaultEvent> GenerateFaultSchedule(const topo::MeshTopology& topo,
                                              const FaultModelConfig& config,
                                              SimTime horizon) {
  TPU_CHECK_GE(horizon, 0.0);
  std::vector<FaultEvent> events;

  for (topo::ChipId chip = 0; chip < topo.num_chips(); ++chip) {
    AppendArrivals(FaultKind::kChipFailure, chip, config.chip_mtbf, horizon,
                   config.seed, /*first_only=*/true,
                   [&](SimTime t, Rng&) {
                     FaultEvent e;
                     e.kind = FaultKind::kChipFailure;
                     e.at = t;
                     e.chip = chip;
                     return e;
                   },
                   &events);
  }
  for (std::size_t link = 0; link < topo.links().size(); ++link) {
    AppendArrivals(
        FaultKind::kLinkFlap, static_cast<std::int64_t>(link),
        config.link_flap_mtbf, horizon, config.seed, /*first_only=*/false,
        [&](SimTime t, Rng& rng) {
          FaultEvent e;
          e.kind = FaultKind::kLinkFlap;
          e.at = t;
          e.link = static_cast<topo::LinkId>(link);
          e.duration = rng.NextExponential(config.link_flap_mean_duration);
          e.degrade_factor = config.link_flap_degrade_factor;
          return e;
        },
        &events);
  }
  for (topo::HostId host = 0; host < topo.num_hosts(); ++host) {
    AppendArrivals(
        FaultKind::kHostPreemption, host, config.host_preemption_mtbf, horizon,
        config.seed, /*first_only=*/false,
        [&](SimTime t, Rng& rng) {
          FaultEvent e;
          e.kind = FaultKind::kHostPreemption;
          e.at = t;
          e.host = host;
          e.duration =
              rng.NextExponential(config.host_preemption_mean_duration);
          return e;
        },
        &events);
    AppendArrivals(
        FaultKind::kSlowHost, host, config.slow_host_mtbf, horizon,
        config.seed, /*first_only=*/false,
        [&](SimTime t, Rng& rng) {
          FaultEvent e;
          e.kind = FaultKind::kSlowHost;
          e.at = t;
          e.host = host;
          e.duration = rng.NextExponential(config.slow_host_mean_duration);
          e.degrade_factor = config.slow_host_degrade_factor;
          return e;
        },
        &events);
  }

  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.chip != b.chip) return a.chip < b.chip;
              if (a.link != b.link) return a.link < b.link;
              return a.host < b.host;
            });
  return events;
}

FaultInjector::FaultInjector(net::Network* network,
                             const FaultModelConfig& config)
    : network_(network), config_(config) {
  TPU_CHECK(network != nullptr);
}

std::vector<topo::LinkId> FaultInjector::LinksOfChip(topo::ChipId chip) const {
  std::vector<topo::LinkId> links;
  for (const topo::Link& link : network_->topology().links()) {
    if (link.from == chip || link.to == chip) links.push_back(link.id);
  }
  return links;
}

std::vector<topo::LinkId> FaultInjector::LinksOfHost(topo::HostId host) const {
  std::vector<topo::LinkId> links;
  const std::vector<topo::ChipId> chips =
      network_->topology().ChipsOfHost(host);
  for (const topo::Link& link : network_->topology().links()) {
    for (const topo::ChipId chip : chips) {
      if (link.from == chip || link.to == chip) {
        links.push_back(link.id);
        break;
      }
    }
  }
  return links;
}

void FaultInjector::SetActiveGauge(FaultKind kind) const {
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Gauge(std::string("fault.active.") + FaultKindName(kind))
        .Set(active_[static_cast<int>(kind)]);
  }
}

void FaultInjector::ScheduleHeal(const FaultEvent& event,
                                 std::vector<topo::LinkId> links) {
  if (event.duration <= 0) return;
  // The heal releases exactly what the fault applied — depth-counted fails
  // and per-source degradations — so overlapping faults on the same link
  // compose in any order: the link stays broken until every live fault
  // touching it has healed, and a heal can never resurrect a link a later
  // (or permanent) fault still holds down.
  network_->simulator().Schedule(
      event.duration, [this, event, links = std::move(links)] {
        switch (event.kind) {
          case FaultKind::kChipFailure:
            break;  // permanent: never scheduled
          case FaultKind::kLinkFlap:
            network_->ReleaseDegradedLink(event.link, event.degrade_factor);
            break;
          case FaultKind::kHostPreemption:
            for (const topo::LinkId link : links) {
              network_->ReleaseFailedLink(link);
            }
            break;
          case FaultKind::kSlowHost:
            for (const topo::LinkId link : links) {
              network_->ReleaseDegradedLink(link, event.degrade_factor);
            }
            break;
        }
        --active_[static_cast<int>(event.kind)];
        SetActiveGauge(event.kind);
        if (on_heal_) on_heal_(event);
      });
}

void FaultInjector::Apply(const FaultEvent& event) {
  sim::Simulator& simulator = network_->simulator();
  switch (event.kind) {
    case FaultKind::kChipFailure: {
      TPU_CHECK_GE(event.chip, 0);
      for (const topo::LinkId link : LinksOfChip(event.chip)) {
        network_->FailLink(link);
      }
      break;
    }
    case FaultKind::kLinkFlap: {
      TPU_CHECK_GE(event.link, 0);
      network_->DegradeLink(event.link, event.degrade_factor);
      ScheduleHeal(event, {event.link});
      break;
    }
    case FaultKind::kHostPreemption: {
      TPU_CHECK_GE(event.host, 0);
      std::vector<topo::LinkId> links = LinksOfHost(event.host);
      for (const topo::LinkId link : links) network_->FailLink(link);
      ScheduleHeal(event, std::move(links));
      break;
    }
    case FaultKind::kSlowHost: {
      TPU_CHECK_GE(event.host, 0);
      std::vector<topo::LinkId> links = LinksOfHost(event.host);
      for (const topo::LinkId link : links) {
        network_->DegradeLink(link, event.degrade_factor);
      }
      ScheduleHeal(event, std::move(links));
      break;
    }
  }
  injected_.push_back(event);
  ++active_[static_cast<int>(event.kind)];
  SetActiveGauge(event.kind);

  // Fault injections show on the timeline as instant events on a shared
  // "faults" track, named by class and unit (e.g. "link-flap link=42").
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    char name[64];
    if (event.kind == FaultKind::kChipFailure) {
      std::snprintf(name, sizeof(name), "chip-failure chip=%d", event.chip);
    } else if (event.kind == FaultKind::kLinkFlap) {
      std::snprintf(name, sizeof(name), "link-flap link=%d x%.0f %.3gms",
                    event.link, event.degrade_factor,
                    ToMillis(event.duration));
    } else {
      std::snprintf(name, sizeof(name), "%s host=%d %.3gms",
                    FaultKindName(event.kind), event.host,
                    ToMillis(event.duration));
    }
    recorder->Instant(recorder->Track("system", "faults"), name,
                      simulator.now());
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter(std::string("fault.injected.") + FaultKindName(event.kind))
        .Add(1);
  }
  if (on_apply_) on_apply_(event);
}

int FaultInjector::Arm(SimTime horizon) {
  TPU_CHECK_GE(horizon, armed_horizon_);
  sim::Simulator& simulator = network_->simulator();
  if (armed_horizon_ == 0) armed_at_ = simulator.now();
  schedule_ = GenerateFaultSchedule(network_->topology(), config_, horizon);
  // FaultSchedule.ShorterHorizonIsABitIdenticalPrefix: the events before the
  // armed horizon are exactly the ones already scheduled.
  const auto fresh = std::partition_point(
      schedule_.begin(), schedule_.end(),
      [this](const FaultEvent& event) { return event.at < armed_horizon_; });
  for (auto it = fresh; it != schedule_.end(); ++it) {
    simulator.ScheduleAt(armed_at_ + it->at,
                         [this, event = *it] { Apply(event); });
  }
  armed_horizon_ = horizon;
  return static_cast<int>(schedule_.end() - fresh);
}

int FaultInjector::ArmScripted(const std::vector<FaultEvent>& schedule) {
  schedule_ = schedule;
  sim::Simulator& simulator = network_->simulator();
  for (const FaultEvent& event : schedule_) {
    simulator.ScheduleAt(simulator.now() + event.at,
                         [this, event] { Apply(event); });
  }
  return static_cast<int>(schedule_.size());
}

bool FaultInjector::AnyFaultActiveIn(SimTime begin, SimTime end) const {
  for (const FaultEvent& event : injected_) {
    const SimTime fault_end =
        event.permanent() ? end : std::min(end, event.at + event.duration);
    if (event.at < end && fault_end > begin) return true;
  }
  return false;
}

std::vector<topo::LinkId> FaultInjector::LinksOfEvent(
    const FaultEvent& event) const {
  switch (event.kind) {
    case FaultKind::kChipFailure:
      return LinksOfChip(event.chip);
    case FaultKind::kLinkFlap:
      return {event.link};
    case FaultKind::kHostPreemption:
    case FaultKind::kSlowHost:
      return LinksOfHost(event.host);
  }
  return {};
}

bool FaultInjector::EventTouchesRect(const FaultEvent& event,
                                     const topo::SubmeshRect& rect) const {
  const topo::MeshTopology& topo = network_->topology();
  if (event.kind == FaultKind::kChipFailure &&
      rect.Contains(topo.CoordOf(event.chip))) {
    return true;
  }
  for (const topo::LinkId id : LinksOfEvent(event)) {
    const topo::Link& link = topo.links()[id];
    if (rect.Contains(topo.CoordOf(link.from)) ||
        rect.Contains(topo.CoordOf(link.to))) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::AnyFaultActiveIn(SimTime begin, SimTime end,
                                     const topo::SubmeshRect& rect) const {
  for (const FaultEvent& event : injected_) {
    const SimTime fault_end =
        event.permanent() ? end : std::min(end, event.at + event.duration);
    if (event.at < end && fault_end > begin && EventTouchesRect(event, rect)) {
      return true;
    }
  }
  return false;
}

int FaultInjector::permanent_failures() const {
  int count = 0;
  for (const FaultEvent& event : injected_) {
    count += event.kind == FaultKind::kChipFailure ? 1 : 0;
  }
  return count;
}

}  // namespace tpu::fault
