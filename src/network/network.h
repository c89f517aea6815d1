// Timed message transport over the multipod interconnect.
//
// Each directed physical link is a FIFO resource with a bandwidth and a
// propagation latency; cross-pod optical links (Section 1, Figure 2) carry
// higher latency than within-pod links. Messages follow the dimension-ordered
// sparse routes from the topology and are forwarded store-and-forward per
// hop at message granularity — collectives chunk their payloads, so this
// matches the chunk-pipelined behaviour of real ring collectives while
// naturally halving effective bandwidth on folded (mesh-dimension) rings,
// where each physical link carries two ring edges.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/event_observer.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::net {

struct LinkParams {
  Bandwidth bandwidth = GBps(70.0);  // per direction
  SimTime latency = Micros(0.3);
};

struct NetworkConfig {
  LinkParams mesh_x{GBps(70.0), Micros(0.3)};
  LinkParams cross_pod_x{GBps(70.0), Micros(1.5)};  // longer optical links
  LinkParams mesh_y{GBps(70.0), Micros(0.3)};
  LinkParams wrap_y{GBps(70.0), Micros(0.5)};
  // Fixed software/DMA overhead charged once per message at the sender.
  SimTime message_overhead = Micros(1.0);

  const LinkParams& ParamsFor(topo::LinkType type) const {
    switch (type) {
      case topo::LinkType::kMeshX:
        return mesh_x;
      case topo::LinkType::kCrossPodX:
        return cross_pod_x;
      case topo::LinkType::kMeshY:
        return mesh_y;
      case topo::LinkType::kWrapY:
        return wrap_y;
    }
    return mesh_x;  // unreachable
  }
};

// Per-link-type traffic accounting, used by benches to report where bytes go
// (e.g. the 32x X-vs-Y payload asymmetry of the 2-D all-reduce, Section 3.3).
struct TrafficStats {
  Bytes mesh_x_bytes = 0;
  Bytes cross_pod_x_bytes = 0;
  Bytes mesh_y_bytes = 0;
  Bytes wrap_y_bytes = 0;
  std::int64_t messages = 0;

  Bytes total_bytes() const {
    return mesh_x_bytes + cross_pod_x_bytes + mesh_y_bytes + wrap_y_bytes;
  }
};

class Network {
 public:
  // One hop of a resolved route: everything a send needs that is invariant
  // across messages. Live state (degradation, failure, FIFO occupancy) is
  // read fresh per message, so resolving once never changes behaviour. The
  // bandwidth is stored as-is (not as a reciprocal) so the serialization
  // arithmetic stays bit-identical.
  struct CachedHop {
    topo::LinkId link;
    topo::LinkType type;
    int pod;  // pod of the link's source chip
    SimTime latency;
    Bandwidth bandwidth;
  };
  // The dimension-ordered route between two chips; no hops for a self-send.
  struct CachedRoute {
    topo::ChipId from;
    topo::ChipId to;
    std::vector<CachedHop> hops;
  };

  Network(const topo::MeshTopology* topology, const NetworkConfig& config,
          sim::Simulator* simulator);

  const topo::MeshTopology& topology() const { return *topology_; }
  sim::Simulator& simulator() { return *simulator_; }
  const NetworkConfig& config() const { return config_; }

  // Sends `bytes` from `from` to `to` along the dimension-ordered route.
  // `on_done` (any void() callable) fires at the simulated time the message
  // fully arrives; it is built once, in its event slot. Zero-byte messages
  // still pay per-message overhead and hop latency (they model
  // control/barrier traffic).
  template <typename F>
  void Send(topo::ChipId from, topo::ChipId to, Bytes bytes, F&& on_done) {
    SendAlong(RouteFor(from, to), bytes, std::forward<F>(on_done));
  }

  // Send over a route already resolved with RouteFor: senders that message
  // the same peer repeatedly (a ring pass) skip the per-message lookup.
  template <typename F>
  void SendAlong(const CachedRoute& route, Bytes bytes, F&& on_done) {
    const SimTime arrival = Transmit(route, bytes);
    const std::uint64_t seq =
        simulator_->ScheduleAt(arrival, std::forward<F>(on_done));
    if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
      // The completion event carries the message's provenance: which links
      // it crossed, and where each hop's time went.
      observer->OnMessage(seq, std::move(message_record_));
    }
  }

  // One message of a wave: its resolved route and its size.
  struct WaveMessage {
    const CachedRoute* route;
    Bytes bytes;
  };

  // Sends `count` messages in one synchronous loop, message i being
  // message_at(i) (called once per i, in order); `on_done` runs once per
  // message, at its arrival. Links are reserved in message order, exactly
  // as a SendAlong loop would. Only the queue differs: consecutive messages
  // that arrive at the same instant share one counted entry
  // (Simulator::ScheduleAt with copies, holding one copy of `on_done`),
  // which has the seqs, counters and extraction order the per-message
  // events would have had. Under an EventObserver every run has length 1,
  // so each message keeps its own completion event and MessageRecord.
  template <typename MessageAt, typename F>
  void SendWave(int count, MessageAt&& message_at, const F& on_done) {
    sim::EventObserver* observer = sim::CurrentEventObserver();
    const std::uint32_t cap =
        observer != nullptr ? 1 : sim::Simulator::kMaxCopies;
    SimTime when = 0.0;
    std::uint32_t copies = 0;
    auto flush = [&] {
      const std::uint64_t seq = simulator_->ScheduleAt(when, copies, on_done);
      if (observer != nullptr) {
        observer->OnMessage(seq, std::move(message_record_));
      }
      copies = 0;
    };
    for (int i = 0; i < count; ++i) {
      const WaveMessage message = message_at(i);
      const SimTime arrival = Transmit(*message.route, message.bytes);
      // Bitwise, not ==: -0.0 and +0.0 must not share an entry's `when`.
      if (copies > 0 && std::bit_cast<std::uint64_t>(arrival) !=
                            std::bit_cast<std::uint64_t>(when)) {
        flush();
      }
      when = arrival;
      if (++copies == cap) flush();
    }
    if (copies > 0) flush();
  }

  // The route from `from` to `to`, resolved on first use. Routes depend
  // only on the immutable topology and the per-construction config, so the
  // reference stays valid (and the route unchanged) for the network's
  // lifetime.
  const CachedRoute& RouteFor(topo::ChipId from, topo::ChipId to) const;

  // Pure function of current link occupancy: the time Send would complete if
  // issued now *on healthy links*. Deliberately ignores injected degradation
  // and failures — this is the expectation that fault-detection deadlines
  // (fault::HealthMonitor, GradientSummationConfig::deadline) compare the
  // observed phase time against. Does not mutate state.
  SimTime EstimateArrival(topo::ChipId from, topo::ChipId to,
                          Bytes bytes) const;

  const TrafficStats& traffic() const { return traffic_; }
  // Highest per-link utilization (busy fraction of elapsed sim time).
  double MaxLinkUtilization() const;
  // Mean utilization across links that carried any traffic.
  double MeanActiveLinkUtilization() const;
  // One link's utilization (busy fraction of elapsed sim time).
  double LinkUtilization(topo::LinkId link) const;
  // Seconds of already-reserved service still queued on one link: how far
  // into the simulated future the link is committed right now. Zero when
  // idle. This is the "queue occupancy" signal the telemetry sampler reads.
  SimTime LinkBacklogSeconds(topo::LinkId link) const;
  // Max backlog over all links.
  SimTime MaxLinkBacklogSeconds() const;

  // Failure/straggler injection: adds one degradation source multiplying the
  // serialization time of one directed link (a flaky optical link, a
  // congested neighbor). factor >= 1 (enforced). Sources stack as the max of
  // the active factors — two overlapping faults slow the link by the worse
  // of the two, and healing one leaves the other in force. Heal with the
  // matching ReleaseDegradedLink (or RestoreLink to force-clear).
  void DegradeLink(topo::LinkId link, double factor);

  // Removes one degradation source previously added with DegradeLink(link,
  // factor). The link's effective multiplier drops to the max of the
  // remaining sources (1.0 when none are left). A release with no matching
  // source is a no-op, so overlapping fault schedules cannot over-heal.
  void ReleaseDegradedLink(topo::LinkId link, double factor);

  // Heals a link unconditionally: clears every degradation source and the
  // full failure depth, returning the link to its configured parameters.
  // Timing of traffic sent after the restore is bit-identical to a
  // never-degraded link.
  void RestoreLink(topo::LinkId link);

  // Link failure: traffic routed through the link stalls for
  // kFailedLinkStall per byte-less hop rather than completing on schedule,
  // so a synchronous collective blocked on it visibly exceeds any sane
  // deadline instead of deadlocking the event queue. Failures are
  // depth-counted: a link failed by two overlapping faults (say a chip death
  // and a host preemption sharing the link) stays failed until both release
  // it.
  void FailLink(topo::LinkId link);

  // Undoes one FailLink. The link heals only when the failure depth reaches
  // zero (and carries no degradation); releasing an already-healthy link is
  // a no-op. This is what makes overlapping transient fault schedules
  // order-independent: a heal racing another fault's Fail on the same link
  // can never resurrect it early.
  void ReleaseFailedLink(topo::LinkId link);

  bool LinkFailed(topo::LinkId link) const;
  // Current effective serialization multiplier (1.0 = healthy; the max over
  // active degradation sources).
  double LinkDegradation(topo::LinkId link) const;
  int failed_link_count() const;

  // Stall charged per hop over a failed link. Large enough to trip any
  // deadline, small enough that the event queue still drains.
  static constexpr SimTime kFailedLinkStall = Seconds(3600.0);

  // Dumps this network's lifetime accounting (per-class traffic bytes,
  // message count, utilization, failed links, queue-delay histogram
  // percentiles come from the live per-Send metrics) into `metrics`.
  // Counters add, so call once per network at the end of a run.
  void ExportMetrics(trace::MetricsRegistry& metrics) const;

 private:
  // Everything a message does except schedule its completion: reserves each
  // hop's link, counts traffic, feeds the recorder and metrics, and (under
  // an observer) fills message_record_. Returns the arrival time.
  SimTime Transmit(const CachedRoute& route, Bytes bytes);

  // Trace state is cached per recorder: when a different recorder is
  // installed (or tracing turns off and on), tracks are re-registered
  // lazily. Tracing only observes — the simulated schedule is identical
  // with tracing on or off.
  void EnsureTraceState(trace::TraceRecorder* recorder);
  trace::TraceRecorder::TrackId LinkTrack(trace::TraceRecorder* recorder,
                                          topo::LinkId link);
  // Per-hop histogram handles, bound once per installed registry (and
  // rebound after it is Reset).
  void EnsureMetricState(trace::MetricsRegistry* metrics);
  int PodOf(topo::ChipId chip) const;

  // Recomputes a link's effective degradation after a source was added or
  // removed, and emits the restore trace instant when the link heals.
  void RefreshDegradation(topo::LinkId link);

  // Everything Network tracks about one directed link, in one record so a
  // hop reads one cache line: its FIFO occupancy (the arithmetic of
  // sim::FifoResource::ReserveFrom), the *effective* serialize multiplier
  // (max over active sources) and the depth-counted failure state.
  struct LinkState {
    SimTime free_at = 0.0;    // first simulated time the link is idle
    SimTime busy_time = 0.0;  // total simulated time spent serializing
    double degradation = 1.0;
    int failed = 0;
  };

  // Aborts unless `link` names a link of the topology.
  void CheckLink(topo::LinkId link) const;

  const topo::MeshTopology* topology_;
  NetworkConfig config_;
  sim::Simulator* simulator_;
  std::vector<LinkState> links_;  // indexed by LinkId
  // Active degradation sources as (link, factor) pairs. Faults are rare and
  // short-lived, so a flat list with linear scans beats per-link storage.
  std::vector<std::pair<topo::LinkId, double>> degrade_sources_;
  TrafficStats traffic_;
  // Every route resolved so far; a deque never moves its elements, so
  // RouteFor's references stay valid as it grows. Mutable because
  // EstimateArrival is const but may warm the cache.
  mutable std::deque<CachedRoute> routes_;
  // Indexed by source chip; each entry is the handful of (destination,
  // index into routes_) pairs that source has ever messaged — collectives
  // only talk to ring/recursive-halving neighbours, so a linear scan beats
  // hashing.
  mutable std::vector<std::vector<std::pair<topo::ChipId, std::uint32_t>>>
      route_index_;
  // The observed message being sent; handed to the observer once its
  // completion event is scheduled.
  sim::MessageRecord message_record_;

  trace::TraceRecorder* trace_recorder_ = nullptr;  // cache key, not owned
  std::vector<trace::TraceRecorder::TrackId> link_tracks_;
  std::vector<trace::TraceRecorder::CounterId> pod_bytes_in_flight_;
  std::vector<trace::TraceRecorder::CounterId> pod_busy_links_;

  trace::MetricsRegistry* metrics_registry_ = nullptr;  // cache key
  std::uint64_t metrics_epoch_ = 0;
  trace::MetricHistogram* queue_delay_us_ = nullptr;
  trace::MetricHistogram* hop_serialize_us_ = nullptr;
};

}  // namespace tpu::net
