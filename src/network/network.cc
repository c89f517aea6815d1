#include "network/network.h"

#include <algorithm>
#include <cstdio>
#include <string>

namespace tpu::net {
namespace {

const char* LinkTypeName(topo::LinkType type) {
  switch (type) {
    case topo::LinkType::kMeshX:
      return "meshX";
    case topo::LinkType::kCrossPodX:
      return "crossX";
    case topo::LinkType::kMeshY:
      return "meshY";
    case topo::LinkType::kWrapY:
      return "wrapY";
  }
  return "link";
}

std::string BytesLabel(Bytes bytes) {
  char buf[32];
  if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "xfer %.1fMiB",
                  static_cast<double>(bytes) / kMiB);
  } else if (bytes >= kKiB) {
    std::snprintf(buf, sizeof(buf), "xfer %.1fKiB",
                  static_cast<double>(bytes) / kKiB);
  } else {
    std::snprintf(buf, sizeof(buf), "xfer %lldB",
                  static_cast<long long>(bytes));
  }
  return buf;
}

}  // namespace

Network::Network(const topo::MeshTopology* topology,
                 const NetworkConfig& config, sim::Simulator* simulator)
    : topology_(topology), config_(config), simulator_(simulator) {
  TPU_CHECK(topology != nullptr);
  TPU_CHECK(simulator != nullptr);
  links_.resize(topology_->links().size());
  route_index_.resize(topology_->num_chips());
}

const Network::CachedRoute& Network::RouteFor(topo::ChipId from,
                                              topo::ChipId to) const {
  std::vector<std::pair<topo::ChipId, std::uint32_t>>& index =
      route_index_[from];
  for (const auto& [dst, id] : index) {
    if (dst == to) return routes_[id];
  }

  CachedRoute& route = routes_.emplace_back();
  route.from = from;
  route.to = to;
  topology_->ForEachRouteLink(from, to, [&](topo::LinkId id) {
    const topo::Link& link = topology_->link(id);
    const LinkParams& params = config_.ParamsFor(link.type);
    route.hops.push_back(
        {id, link.type, PodOf(link.from), params.latency, params.bandwidth});
  });
  TPU_CHECK(from == to || !route.hops.empty());
  index.emplace_back(to, static_cast<std::uint32_t>(routes_.size() - 1));
  return route;
}

SimTime Network::Transmit(const CachedRoute& route, Bytes bytes) {
  TPU_CHECK_GE(bytes, 0);
  ++traffic_.messages;
  const sim::RunContext& context = sim::CurrentRunContext();
  trace::TraceRecorder* recorder = context.trace;
  trace::MetricsRegistry* metrics = context.metrics;
  sim::EventObserver* observer = context.observer;
  if (recorder != nullptr) EnsureTraceState(recorder);
  // Bound only once a hop records, so a self-send leaves no empty
  // histogram behind.
  if (metrics != nullptr && !route.hops.empty()) EnsureMetricState(metrics);
  if (observer != nullptr) {
    message_record_.from = route.from;
    message_record_.to = route.to;
    message_record_.bytes = bytes;
    message_record_.overhead = config_.message_overhead;
    message_hops_.clear();
  }
  // Every hop of one message carries the same span label; consecutive
  // messages mostly share a size, so the last label is kept.
  if (recorder != nullptr && bytes != label_bytes_) {
    label_ = BytesLabel(bytes);
    label_bytes_ = bytes;
  }

  // Store-and-forward per hop at message granularity: at each hop the message
  // waits for the link to be free, occupies it for bytes/bandwidth, and then
  // pays the propagation latency. We precompute the full hop schedule now —
  // FIFO ordering per link is preserved because reservations are made in
  // Send-call order (the simulator is single-threaded). The hop parameters
  // come from the route; only live link state is read per message.
  const SimTime now = simulator_->now();
  SimTime head = now + config_.message_overhead;
  for (const CachedHop& hop : route.hops) {
    LinkState& link = links_[hop.link];
    // FIFO reservation: no earlier than the link frees up or the head of
    // the message arrives.
    const SimTime ready = head;
    const auto [healthy_serialize, serialize, start] =
        ReserveHop(link, hop, bytes, now, head);

    if (observer != nullptr) {
      sim::MessageHopRecord hop_record;
      hop_record.link = hop.link;
      hop_record.pod = hop.pod;
      hop_record.type_name = LinkTypeName(hop.type);
      hop_record.queue = start - ready;
      hop_record.serialize = serialize;
      hop_record.healthy_serialize = healthy_serialize;
      hop_record.latency = hop.latency;
      hop_record.start = start;
      message_hops_.push_back(hop_record);
    }

    if (recorder != nullptr) {
      // One span per hop on the link's own track; the gap between the hop's
      // earliest start (`head`) and its actual start is FIFO queueing.
      const trace::TraceRecorder::TrackId track =
          LinkTrack(recorder, hop.link);
      recorder->Complete(track, label_, start, start + serialize);
      if (link.failed != 0) {
        recorder->Instant(track, "failed-link stall", start);
      }
      recorder->CounterDelta(pod_busy_links_[hop.pod], start, 1.0);
      recorder->CounterDelta(pod_busy_links_[hop.pod], start + serialize,
                             -1.0);
      recorder->CounterDelta(pod_bytes_in_flight_[hop.pod], start,
                             static_cast<double>(bytes));
      recorder->CounterDelta(pod_bytes_in_flight_[hop.pod],
                             start + serialize + hop.latency,
                             static_cast<double>(bytes) * -1.0);
    }
    if (metrics != nullptr) {
      queue_delay_us_->Record(ToMicros(start - ready));
      hop_serialize_us_->Record(ToMicros(serialize));
    }

    switch (hop.type) {
      case topo::LinkType::kMeshX:
        traffic_.mesh_x_bytes += bytes;
        break;
      case topo::LinkType::kCrossPodX:
        traffic_.cross_pod_x_bytes += bytes;
        break;
      case topo::LinkType::kMeshY:
        traffic_.mesh_y_bytes += bytes;
        break;
      case topo::LinkType::kWrapY:
        traffic_.wrap_y_bytes += bytes;
        break;
    }
  }
  return head;
}

int Network::PodOf(topo::ChipId chip) const {
  return topology_->CoordOf(chip).x / topology_->config().pod_size_x;
}

void Network::EnsureTraceState(trace::TraceRecorder* recorder) {
  if (trace_recorder_ == recorder) return;
  trace_recorder_ = recorder;
  link_tracks_.assign(topology_->links().size(), -1);
  const int num_pods = topology_->config().num_pods;
  pod_bytes_in_flight_.resize(num_pods);
  pod_busy_links_.resize(num_pods);
  for (int pod = 0; pod < num_pods; ++pod) {
    // Anchor each pod's counters to a per-pod track so Perfetto shows them
    // under the pod's process.
    const trace::TraceRecorder::TrackId anchor =
        recorder->Track("pod" + std::to_string(pod), "links");
    pod_bytes_in_flight_[pod] = recorder->Counter(anchor, "bytes_in_flight");
    pod_busy_links_[pod] = recorder->Counter(anchor, "busy_links");
  }
}

void Network::EnsureMetricState(trace::MetricsRegistry* metrics) {
  if (metrics_registry_ == metrics && metrics_epoch_ == metrics->epoch()) {
    return;
  }
  metrics_registry_ = metrics;
  metrics_epoch_ = metrics->epoch();
  queue_delay_us_ = &metrics->Histogram("net.link_queue_delay_us");
  hop_serialize_us_ = &metrics->Histogram("net.hop_serialize_us");
}

trace::TraceRecorder::TrackId Network::LinkTrack(
    trace::TraceRecorder* recorder, topo::LinkId link_id) {
  trace::TraceRecorder::TrackId& cached = link_tracks_[link_id];
  if (cached >= 0) return cached;
  const topo::Link& link = topology_->link(link_id);
  const topo::Coord from = topology_->CoordOf(link.from);
  const topo::Coord to = topology_->CoordOf(link.to);
  char name[96];
  std::snprintf(name, sizeof(name), "link %d (%d,%d)->(%d,%d) %s",
                static_cast<int>(link_id), from.x, from.y, to.x, to.y,
                LinkTypeName(link.type));
  cached = recorder->Track("pod" + std::to_string(PodOf(link.from)), name);
  return cached;
}

void Network::ExportMetrics(trace::MetricsRegistry& metrics) const {
  metrics.Counter("net.messages").Add(traffic_.messages);
  metrics.Counter("net.bytes.mesh_x").Add(traffic_.mesh_x_bytes);
  metrics.Counter("net.bytes.cross_pod_x").Add(traffic_.cross_pod_x_bytes);
  metrics.Counter("net.bytes.mesh_y").Add(traffic_.mesh_y_bytes);
  metrics.Counter("net.bytes.wrap_y").Add(traffic_.wrap_y_bytes);
  metrics.Gauge("net.max_link_utilization").Max(MaxLinkUtilization());
  metrics.Gauge("net.mean_active_link_utilization")
      .Max(MeanActiveLinkUtilization());
  metrics.Gauge("net.failed_links")
      .Max(static_cast<double>(failed_link_count()));
}

SimTime Network::EstimateArrival(topo::ChipId from, topo::ChipId to,
                                 Bytes bytes) const {
  SimTime head = simulator_->now() + config_.message_overhead;
  for (const CachedHop& hop : RouteFor(from, to).hops) {
    const SimTime serialize = static_cast<double>(bytes) / hop.bandwidth;
    const SimTime start = std::max(head, links_[hop.link].free_at);
    head = start + serialize + hop.latency;
  }
  return head;
}

void Network::CheckLink(topo::LinkId link) const {
  TPU_CHECK_GE(link, 0);
  TPU_CHECK_LT(link, static_cast<topo::LinkId>(links_.size()));
}

void Network::DegradeLink(topo::LinkId link, double factor) {
  CheckLink(link);
  TPU_CHECK_GE(factor, 1.0) << "a degradation factor below 1 would speed the "
                               "link up; use ReleaseDegradedLink to heal";
  degrade_sources_.emplace_back(link, factor);
  LinkState& state = links_[link];
  if (factor > state.degradation) state.degradation = factor;
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    EnsureTraceState(recorder);
    char label[48];
    std::snprintf(label, sizeof(label), "degraded x%.1f", state.degradation);
    recorder->Instant(LinkTrack(recorder, link), label, simulator_->now());
  }
}

void Network::RefreshDegradation(topo::LinkId link) {
  double factor = 1.0;
  for (const auto& [source_link, source_factor] : degrade_sources_) {
    if (source_link == link && source_factor > factor) factor = source_factor;
  }
  links_[link].degradation = factor;
  if (factor == 1.0 && links_[link].failed == 0) {
    if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
      EnsureTraceState(recorder);
      recorder->Instant(LinkTrack(recorder, link), "link restored",
                        simulator_->now());
    }
  }
}

void Network::ReleaseDegradedLink(topo::LinkId link, double factor) {
  CheckLink(link);
  for (std::size_t i = 0; i < degrade_sources_.size(); ++i) {
    if (degrade_sources_[i].first == link &&
        degrade_sources_[i].second == factor) {
      degrade_sources_.erase(degrade_sources_.begin() +
                             static_cast<std::ptrdiff_t>(i));
      RefreshDegradation(link);
      return;
    }
  }
  // No matching source: the link was force-restored (or never degraded by
  // this factor). Idempotent no-op by design.
}

void Network::RestoreLink(topo::LinkId link) {
  CheckLink(link);
  links_[link].degradation = 1.0;
  links_[link].failed = 0;
  std::erase_if(degrade_sources_,
                [link](const auto& source) { return source.first == link; });
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    EnsureTraceState(recorder);
    recorder->Instant(LinkTrack(recorder, link), "link restored",
                      simulator_->now());
  }
}

void Network::FailLink(topo::LinkId link) {
  CheckLink(link);
  ++links_[link].failed;
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    EnsureTraceState(recorder);
    recorder->Instant(LinkTrack(recorder, link), "link failed",
                      simulator_->now());
  }
}

void Network::ReleaseFailedLink(topo::LinkId link) {
  CheckLink(link);
  LinkState& state = links_[link];
  if (state.failed == 0) return;  // force-restored meanwhile: no-op
  if (--state.failed == 0 && state.degradation == 1.0) {
    if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
      EnsureTraceState(recorder);
      recorder->Instant(LinkTrack(recorder, link), "link restored",
                        simulator_->now());
    }
  }
}

bool Network::LinkFailed(topo::LinkId link) const {
  CheckLink(link);
  return links_[link].failed != 0;
}

double Network::LinkDegradation(topo::LinkId link) const {
  CheckLink(link);
  return links_[link].degradation;
}

int Network::failed_link_count() const {
  int count = 0;
  for (const LinkState& state : links_) count += state.failed > 0 ? 1 : 0;
  return count;
}

double Network::MeanActiveLinkUtilization() const {
  const SimTime elapsed = simulator_->now();
  if (elapsed <= 0.0) return 0.0;
  double total = 0;
  int active = 0;
  for (const LinkState& state : links_) {
    if (state.busy_time > 0) {
      total += state.busy_time / elapsed;
      ++active;
    }
  }
  return active > 0 ? total / active : 0.0;
}

double Network::MaxLinkUtilization() const {
  const SimTime elapsed = simulator_->now();
  if (elapsed <= 0.0) return 0.0;
  double max_busy = 0.0;
  for (const LinkState& state : links_) {
    max_busy = std::max(max_busy, state.busy_time);
  }
  return max_busy / elapsed;
}

double Network::LinkUtilization(topo::LinkId link) const {
  CheckLink(link);
  const SimTime elapsed = simulator_->now();
  if (elapsed <= 0.0) return 0.0;
  return links_[link].busy_time / elapsed;
}

SimTime Network::LinkBacklogSeconds(topo::LinkId link) const {
  CheckLink(link);
  return std::max(0.0, links_[link].free_at - simulator_->now());
}

SimTime Network::MaxLinkBacklogSeconds() const {
  const SimTime now = simulator_->now();
  SimTime max_backlog = 0.0;
  for (const LinkState& state : links_) {
    max_backlog = std::max(max_backlog, state.free_at - now);
  }
  return max_backlog;
}

}  // namespace tpu::net
