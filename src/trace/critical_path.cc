#include "trace/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace tpu::trace {
namespace {

constexpr SimTime kInfinity = std::numeric_limits<SimTime>::infinity();

const char* SegmentKindName(PathSegment::Kind kind) {
  switch (kind) {
    case PathSegment::Kind::kLocal:
      return "local";
    case PathSegment::Kind::kOverhead:
      return "overhead";
    case PathSegment::Kind::kQueue:
      return "queue";
    case PathSegment::Kind::kSerialize:
      return "serialize";
    case PathSegment::Kind::kLatency:
      return "latency";
  }
  return "segment";
}

// Compressed adjacency lists: the items of key k are
// items[begin[k], begin[k + 1]), in the order `for_each` emitted them.
template <typename T>
struct Csr {
  std::vector<std::int64_t> begin;
  std::vector<T> items;
  std::span<const T> of(std::int64_t key) const {
    return {items.data() + begin[key],
            static_cast<std::size_t>(begin[key + 1] - begin[key])};
  }
};

// Builds a Csr over keys [0, keys) by a counting sort: `for_each(emit)`
// must call emit(key, item) for every item, the same way both times it is
// called.
template <typename T, typename ForEach>
Csr<T> BuildCsr(std::size_t keys, const ForEach& for_each) {
  Csr<T> csr;
  csr.begin.assign(keys + 2, 0);
  for_each([&](std::int64_t key, const T&) { ++csr.begin[key + 2]; });
  for (std::size_t k = 2; k < csr.begin.size(); ++k) {
    csr.begin[k] += csr.begin[k - 1];
  }
  csr.items.resize(csr.begin.back());
  // begin[key + 1] is key's start; filling advances it to key's end, which
  // is key + 1's start.
  for_each([&](std::int64_t key, const T& item) {
    csr.items[csr.begin[key + 1]++] = item;
  });
  csr.begin.pop_back();
  return csr;
}

// The slot `link` maps to in a dense link id -> index table (-1: none yet).
int& SlotOf(std::vector<int>& slots, int link) {
  if (link >= static_cast<int>(slots.size())) slots.resize(link + 1, -1);
  return slots[link];
}

}  // namespace

void CriticalPathTracker::OnSchedule(std::uint64_t seq,
                                     std::int64_t parent_seq, SimTime now,
                                     SimTime when) {
  (void)when;
  const std::int64_t s = static_cast<std::int64_t>(seq);
  if (seq_base_ < 0) {
    seq_base_ = s;
  } else if (s != seq_base_ + node_count()) {
    // seq is assigned densely per simulator, so a discontinuity means a new
    // simulator started under this tracker (or observation gapped): restart
    // and follow the new run.
    Reset();
    seq_base_ = s;
  }
  Node node;
  node.parent = parent_seq >= 0 ? NodeOf(parent_seq) : kNone;
  node.created = now;
  node.phase = current_phase_;
  nodes_.push_back(node);
}

void CriticalPathTracker::OnFire(std::uint64_t seq, SimTime when) {
  current_ = NodeOf(static_cast<std::int64_t>(seq));
  if (current_ != kNone) nodes_[current_].fired = when;
  last_fire_time_ = when;
}

void CriticalPathTracker::OnMessage(
    std::uint64_t seq, const sim::MessageRecord& record,
    std::span<const sim::MessageHopRecord> hops) {
  const NodeId id = NodeOf(static_cast<std::int64_t>(seq));
  if (id == kNone) return;
  nodes_[id].message = static_cast<std::int32_t>(messages_.size());
  messages_.push_back(Message{record.overhead,
                              static_cast<std::int64_t>(hops_.size()),
                              static_cast<std::int32_t>(hops.size())});
  hops_.insert(hops_.end(), hops.begin(), hops.end());
}

int CriticalPathTracker::OnJoinOpen(int expected) {
  Join join;
  join.expected = expected;
  join.inputs.reserve(expected);
  joins_.push_back(std::move(join));
  return static_cast<int>(joins_.size()) - 1;
}

void CriticalPathTracker::OnJoinNotify(int join) {
  if (join < 0 || join >= static_cast<int>(joins_.size())) return;
  Join& j = joins_[join];
  // Notifications arrive from inside the notifying event's callback; the
  // rare out-of-event notification (a degenerate barrier resolved at setup
  // time) falls back to the last observed fire time.
  const SimTime now =
      current_ != kNone ? nodes_[current_].fired : last_fire_time_;
  j.inputs.emplace_back(current_, now);
  if (static_cast<int>(j.inputs.size()) == j.expected) {
    // The last notification releases the join; its continuation runs inside
    // the same callback, so the release node's children are the join's
    // downstream work.
    j.release = current_;
    j.release_time = now;
  }
}

void CriticalPathTracker::OnPhase(const char* name) {
  const std::string label = name != nullptr ? name : "";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i] == label) {
      current_phase_ = static_cast<std::int32_t>(i);
      return;
    }
  }
  current_phase_ = static_cast<std::int32_t>(phases_.size());
  phases_.push_back(label);
}

void CriticalPathTracker::Reset() {
  const std::string phase =
      current_phase_ >= 0 ? phases_[current_phase_] : std::string();
  nodes_.clear();
  messages_.clear();
  hops_.clear();
  joins_.clear();
  phases_.clear();
  seq_base_ = -1;
  current_ = kNone;
  last_fire_time_ = 0;
  current_phase_ = -1;
  if (!phase.empty()) {
    phases_.push_back(phase);
    current_phase_ = 0;
  }
}

CriticalPathReport CriticalPathTracker::Analyze() const {
  CriticalPathReport report;
  report.total_nodes = node_count();

  // Terminal: the last-processed event — lexicographic max of (fire time,
  // node id), matching the simulator's (when, seq) execution order.
  NodeId terminal = kNone;
  for (NodeId i = 0; i < node_count(); ++i) {
    if (nodes_[i].fired < 0) continue;
    if (terminal == kNone || nodes_[i].fired > nodes_[terminal].fired ||
        (nodes_[i].fired == nodes_[terminal].fired && i > terminal)) {
      terminal = i;
    }
  }
  if (terminal == kNone) return report;
  report.makespan = nodes_[terminal].fired;

  // The path: parents from the terminal back to a root. Children are
  // scheduled during their parent's callback (created == parent's fired), so
  // the chain tiles [root.created, makespan] without gaps.
  std::vector<NodeId> path;
  for (NodeId n = terminal; n != kNone; n = nodes_[n].parent) path.push_back(n);
  std::reverse(path.begin(), path.end());
  report.start = nodes_[path.front()].created;
  report.path_nodes = static_cast<int>(path.size());

  for (const NodeId n : path) {
    const Node& node = nodes_[n];
    const std::string phase =
        node.phase >= 0 ? phases_[node.phase] : std::string();
    auto add = [&](PathSegment::Kind kind, SimTime begin, SimTime end,
                   const sim::MessageHopRecord* hop) {
      if (end <= begin) return;
      PathSegment segment;
      segment.kind = kind;
      segment.start = begin;
      segment.end = end;
      segment.phase = phase;
      if (hop != nullptr) {
        segment.link = hop->link;
        segment.pod = hop->pod;
        segment.link_type = hop->type_name;
      }
      report.segments.push_back(std::move(segment));
    };
    if (node.message >= 0) {
      const SimTime overhead = messages_[node.message].overhead;
      SimTime t = node.created;
      add(PathSegment::Kind::kOverhead, t, t + overhead, nullptr);
      t += overhead;
      for (const sim::MessageHopRecord& hop : HopsOf(node.message)) {
        add(PathSegment::Kind::kQueue, t, hop.start, &hop);
        add(PathSegment::Kind::kSerialize, hop.start,
            hop.start + hop.serialize, &hop);
        add(PathSegment::Kind::kLatency, hop.start + hop.serialize,
            hop.start + hop.serialize + hop.latency, &hop);
        t = hop.start + hop.serialize + hop.latency;
      }
      // The hop schedule ends exactly at the completion event; any residual
      // (none today) would be local time.
      add(PathSegment::Kind::kLocal, t, node.fired, nullptr);
    } else {
      add(PathSegment::Kind::kLocal, node.created, node.fired, nullptr);
    }
  }

  // Contributor tables from the on-path segments, links in first-seen order
  // until the ranking sort.
  std::vector<int> contribution_slot;  // link id -> index into report.links
  for (const PathSegment& segment : report.segments) {
    if (segment.is_comm()) {
      report.comm_seconds += segment.seconds();
    } else {
      report.local_seconds += segment.seconds();
    }
    if (segment.link >= 0) {
      int& slot = SlotOf(contribution_slot, segment.link);
      if (slot < 0) {
        slot = static_cast<int>(report.links.size());
        LinkContribution c;
        c.link = segment.link;
        c.pod = segment.pod;
        c.link_type = segment.link_type;
        report.links.push_back(c);
      }
      LinkContribution& entry = report.links[slot];
      switch (segment.kind) {
        case PathSegment::Kind::kQueue:
          entry.queue += segment.seconds();
          break;
        case PathSegment::Kind::kSerialize:
          entry.serialize += segment.seconds();
          break;
        default:
          entry.latency += segment.seconds();
          break;
      }
    }
    PhaseContribution* entry = nullptr;
    for (PhaseContribution& c : report.phases) {
      if (c.phase == segment.phase) entry = &c;
    }
    if (entry == nullptr) {
      PhaseContribution c;
      c.phase = segment.phase;
      report.phases.push_back(std::move(c));
      entry = &report.phases.back();
    }
    (segment.is_comm() ? entry->comm : entry->local) += segment.seconds();
  }
  std::sort(report.links.begin(), report.links.end(),
            [](const LinkContribution& a, const LinkContribution& b) {
              return a.total() != b.total() ? a.total() > b.total()
                                            : a.link < b.link;
            });
  std::sort(report.phases.begin(), report.phases.end(),
            [](const PhaseContribution& a, const PhaseContribution& b) {
              return a.total() != b.total() ? a.total() > b.total()
                                            : a.phase < b.phase;
            });

  // Slack backward pass. slack(n) = how much later n could fire without
  // moving the makespan: min over children of their slack (a child starts
  // exactly when its parent fires), and over join edges of the gap to the
  // join's release plus the release node's slack. Nodes are relaxed in
  // (fired, id)-descending order — consumers fire no earlier than producers
  // — and re-swept a few times so equal-timestamp join ties (where a release
  // can carry a smaller id than an input) settle.
  std::vector<SimTime> slack(nodes_.size(), -1.0);
  const Csr<NodeId> children =
      BuildCsr<NodeId>(nodes_.size(), [&](const auto& emit) {
        for (NodeId i = 0; i < node_count(); ++i) {
          if (nodes_[i].parent != kNone) emit(nodes_[i].parent, i);
        }
      });
  using JoinEdge = std::pair<NodeId, SimTime>;  // (release, release time)
  const Csr<JoinEdge> join_edges =
      BuildCsr<JoinEdge>(nodes_.size(), [&](const auto& emit) {
        for (const Join& join : joins_) {
          if (join.release == kNone) continue;  // incomplete: no constraint
          for (const auto& [input, t] : join.inputs) {
            (void)t;
            if (input == kNone || input == join.release) continue;
            emit(input, JoinEdge{join.release, join.release_time});
          }
        }
      });
  // (fired, id) of every fired node, sorted latest first; the sort reads
  // only the pairs.
  std::vector<std::pair<SimTime, NodeId>> order;
  order.reserve(nodes_.size());
  for (NodeId i = 0; i < node_count(); ++i) {
    if (nodes_[i].fired >= 0) order.emplace_back(nodes_[i].fired, i);
  }
  std::sort(order.begin(), order.end(), std::greater<>());
  for (int sweep = 0; sweep < 4; ++sweep) {
    bool changed = false;
    for (const auto& [fired, n] : order) {
      SimTime s = kInfinity;
      for (const NodeId c : children.of(n)) {
        if (nodes_[c].fired < 0 || slack[c] < 0) continue;
        s = std::min(s, slack[c] + (nodes_[c].created - fired));
      }
      for (const auto& [release, release_time] : join_edges.of(n)) {
        if (slack[release] < 0) continue;
        s = std::min(s, (release_time - fired) + slack[release]);
      }
      if (n == terminal) s = 0;
      // Leaves (no surviving consumers) could slip to the end of the run.
      if (s == kInfinity) s = report.makespan - fired;
      if (s != slack[n]) {
        slack[n] = s;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Per-link slack and what-if healing, from every observed message (not
  // just on-path ones). Savings price the link returning to its healthy
  // serialization: serialize shrinks to the recorded healthy time, queueing
  // shrinks proportionally (the queued-behind traffic heals too).
  struct LinkAccumulator {
    LinkSlack slack_entry;
    SimTime on_path_actual = 0;
    SimTime on_path_healthy = 0;
    SimTime on_path_queue = 0;
  };
  std::vector<LinkAccumulator> accum;  // first-seen order
  std::vector<int> accum_slot;         // link id -> index into accum
  auto link_accum = [&](int link, const char* type) -> LinkAccumulator& {
    int& slot = SlotOf(accum_slot, link);
    if (slot < 0) {
      slot = static_cast<int>(accum.size());
      LinkAccumulator a;
      a.slack_entry.link = link;
      a.slack_entry.link_type = type;
      a.slack_entry.slack = kInfinity;
      accum.push_back(a);
    }
    return accum[slot];
  };
  for (NodeId i = 0; i < node_count(); ++i) {
    const Node& node = nodes_[i];
    if (node.message < 0 || node.fired < 0 || slack[i] < 0) continue;
    for (const sim::MessageHopRecord& hop : HopsOf(node.message)) {
      LinkAccumulator& a = link_accum(hop.link, hop.type_name);
      a.slack_entry.slack = std::min(a.slack_entry.slack, slack[i]);
      if (hop.healthy_serialize > 0) {
        a.slack_entry.max_degrade = std::max(
            a.slack_entry.max_degrade, hop.serialize / hop.healthy_serialize);
      }
    }
  }
  std::vector<bool> on_path(nodes_.size(), false);
  for (const NodeId n : path) on_path[n] = true;
  for (NodeId i = 0; i < node_count(); ++i) {
    const Node& node = nodes_[i];
    if (node.message < 0 || !on_path[i]) continue;
    SimTime t = node.created + messages_[node.message].overhead;
    for (const sim::MessageHopRecord& hop : HopsOf(node.message)) {
      LinkAccumulator& a = link_accum(hop.link, hop.type_name);
      a.on_path_actual += hop.serialize;
      a.on_path_healthy += hop.healthy_serialize;
      a.on_path_queue += std::max(0.0, hop.start - t);
      t = hop.start + hop.serialize + hop.latency;
    }
  }
  // report.links is ranked now; re-point the link index at the ranked rows.
  for (std::size_t i = 0; i < report.links.size(); ++i) {
    contribution_slot[report.links[i].link] = static_cast<int>(i);
  }
  for (const LinkAccumulator& a : accum) {
    LinkSlack entry = a.slack_entry;
    const int on_path_slot = SlotOf(contribution_slot, entry.link);
    if (on_path_slot >= 0) {
      entry.on_path_seconds = report.links[on_path_slot].total();
    }
    if (entry.slack == kInfinity) entry.slack = 0;
    report.slack.push_back(entry);
    if (a.on_path_actual > a.on_path_healthy && a.on_path_actual > 0) {
      WhatIfHeal heal;
      heal.link = entry.link;
      heal.link_type = entry.link_type;
      heal.degrade = entry.max_degrade;
      heal.on_path_seconds = entry.on_path_seconds;
      const double healed_fraction = a.on_path_healthy / a.on_path_actual;
      heal.predicted_savings = (a.on_path_actual - a.on_path_healthy) +
                               a.on_path_queue * (1.0 - healed_fraction);
      heal.predicted_makespan = report.makespan - heal.predicted_savings;
      report.what_if.push_back(heal);
    }
  }
  std::sort(report.slack.begin(), report.slack.end(),
            [](const LinkSlack& a, const LinkSlack& b) {
              return a.slack != b.slack ? a.slack < b.slack : a.link < b.link;
            });
  std::sort(report.what_if.begin(), report.what_if.end(),
            [](const WhatIfHeal& a, const WhatIfHeal& b) {
              return a.predicted_savings != b.predicted_savings
                         ? a.predicted_savings > b.predicted_savings
                         : a.link < b.link;
            });
  return report;
}

void CriticalPathReport::WriteText(std::ostream& out) const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "critical path: %.1f us over %d events (comm %.1f us, local "
                "%.1f us)\n",
                ToMicros(makespan - start), path_nodes,
                ToMicros(comm_seconds), ToMicros(local_seconds));
  out << line;
  if (!links.empty()) {
    out << "top link contributors:\n";
    for (const LinkContribution& c : links) {
      std::snprintf(line, sizeof(line),
                    "  link %-4d %-6s pod%-2d %8.1f us (queue %.1f, "
                    "serialize %.1f, latency %.1f)\n",
                    c.link, c.link_type, c.pod, ToMicros(c.total()),
                    ToMicros(c.queue), ToMicros(c.serialize),
                    ToMicros(c.latency));
      out << line;
    }
  }
  if (!phases.empty()) {
    out << "per-phase:\n";
    for (const PhaseContribution& c : phases) {
      std::snprintf(line, sizeof(line),
                    "  %-20s %8.1f us (comm %.1f, local %.1f)\n",
                    c.phase.empty() ? "(unlabeled)" : c.phase.c_str(),
                    ToMicros(c.total()), ToMicros(c.comm),
                    ToMicros(c.local));
      out << line;
    }
  }
  if (!slack.empty()) {
    out << "link slack (ascending; tightest links first):\n";
    const std::size_t limit = std::min<std::size_t>(slack.size(), 10);
    for (std::size_t i = 0; i < limit; ++i) {
      const LinkSlack& s = slack[i];
      std::snprintf(line, sizeof(line),
                    "  link %-4d %-6s slack %8.1f us, on-path %8.1f us, "
                    "degrade x%.2f\n",
                    s.link, s.link_type, ToMicros(s.slack),
                    ToMicros(s.on_path_seconds), s.max_degrade);
      out << line;
    }
  }
  for (const WhatIfHeal& heal : what_if) {
    std::snprintf(line, sizeof(line),
                  "what-if heal link %d (x%.2f): save %.1f us -> makespan "
                  "%.1f us\n",
                  heal.link, heal.degrade, ToMicros(heal.predicted_savings),
                  ToMicros(heal.predicted_makespan));
    out << line;
  }
}

void EmitCriticalPathToTrace(const CriticalPathReport& report,
                             TraceRecorder& recorder) {
  if (report.segments.empty()) return;
  const TraceRecorder::TrackId track =
      recorder.Track("system", "critical-path");
  const std::uint64_t flow = recorder.NextFlowId();
  for (std::size_t i = 0; i < report.segments.size(); ++i) {
    const PathSegment& segment = report.segments[i];
    char name[96];
    if (segment.link >= 0) {
      std::snprintf(name, sizeof(name), "%s link %d %s",
                    SegmentKindName(segment.kind), segment.link,
                    segment.link_type);
    } else if (!segment.phase.empty()) {
      std::snprintf(name, sizeof(name), "%s %s",
                    SegmentKindName(segment.kind), segment.phase.c_str());
    } else {
      std::snprintf(name, sizeof(name), "%s", SegmentKindName(segment.kind));
    }
    recorder.Complete(track, name, segment.start, segment.end);
    // Flow points sit at each segment's start (inside its slice, so Perfetto
    // binds the arrow); the final segment closes the flow.
    if (i == 0) {
      recorder.FlowStart(track, "critical-path", flow, segment.start);
    } else if (i + 1 < report.segments.size()) {
      recorder.FlowStep(track, "critical-path", flow, segment.start);
    } else {
      recorder.FlowEnd(track, "critical-path", flow, segment.start);
    }
  }
}

}  // namespace tpu::trace
