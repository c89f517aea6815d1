// Critical-path engine: causal event DAG, bottleneck attribution, slack and
// what-if analysis for one simulation.
//
// CriticalPathTracker is the sim::EventObserver implementation: it records
// every event's causal parent (the event whose callback scheduled it), the
// message/route that released each network completion, join-counter arrival
// order, and the active collective phase. Because a child is always
// scheduled during its parent's callback (child.created == parent.fired),
// walking parents from the last-firing event yields a chain of segments that
// tiles simulated time exactly — the critical path. On top of the DAG:
//
//   * Analyze() extracts the path with per-segment attribution (link, pod,
//     link type, phase, overhead/queue/serialize/latency vs local compute)
//     and ranked per-link / per-phase contributor tables;
//   * a backward pass computes per-event slack — how late each event could
//     have fired without moving the makespan, with join edges charging
//     inputs the gap to their join's release — folded into a per-link slack
//     table ("how much slower could this link get before it matters?");
//   * what-if entries price healing each degraded link from recorded
//     healthy-vs-actual serialization, answering "which single link upgrade
//     helps most?" without re-simulation.
//
// Tracking is an observer: it never schedules events and never perturbs
// simulated time (determinism_test proves bit-identity on/off). One tracker
// follows one simulator; if a fresh simulator starts while the tracker is
// installed (seq restarts at 0) the tracker resets and follows the new run.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/event_observer.h"

namespace tpu::trace {

class TraceRecorder;

// One span of the critical path. Message events decompose into overhead +
// per-hop queue/serialize/latency segments; everything else (compute delays,
// barrier hops) is a local segment.
struct PathSegment {
  enum class Kind { kLocal, kOverhead, kQueue, kSerialize, kLatency };
  Kind kind = Kind::kLocal;
  SimTime start = 0;
  SimTime end = 0;
  int link = -1;               // >= 0 for queue/serialize/latency
  int pod = -1;
  const char* link_type = "";  // static string from the network
  std::string phase;           // collective phase active when scheduled
  SimTime seconds() const { return end - start; }
  bool is_comm() const { return kind != Kind::kLocal; }
};

// On-path time through one link, ranked descending in the report.
struct LinkContribution {
  int link = -1;
  int pod = -1;
  const char* link_type = "";
  SimTime queue = 0;
  SimTime serialize = 0;
  SimTime latency = 0;
  SimTime total() const { return queue + serialize + latency; }
};

// On-path time per collective phase.
struct PhaseContribution {
  std::string phase;
  SimTime local = 0;
  SimTime comm = 0;
  SimTime total() const { return local + comm; }
};

// Minimum slack over all messages that traversed the link: how much later
// the link's traffic could have completed without moving the makespan.
// On-path links have (near-)zero slack.
struct LinkSlack {
  int link = -1;
  const char* link_type = "";
  SimTime slack = 0;
  SimTime on_path_seconds = 0;  // critical-path time through this link
  double max_degrade = 1.0;     // worst degradation observed on the link
};

// Predicted effect of healing one degraded/failed link, priced from the
// recorded healthy-vs-actual serialization of its on-path traffic.
struct WhatIfHeal {
  int link = -1;
  const char* link_type = "";
  double degrade = 1.0;         // worst factor observed (1.0 = stall only)
  SimTime on_path_seconds = 0;
  SimTime predicted_savings = 0;
  SimTime predicted_makespan = 0;
};

struct CriticalPathReport {
  SimTime start = 0;     // creation time of the path's root event
  SimTime makespan = 0;  // fire time of the terminal event
  int path_nodes = 0;    // events on the path
  int total_nodes = 0;   // events observed in the run
  SimTime local_seconds = 0;  // on-path non-message time
  SimTime comm_seconds = 0;   // on-path overhead+queue+serialize+latency
  std::vector<PathSegment> segments;        // root -> terminal, gap-free
  std::vector<LinkContribution> links;      // ranked by total() descending
  std::vector<PhaseContribution> phases;    // ranked by total() descending
  std::vector<LinkSlack> slack;             // ranked by slack ascending
  std::vector<WhatIfHeal> what_if;          // ranked by savings descending

  // Top contributor convenience: the link carrying the most on-path time
  // (-1 when the path never crossed the network).
  int top_link() const { return links.empty() ? -1 : links.front().link; }

  // Human-readable summary: path decomposition plus the ranked contributor,
  // slack and what-if tables.
  void WriteText(std::ostream& out) const;
};

class CriticalPathTracker : public sim::EventObserver {
 public:
  using NodeId = std::int64_t;
  static constexpr NodeId kNone = -1;

  // sim::EventObserver:
  void OnSchedule(std::uint64_t seq, std::int64_t parent_seq, SimTime now,
                  SimTime when) override;
  void OnFire(std::uint64_t seq, SimTime when) override;
  void OnMessage(std::uint64_t seq, const sim::MessageRecord& record,
                 std::span<const sim::MessageHopRecord> hops) override;
  int OnJoinOpen(int expected) override;
  void OnJoinNotify(int join) override;
  void OnPhase(const char* name) override;

  // Forgets everything observed so far (also triggered automatically when a
  // new simulator starts under the tracker).
  void Reset();

  std::int64_t node_count() const {
    return static_cast<std::int64_t>(nodes_.size());
  }
  std::int64_t message_count() const {
    return static_cast<std::int64_t>(messages_.size());
  }
  std::int64_t join_count() const {
    return static_cast<std::int64_t>(joins_.size());
  }

  // Extracts the critical path, contributor tables, slack table and what-if
  // entries from the DAG observed so far. Pure analysis; the tracker can
  // keep observing afterwards. Cost O(nodes log nodes + hops + links log
  // links): the slack pass sorts the fired nodes, everything else is
  // indexed by node or link id.
  CriticalPathReport Analyze() const;

 private:
  struct Node {
    NodeId parent = kNone;
    SimTime created = 0;
    SimTime fired = -1;       // -1: scheduled but never fired
    std::int32_t phase = -1;  // index into phases_
    std::int32_t message = -1;  // index into messages_
  };
  // One observed message: its sender overhead and its route, the slice
  // [hop_begin, hop_begin + hop_count) of the flat hop store hops_.
  struct Message {
    SimTime overhead = 0;
    std::int64_t hop_begin = 0;
    std::int32_t hop_count = 0;
  };
  struct Join {
    int expected = 0;
    NodeId release = kNone;   // node whose notification completed the join
    SimTime release_time = 0;
    // (node, fire time) per notification, release included.
    std::vector<std::pair<NodeId, SimTime>> inputs;
  };

  NodeId NodeOf(std::int64_t seq) const {
    const std::int64_t id = seq - seq_base_;
    return id >= 0 && id < node_count() ? id : kNone;
  }

  std::span<const sim::MessageHopRecord> HopsOf(std::int32_t message) const {
    const Message& m = messages_[message];
    return {hops_.data() + m.hop_begin, static_cast<std::size_t>(m.hop_count)};
  }

  std::vector<Node> nodes_;   // NodeId == seq - seq_base_
  std::vector<Message> messages_;
  // Every message's hops, appended in message order: one growing array
  // instead of one allocation per message.
  std::vector<sim::MessageHopRecord> hops_;
  std::vector<Join> joins_;
  std::vector<std::string> phases_;  // interned phase labels
  std::int64_t seq_base_ = -1;       // first observed seq (-1: none yet)
  NodeId current_ = kNone;           // node firing right now
  SimTime last_fire_time_ = 0;
  std::int32_t current_phase_ = -1;
};

// Draws `report` onto the trace timeline: one complete span per path segment
// on the "system"/"critical-path" track, stitched together by Chrome flow
// events (ph "s"/"t"/"f") so Perfetto renders the causal chain as arrows.
void EmitCriticalPathToTrace(const CriticalPathReport& report,
                             TraceRecorder& recorder);

}  // namespace tpu::trace
