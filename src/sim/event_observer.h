// Causal observation hook for the DES core.
//
// An EventObserver sees every event the simulator schedules and fires, plus
// the higher-level causal annotations the network and collectives volunteer:
// which message released a completion event, which join-counter a
// notification fed, and which collective phase is active. Together these
// turn one simulation into a causal DAG — the substrate for critical-path
// extraction and slack analysis (trace/critical_path.h implements the one
// real observer).
//
// Like the other sinks, the observer is a pointer in the thread-local
// RunContext (sim/run_context.h) that is null by default: every
// instrumentation site is one load and branch, the observer only records (it
// never schedules), and simulated times are bit-identical with observation on
// or off. The interface lives in
// sim (header-only, no topology/trace dependency) so the simulator, network
// and collectives can all feed it without layering inversions; link ids,
// pods and type names are carried as plain ints/strings.
#pragma once

#include <cstdint>
#include <span>

#include "common/units.h"
#include "sim/run_context.h"

namespace tpu::sim {

// Per-hop provenance of one simulated message, recorded by net::Network at
// Send time. Times are absolute simulated seconds; `healthy_serialize` is
// what the serialization would have cost on an undegraded link, which is
// what lets what-if analysis price healing a link without re-simulating.
struct MessageHopRecord {
  std::int32_t link = -1;        // topo::LinkId of the directed link
  std::int32_t pod = 0;          // pod of the hop's source chip
  const char* type_name = "";    // static string ("meshX", "wrapY", ...)
  SimTime queue = 0;             // FIFO wait before the link was free
  SimTime serialize = 0;         // actual occupancy (degradation + stalls)
  SimTime healthy_serialize = 0; // bytes / configured bandwidth
  SimTime latency = 0;           // propagation after serialization
  SimTime start = 0;             // absolute time serialization began
};

// A message, attached to the completion event's seq. Its route arrives
// beside it as a span of hop records (empty for self-sends).
struct MessageRecord {
  std::int32_t from = -1;
  std::int32_t to = -1;
  std::int64_t bytes = 0;
  SimTime overhead = 0;          // per-message sender overhead
};

class EventObserver {
 public:
  // parent_seq when the schedule happened outside any event callback.
  static constexpr std::int64_t kNoEvent = -1;

  virtual ~EventObserver() = default;

  // `seq` was scheduled at simulated time `now` to fire at `when`;
  // `parent_seq` is the event whose callback performed the scheduling
  // (kNoEvent when scheduled from outside the event loop).
  virtual void OnSchedule(std::uint64_t seq, std::int64_t parent_seq,
                          SimTime now, SimTime when) = 0;
  // `seq` is about to run its callback at time `when`.
  virtual void OnFire(std::uint64_t seq, SimTime when) = 0;

  // The event `seq` is the completion of `record`, whose route crossed
  // `hops` in order (called by net::Network immediately after scheduling the
  // completion). Both live in the network's reused buffers: an observer that
  // keeps them must copy them before returning.
  virtual void OnMessage(std::uint64_t seq, const MessageRecord& record,
                         std::span<const MessageHopRecord> hops) {
    (void)seq;
    (void)record;
    (void)hops;
  }

  // A join-counter (barrier) expecting `expected` notifications was created;
  // the returned handle is passed to each OnJoinNotify. Return a negative
  // handle to decline tracking this join.
  virtual int OnJoinOpen(int expected) {
    (void)expected;
    return -1;
  }
  // The event currently firing delivered one notification to `join`; the
  // last notification is the join's release (its continuation runs inside
  // the same callback).
  virtual void OnJoinNotify(int join) { (void)join; }

  // Collectives label the phase about to schedule events ("Y-reduce-scatter",
  // a lowered stage name, ...). Applies to subsequently scheduled events
  // until the next call.
  virtual void OnPhase(const char* name) { (void)name; }
};

// The current observer, one member of the thread-local RunContext; null (the
// default) disables observation.
inline EventObserver* CurrentEventObserver() {
  return CurrentRunContext().observer;
}

// RAII install/uninstall (restores the previous observer).
using ScopedEventObserver = ScopedSink<&RunContext::observer>;

}  // namespace tpu::sim
