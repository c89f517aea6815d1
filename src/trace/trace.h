// Simulation tracing: Chrome/Perfetto trace_event timelines on the
// simulated clock.
//
// The paper's optimizations (2-D hierarchical summation, weight-update
// sharding, input-pipeline scaling) were found with profiler timelines showing
// where step time goes. This recorder gives the simulator the same
// observability: begin/end spans, instant events and counter tracks, all
// timestamped on the *simulated* clock and exported as Chrome trace_event JSON
// that loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Track model (documented in DESIGN.md §"Trace & metrics schema"):
//   * one trace "process" per pod (plus a "system" process for machine-wide
//     tracks: collective phases, faults, the step profiler, host input),
//   * one "thread" per chip or per directed link,
//   * counter tracks for link occupancy and bytes in flight.
//
// Tracing is off by default: instrumentation sites guard on
// `trace::CurrentTrace()` being null, so the cost when disabled is one load
// and branch — simulation results are bit-identical with tracing on or off
// because the recorder only observes, it never schedules events.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace tpu::trace {

class TraceRecorder {
 public:
  using TrackId = int;
  using CounterId = int;

  // Registers (or returns the existing) track named `thread` under the trace
  // process named `process`. Pids/tids are assigned in registration order,
  // which together with the deterministic simulation makes the exported JSON
  // byte-identical across identical runs.
  TrackId Track(const std::string& process, const std::string& thread);

  // Registers a counter series under the track's process. Counter values are
  // built from deltas at export time, so instrumentation can record "+bytes
  // at send, -bytes at arrival" without scheduling simulator events.
  CounterId Counter(TrackId track, const std::string& name);

  // Synchronous span stack per track ("B"/"E" events; must nest).
  void Begin(TrackId track, std::string name, SimTime ts);
  void End(TrackId track, SimTime ts);
  // One-shot complete span ("X" event with a duration).
  void Complete(TrackId track, std::string name, SimTime start, SimTime end);
  // Instant event ("i", thread scope) — fault injections, detections.
  void Instant(TrackId track, std::string name, SimTime ts);

  // Async spans ("b"/"e" with an id): overlap freely on one track, which is
  // how concurrent rings of one collective phase share the "rings" track.
  std::uint64_t NextAsyncId() { return next_async_id_++; }
  void AsyncBegin(TrackId track, std::string name, std::uint64_t id,
                  SimTime ts);
  void AsyncEnd(TrackId track, std::uint64_t id, SimTime ts);

  // Flow events ("s"/"t"/"f" with an id): Perfetto draws arrows from each
  // flow point to the next, which is how the critical path is stitched
  // through the timeline. Each point must fall inside a slice on its track
  // (the arrow binds to the enclosing slice); name and id must match across
  // one flow's points.
  std::uint64_t NextFlowId() { return next_flow_id_++; }
  void FlowStart(TrackId track, std::string name, std::uint64_t id,
                 SimTime ts);
  void FlowStep(TrackId track, std::string name, std::uint64_t id, SimTime ts);
  void FlowEnd(TrackId track, std::string name, std::uint64_t id, SimTime ts);

  void CounterDelta(CounterId counter, SimTime ts, double delta);
  void CounterValue(CounterId counter, SimTime ts, double value);

  // Offset added to every recorded timestamp. Subsystems that run each step
  // on a fresh simulator (MultipodSystem::SimulateStep starts its collective
  // simulation at t=0) shift successive steps past each other with this.
  void set_time_offset(SimTime offset) { time_offset_ = offset; }
  SimTime time_offset() const { return time_offset_; }
  // Largest timestamp recorded so far (after offsetting); the natural base
  // for the next time_offset.
  SimTime last_timestamp() const { return last_timestamp_; }

  std::size_t event_count() const {
    return events_.size() + counter_events_.size();
  }
  // Spans begun but not yet ended on `track` — 0 for a well-nested trace.
  int open_spans(TrackId track) const;

  // Chrome trace_event JSON ({"traceEvents":[...]}): metadata first, then
  // all events stably sorted by timestamp. Deterministic: two identical
  // seeded simulations produce byte-identical output.
  void WriteJson(std::ostream& out) const;
  std::string ToJson() const;
  // Returns false (and leaves a partial file) only if the path is unwritable.
  bool WriteFile(const std::string& path) const;

 private:
  struct TrackInfo {
    int pid = 0;
    int tid = 0;
    std::string process;
    std::string thread;
  };
  struct CounterInfo {
    int pid = 0;
    std::string name;
  };
  struct Event {
    char ph = 'X';       // B / E / X / i / b / e / s / t / f
    TrackId track = 0;
    std::uint64_t id = 0;  // async span id
    SimTime ts = 0;
    SimTime dur = 0;  // X only
    std::string name;
  };
  struct CounterEvent {
    CounterId counter = 0;
    SimTime ts = 0;
    double delta = 0;
    bool absolute = false;  // value, not delta
  };

  SimTime Stamp(SimTime ts);

  std::vector<TrackInfo> tracks_;
  std::unordered_map<std::string, TrackId> track_index_;  // "process\0thread"
  std::vector<CounterInfo> counters_;
  std::unordered_map<std::string, CounterId> counter_index_;
  std::vector<Event> events_;
  std::vector<CounterEvent> counter_events_;
  std::vector<int> open_depth_;  // per track, B minus E
  std::uint64_t next_async_id_ = 1;
  std::uint64_t next_flow_id_ = 1;
  SimTime time_offset_ = 0;
  SimTime last_timestamp_ = 0;
};

// Appends `value` formatted exactly as printf("%.3f") does in the C locale
// (std::to_chars fixed, precision 3), without printf's parsing and locale
// costs: every timestamp and counter value of the JSON export.
void AppendFixed3(std::string* out, double value);

// Process-global recorder. Null (the default) disables all instrumentation;
// sites must check before recording. Instrumented code caches TrackIds keyed
// on the recorder pointer, so swap recorders rather than mutating one.
TraceRecorder* CurrentTrace();
void SetCurrentTrace(TraceRecorder* recorder);

// RAII install/uninstall (restores the previous recorder).
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceRecorder* recorder)
      : previous_(CurrentTrace()) {
    SetCurrentTrace(recorder);
  }
  ~ScopedTrace() { SetCurrentTrace(previous_); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceRecorder* previous_;
};

// RAII time-offset change on a recorder (no-op when recorder is null).
class ScopedTimeOffset {
 public:
  ScopedTimeOffset(TraceRecorder* recorder, SimTime offset)
      : recorder_(recorder), previous_(recorder ? recorder->time_offset() : 0) {
    if (recorder_ != nullptr) recorder_->set_time_offset(offset);
  }
  ~ScopedTimeOffset() {
    if (recorder_ != nullptr) recorder_->set_time_offset(previous_);
  }
  ScopedTimeOffset(const ScopedTimeOffset&) = delete;
  ScopedTimeOffset& operator=(const ScopedTimeOffset&) = delete;

 private:
  TraceRecorder* recorder_;
  SimTime previous_;
};

}  // namespace tpu::trace
