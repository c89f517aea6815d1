// Discrete-event simulation core.
//
// Every timed behaviour in the multipod model — link transfers, compute
// phases, host pipeline stages — is expressed as events on one global
// simulated clock. Events at equal timestamps run in insertion order, which
// together with the deterministic RNG makes every simulation bit-reproducible.
//
// The hot path is allocation-free: callbacks live inline in the event (or in
// recycled pool blocks — see event_callback.h) and pending events sit in a
// timestamp-run queue (run_queue.h) that extracts in exact (when, seq)
// order. A Simulator and everything it schedules is confined to one thread;
// independent Simulators on different threads do not share state, which is
// what lets sweeps and planner searches run points in parallel with
// bit-identical results.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/event_callback.h"
#include "sim/event_observer.h"
#include "sim/run_queue.h"

namespace tpu::sim {

class Simulator {
 public:
  using Callback = EventCallback;

  Simulator() : pool_baseline_(CallbackPool::ThisThread().stats()) {}

  SimTime now() const { return now_; }

  // Schedules `cb` to run at now() + delay. delay must be >= 0. Returns the
  // event's seq — its identity for causal observers (EventObserver).
  std::uint64_t Schedule(SimTime delay, Callback cb) {
    TPU_CHECK_GE(delay, 0.0);
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  // Schedules `cb` at an absolute simulated time >= now(). Returns the
  // event's seq.
  std::uint64_t ScheduleAt(SimTime when, Callback cb) {
    TPU_CHECK_GE(when, now_);
    if (cb.storage() == EventCallback::Storage::kInline) {
      ++callbacks_inline_;
    } else {
      ++callbacks_pooled_;
    }
    const std::uint64_t seq = next_seq_++;
    queue_.Push(Event{when, seq, std::move(cb)});
    ++events_scheduled_;
    // Pending telemetry events share the queue but not the accounting: the
    // work-event high-water mark must read the same with sampling on or off.
    const std::size_t depth = queue_.size() - telemetry_seqs_.size();
    if (depth > peak_queue_depth_) peak_queue_depth_ = depth;
    if (EventObserver* observer = CurrentEventObserver()) {
      observer->OnSchedule(seq, current_seq_, now_, when);
    }
    return seq;
  }

  // Schedules a telemetry-class event (telemetry/sampler.h): it shares the
  // clock and the (when, seq) total order with work events — so sampling
  // reads a consistent instant of the simulation — but is excluded from the
  // user-visible accounting (events_scheduled/processed, peak_queue_depth,
  // callback-storage counters) and is invisible to any installed
  // EventObserver, keeping critical-path DAGs and exported counters
  // bit-identical with sampling on or off. Telemetry callbacks must only
  // observe and (re)schedule further telemetry events, never work events.
  std::uint64_t ScheduleTelemetryAt(SimTime when, Callback cb) {
    TPU_CHECK_GE(when, now_);
    const std::uint64_t seq = next_seq_++;
    queue_.Push(Event{when, seq, std::move(cb)});
    ++telemetry_events_scheduled_;
    telemetry_seqs_.push_back(seq);  // seqs are monotonic: stays sorted
    return seq;
  }

  // Runs until the event queue drains. Returns the final clock value.
  SimTime Run() {
    while (!queue_.empty()) Step();
    return now_;
  }

  // What RunUntil does with the clock when the queue drains before the
  // deadline. kAdvanceToDeadline (the historical behaviour, and still the
  // default) jumps now() forward to the deadline — convenient for "simulate
  // exactly T seconds" loops, but it inflates any timestamp taken at
  // quiescence (e.g. trace spans closed after the run) to the deadline.
  // kStopAtLastEvent leaves now() at the final processed event, so
  // quiescence timestamps reflect when work actually finished.
  enum class DeadlinePolicy { kAdvanceToDeadline, kStopAtLastEvent };

  // Runs until the queue drains or the clock passes `deadline`; `policy`
  // selects the clock value when the queue drained early (see above).
  SimTime RunUntil(SimTime deadline,
                   DeadlinePolicy policy = DeadlinePolicy::kAdvanceToDeadline) {
    while (!queue_.empty() && queue_.Top().when <= deadline) Step();
    if (policy == DeadlinePolicy::kAdvanceToDeadline && now_ < deadline) {
      now_ = deadline;
    }
    return now_;
  }

  bool empty() const { return queue_.empty(); }
  std::uint64_t events_processed() const { return events_processed_; }
  // Total events ever scheduled (processed + still queued).
  std::uint64_t events_scheduled() const { return events_scheduled_; }
  // High-water mark of the pending-event queue.
  std::size_t peak_queue_depth() const { return peak_queue_depth_; }
  // Pending work events right now (telemetry-class events excluded) — the
  // quantity the telemetry sampler itself records as "sim.queue_depth".
  std::size_t queue_depth() const {
    return queue_.size() - telemetry_seqs_.size();
  }
  // Telemetry-class events, accounted separately from the user-visible
  // events_scheduled()/events_processed() counters.
  std::uint64_t telemetry_events_scheduled() const {
    return telemetry_events_scheduled_;
  }
  std::uint64_t telemetry_events_processed() const {
    return telemetry_events_processed_;
  }

  // Event-core health: how callbacks were stored, and how the out-of-line
  // pool behaved over this simulator's lifetime (deltas against the owning
  // thread's pool at construction — exact while one simulator at a time runs
  // on the thread, which is how every driver here uses them).
  std::uint64_t callbacks_inline() const { return callbacks_inline_; }
  std::uint64_t callbacks_pooled() const { return callbacks_pooled_; }
  std::uint64_t pool_hits() const {
    return CallbackPool::ThisThread().stats().hits - pool_baseline_.hits;
  }
  std::uint64_t pool_fresh_allocs() const {
    return CallbackPool::ThisThread().stats().fresh - pool_baseline_.fresh;
  }
  std::uint64_t pool_oversize_allocs() const {
    return CallbackPool::ThisThread().stats().oversize -
           pool_baseline_.oversize;
  }
  // Always 0: the run queue has no window to re-center. Kept, with the
  // exported "*.queue_refills" counter, because committed baselines and the
  // benchmark still read them.
  std::uint64_t queue_refills() const { return 0; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // tie-break: equal-time events run in schedule order
    Callback cb;
  };

  void Step() {
    // PopTop moves the event out before the callback runs, so callbacks are
    // free to schedule new events (no reference into the queue is held).
    Event ev = queue_.PopTop();
    TPU_CHECK_GE(ev.when, now_);
    now_ = ev.when;
    // Telemetry events advance the clock to their own timestamp (which never
    // reorders work events — they only fire between work events at the same
    // instant boundaries the queue's total order already defines) but touch
    // none of the work-event accounting and stay invisible to observers.
    // The emptiness check keeps the telemetry-off hot path at one branch.
    if (!telemetry_seqs_.empty() && PopTelemetrySeq(ev.seq)) {
      ++telemetry_events_processed_;
      ev.cb();
      return;
    }
    ++events_processed_;
    if (EventObserver* observer = CurrentEventObserver()) {
      // Events scheduled by ev.cb() are causally ev's children; current_seq_
      // only matters (and is only maintained) while an observer is installed,
      // so the disabled-path cost stays one load and branch.
      current_seq_ = static_cast<std::int64_t>(ev.seq);
      observer->OnFire(ev.seq, ev.when);
      ev.cb();
      current_seq_ = EventObserver::kNoEvent;
    } else {
      ev.cb();
    }
  }

  // True (and erases the entry) iff `seq` is a pending telemetry event.
  // telemetry_seqs_ is sorted (seqs are assigned monotonically) and tiny —
  // one self-rescheduling tick per sampler — so the lookup is a binary
  // search over a handful of entries.
  bool PopTelemetrySeq(std::uint64_t seq) {
    auto it = std::lower_bound(telemetry_seqs_.begin(), telemetry_seqs_.end(),
                               seq);
    if (it == telemetry_seqs_.end() || *it != seq) return false;
    telemetry_seqs_.erase(it);
    return true;
  }

  RunQueue<Event> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::int64_t current_seq_ = EventObserver::kNoEvent;
  std::uint64_t events_processed_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::size_t peak_queue_depth_ = 0;
  std::uint64_t callbacks_inline_ = 0;
  std::uint64_t callbacks_pooled_ = 0;
  std::vector<std::uint64_t> telemetry_seqs_;
  std::uint64_t telemetry_events_scheduled_ = 0;
  std::uint64_t telemetry_events_processed_ = 0;
  CallbackPool::Stats pool_baseline_;
};

// A serially-reusable resource (e.g. a unidirectional link or a host CPU):
// acquisitions are granted FIFO, each holding the resource for a caller-
// specified service time. `Acquire` returns immediately; `on_done` fires at
// the simulated time the service completes.
class FifoResource {
 public:
  explicit FifoResource(Simulator* simulator) : simulator_(simulator) {
    TPU_CHECK(simulator != nullptr);
  }

  // Occupies the resource for `service_time`, then invokes on_done.
  void Acquire(SimTime service_time, Simulator::Callback on_done) {
    const SimTime end = ReserveFrom(simulator_->now(), service_time) +
                        service_time;
    simulator_->ScheduleAt(end, std::move(on_done));
  }

  // Reserves the resource for `duration` starting no earlier than
  // `earliest_start` and no earlier than the current end of the FIFO queue.
  // Returns the actual start time. Does not schedule anything.
  SimTime ReserveFrom(SimTime earliest_start, SimTime duration) {
    TPU_CHECK_GE(duration, 0.0);
    const SimTime start =
        std::max({free_at_, earliest_start, simulator_->now()});
    free_at_ = start + duration;
    busy_time_ += duration;
    return start;
  }

  // First simulated time at which the resource is idle.
  SimTime free_at() const { return free_at_; }
  // Total simulated time spent busy — used for link-utilization accounting.
  SimTime busy_time() const { return busy_time_; }

 private:
  Simulator* simulator_;
  SimTime free_at_ = 0.0;
  SimTime busy_time_ = 0.0;
};

// Join-counter: invokes `on_all_done` once Notify() has been called
// `expected` times. Used to express barriers between collective phases.
// When an EventObserver is installed the barrier registers itself as a join,
// so slack analysis can see which input arrived last.
class Barrier {
 public:
  Barrier(int expected, Simulator::Callback on_all_done)
      : remaining_(expected), on_all_done_(std::move(on_all_done)) {
    TPU_CHECK_GT(expected, 0);
    if (EventObserver* observer = CurrentEventObserver()) {
      join_ = observer->OnJoinOpen(expected);
    }
  }

  void Notify() {
    TPU_CHECK_GT(remaining_, 0);
    if (join_ >= 0) {
      if (EventObserver* observer = CurrentEventObserver()) {
        observer->OnJoinNotify(join_);
      }
    }
    if (--remaining_ == 0) on_all_done_();
  }

 private:
  int remaining_;
  int join_ = -1;
  Simulator::Callback on_all_done_;
};

}  // namespace tpu::sim
