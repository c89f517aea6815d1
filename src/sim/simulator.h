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
// order. Each callback is built once, in its queue slot, and runs there.
// One slot may also stand for an arrival wave: k events with consecutive
// seqs at one instant that run the same callable (ScheduleAt with copies),
// so a ring step's same-instant completions cost one push and one pop.
// A Simulator and everything it schedules is confined to one thread;
// independent Simulators on different threads do not share state, which is
// what lets sweeps and planner searches run points in parallel with
// bit-identical results.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
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

  // Schedules `f` (any void() callable, or a Callback) to run at
  // now() + delay. delay must be >= 0. Returns the event's seq — its
  // identity for causal observers (EventObserver).
  template <typename F>
  std::uint64_t Schedule(SimTime delay, F&& f) {
    TPU_CHECK_GE(delay, 0.0);
    return ScheduleAt(now_ + delay, std::forward<F>(f));
  }

  // Schedules `f` at an absolute simulated time >= now(). Returns the
  // event's seq. The callable is built directly in the event's queue slot
  // (a Callback argument is moved in once) and later runs in place.
  template <typename F>
  std::uint64_t ScheduleAt(SimTime when, F&& f) {
    return ScheduleAt(when, 1, std::forward<F>(f));
  }

  // Largest `copies` one ScheduleAt call takes.
  static constexpr std::uint32_t kMaxCopies = 0xffff;

  // Schedules `copies` events at `when` that all run `f`: one queue entry
  // standing for `copies` consecutive seqs, the first of which it returns.
  // The entry runs `f` once per copy, in seq order, and is indistinguishable
  // from scheduling `f` that many times in a row: every counter, depth and
  // observer callback reads as if each copy were its own event. That holds
  // because the seqs are consecutive — nothing, not even a telemetry tick,
  // can order between them — and they share one `when`, so a RunUntil
  // deadline takes all of them or none. The callable runs `copies` times in
  // place (it is never copied); pool statistics count it once.
  template <typename F>
  std::uint64_t ScheduleAt(SimTime when, std::uint32_t copies, F&& f) {
    TPU_CHECK_GE(when, now_);
    TPU_CHECK(copies >= 1 && copies <= kMaxCopies) << copies << " copies";
    const std::uint64_t seq = TakeSeqs(copies);
    Event& event = queue_.Push(when);
    event.seq = seq;
    event.copies = copies;
    event.cb.Emplace(std::forward<F>(f));
    if (event.cb.storage() == EventCallback::Storage::kInline) {
      callbacks_inline_ += copies;
    } else {
      callbacks_pooled_ += copies;
    }
    events_scheduled_ += copies;
    // Pending telemetry events share the queue but not the accounting: the
    // work-event high-water mark must read the same with sampling on or off.
    pending_ += copies;
    if (pending_ > peak_queue_depth_) peak_queue_depth_ = pending_;
    if (EventObserver* observer = CurrentEventObserver()) {
      for (std::uint32_t i = 0; i < copies; ++i) {
        observer->OnSchedule(seq + i, current_seq_, now_, when);
      }
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
  template <typename F>
  std::uint64_t ScheduleTelemetryAt(SimTime when, F&& f) {
    TPU_CHECK_GE(when, now_);
    const std::uint64_t seq = TakeSeqs(1);
    Event& event = queue_.Push(when);
    event.seq = seq;
    event.cb.Emplace(std::forward<F>(f));
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
  std::size_t queue_depth() const { return pending_; }
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
  // One queue entry: a single event, or `copies` events with consecutive
  // seqs from `seq` that run the same callback (ScheduleAt with copies).
  // The two share one word so an entry stays one 64-byte cache line.
  struct Event {
    SimTime when = 0.0;
    // Tie-break: equal-time events run in schedule order.
    std::uint64_t seq : 48 = 0;
    std::uint64_t copies : 16 = 1;
    Callback cb;
  };
  static_assert(sizeof(Event) == 64, "an event is one cache line");

  // Seqs fit Event::seq's 48 bits: 2.8e14 events, days of simulation at
  // any event rate this core reaches.
  std::uint64_t TakeSeqs(std::uint32_t copies) {
    const std::uint64_t seq = next_seq_;
    next_seq_ += copies;
    TPU_CHECK_LE(next_seq_, std::uint64_t{1} << 48) << "seq space exhausted";
    return seq;
  }

  void Step() {
    // The event runs in its slot, which stays reserved until the callback
    // returns: events the callback schedules take other slots, and slots
    // never move, so `ev` stays valid throughout.
    const RunQueue<Event>::Slot slot = queue_.Pop();
    Event& ev = queue_.at(slot);
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
    } else {
      // Each copy leaves the pending count and joins the processed count
      // just before it runs, exactly as its own event would.
      const std::uint64_t first = ev.seq;
      const std::uint32_t copies = ev.copies;
      for (std::uint32_t i = 0; i < copies; ++i) {
        --pending_;
        ++events_processed_;
        if (EventObserver* observer = CurrentEventObserver()) {
          // Events scheduled by ev.cb() are causally this copy's children;
          // current_seq_ only matters (and is only maintained) while an
          // observer is installed, so the disabled-path cost stays one load
          // and branch.
          current_seq_ = static_cast<std::int64_t>(first + i);
          observer->OnFire(first + i, ev.when);
          ev.cb();
          current_seq_ = EventObserver::kNoEvent;
        } else {
          ev.cb();
        }
      }
    }
    queue_.Release(slot);
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
  std::size_t pending_ = 0;  // work events scheduled and not yet run
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
