#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "network/network.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace tpu::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(3.0, [&] { order.push_back(3); });
  simulator.Schedule(1.0, [&] { order.push_back(1); });
  simulator.Schedule(2.0, [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.now(), 3.0);
}

TEST(Simulator, EqualTimeEventsRunInScheduleOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  simulator.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CallbacksCanScheduleMoreEvents) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) simulator.Schedule(1.0, recurse);
  };
  simulator.Schedule(1.0, recurse);
  simulator.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(simulator.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(1.0, [&] { ++fired; });
  simulator.Schedule(10.0, [&] { ++fired; });
  simulator.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulator.now(), 5.0);
  simulator.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StopAtLastEventLeavesClockAtQuiescence) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(1.0, [&] { ++fired; });
  simulator.Schedule(2.5, [&] { ++fired; });
  const SimTime end =
      simulator.RunUntil(10.0, Simulator::DeadlinePolicy::kStopAtLastEvent);
  EXPECT_EQ(fired, 2);
  // The queue drained at 2.5; the clock must not jump to the deadline.
  EXPECT_DOUBLE_EQ(end, 2.5);
  EXPECT_DOUBLE_EQ(simulator.now(), 2.5);
}

TEST(Simulator, StopAtLastEventStillHonorsTheDeadline) {
  // Events past the deadline stay queued under either policy; the policies
  // only differ when the queue drains early.
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(1.0, [&] { ++fired; });
  simulator.Schedule(10.0, [&] { ++fired; });
  simulator.RunUntil(5.0, Simulator::DeadlinePolicy::kStopAtLastEvent);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulator.now(), 1.0);
  EXPECT_FALSE(simulator.empty());

  Simulator advancing;
  int fired2 = 0;
  advancing.Schedule(1.0, [&] { ++fired2; });
  advancing.Schedule(10.0, [&] { ++fired2; });
  advancing.RunUntil(5.0, Simulator::DeadlinePolicy::kAdvanceToDeadline);
  EXPECT_EQ(fired2, 1);
  EXPECT_DOUBLE_EQ(advancing.now(), 5.0);  // default: clock jumps forward
}

TEST(Simulator, StopAtLastEventOnEmptyQueueKeepsNow) {
  Simulator simulator;
  simulator.Schedule(3.0, [] {});
  simulator.Run();
  simulator.RunUntil(100.0, Simulator::DeadlinePolicy::kStopAtLastEvent);
  EXPECT_DOUBLE_EQ(simulator.now(), 3.0);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator simulator;
  for (int i = 0; i < 7; ++i) simulator.Schedule(0.5, [] {});
  simulator.Run();
  EXPECT_EQ(simulator.events_processed(), 7u);
}

TEST(Simulator, CallbackScheduledEqualTimeEventsRunInScheduleOrder) {
  // Regression for the event-core rewrite: events scheduled *from within a
  // callback* at a timestamp equal to already-queued events must interleave
  // in sequence order, exactly as the old single-heap queue ordered them.
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(1.0, [&] {
    order.push_back(0);
    // now == 1.0: these land at t=2.0, *after* the pre-queued t=2.0 events
    // below in sequence order.
    simulator.Schedule(1.0, [&] { order.push_back(3); });
    simulator.Schedule(1.0, [&] { order.push_back(4); });
  });
  simulator.Schedule(2.0, [&] { order.push_back(1); });
  simulator.Schedule(2.0, [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, OutOfOrderNanosecondPushesStayExact) {
  // Events fractions of a nanosecond apart, the later one pushed first, must
  // not disturb (when, seq) extraction order.
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(1.0e-9 + 2.0e-10, [&] { order.push_back(1); });
  simulator.ScheduleAt(1.0e-9, [&] { order.push_back(0); });
  simulator.ScheduleAt(1.0e-9 + 1.0e-10, [&] { order.push_back(2); });
  // Equal-time tiebreak by sequence alongside the out-of-order pushes.
  simulator.ScheduleAt(1.0e-9, [&] { order.push_back(3); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 2, 1}));
}

TEST(Simulator, FarFutureEventsRunInTimeOrder) {
  // Timestamps hours apart, pushed out of order, still drain in time order.
  Simulator simulator;
  std::vector<double> times;
  for (const double when : {3600.0, 0.5e-6, 7200.0, 1.0}) {
    simulator.ScheduleAt(when, [&times, &simulator] {
      times.push_back(simulator.now());
    });
  }
  simulator.Run();
  EXPECT_EQ(times, (std::vector<double>{0.5e-6, 1.0, 3600.0, 7200.0}));
}

// Reference event queue for the differential check below: one
// std::priority_queue on (when, seq), with Simulator's RunUntil semantics.
class ReferenceQueue {
 public:
  SimTime now() const { return now_; }

  std::uint64_t ScheduleAt(SimTime when, bool /*telemetry*/,
                           std::function<void()> cb) {
    queue_.push(Entry{when, next_seq_, std::move(cb)});
    return next_seq_++;
  }

  void RunUntil(SimTime deadline, Simulator::DeadlinePolicy policy) {
    while (!queue_.empty() && queue_.top().when <= deadline) {
      Entry entry = queue_.top();
      queue_.pop();
      now_ = entry.when;
      entry.cb();
    }
    if (policy == Simulator::DeadlinePolicy::kAdvanceToDeadline &&
        now_ < deadline) {
      now_ = deadline;
    }
  }

  void Run() {
    RunUntil(std::numeric_limits<double>::infinity(),
             Simulator::DeadlinePolicy::kStopAtLastEvent);
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

struct SimulatorBackend {
  SimTime now() const { return simulator.now(); }
  std::uint64_t ScheduleAt(SimTime when, bool telemetry,
                           Simulator::Callback cb) {
    return telemetry ? simulator.ScheduleTelemetryAt(when, std::move(cb))
                     : simulator.ScheduleAt(when, std::move(cb));
  }
  void RunUntil(SimTime deadline, Simulator::DeadlinePolicy policy) {
    simulator.RunUntil(deadline, policy);
  }
  void Run() { simulator.Run(); }
  Simulator simulator;
};

// A seeded event workload. Every scheduling decision is drawn from the RNG
// in fire order, so two backends that extract in the same order make the
// same decisions and log the same (id, time) stream; any divergence in
// order shows up as a different log.
template <typename Backend>
class QueueWorkload {
 public:
  QueueWorkload(Backend* backend, std::uint64_t seed)
      : backend_(backend), rng_(seed) {}

  void Drive() {
    using Policy = Simulator::DeadlinePolicy;
    // -0.0 and +0.0 compare equal: they must run as one time, in seq order.
    for (int i = 0; i < 8; ++i) Add(i % 2 == 0 ? 0.0 : -0.0, false);
    Add(0.0, true);  // a self-rescheduling telemetry tick
    SimTime deadline = 0.0;
    for (int stage = 0; stage < 6; ++stage) {
      deadline += 3.0e-6;
      backend_->RunUntil(deadline, stage % 2 == 0 ? Policy::kStopAtLastEvent
                                                  : Policy::kAdvanceToDeadline);
      // Everything still pending is after the deadline; these land earlier
      // than the pending minimum.
      const SimTime now = backend_->now();
      Add(now, false);
      Add(now + Uniform() * (deadline - now), false);
      Add(now + Uniform() * (deadline - now), false);
    }
    backend_->Run();
  }

  const std::vector<std::uint64_t>& ids() const { return ids_; }
  const std::vector<SimTime>& times() const { return times_; }
  std::uint64_t scheduled() const { return next_id_; }

 private:
  static constexpr SimTime kGrid = 2.5e-7;

  double Uniform() { return static_cast<double>(rng_() >> 11) * 0x1.0p-53; }

  void Add(SimTime when, bool telemetry) {
    const std::uint64_t id = next_id_++;
    const std::uint64_t seq = backend_->ScheduleAt(
        when, telemetry, [this, id, telemetry] { Fire(id, telemetry); });
    EXPECT_EQ(seq, id);
  }

  void Fire(std::uint64_t id, bool telemetry) {
    const SimTime now = backend_->now();
    ids_.push_back(id);
    times_.push_back(now);
    if (telemetry) {
      if (++ticks_ < 64) Add(now + kGrid, true);
      return;
    }
    if (next_id_ >= kBudget) return;
    const int children = static_cast<int>(rng_() % 3);
    for (int c = 0; c < children; ++c) {
      switch (rng_() % 6) {
        case 0:  // zero delay: lands at now, behind the current time's run
          Add(now, false);
          break;
        case 1:  // a ring-step wave: grid times shared by many parents
          Add((std::floor(now / kGrid) + 1.0 +
               static_cast<double>(rng_() % 4)) * kGrid, false);
          break;
        case 2:  // sub-nanosecond offsets, pushed in random order
          Add(now + Uniform() * 1.0e-9, false);
          break;
        case 3:
          Add(now + Uniform() * 1.0e-6, false);
          break;
        case 4:  // far future, or now again
          Add(rng_() % 8 == 0 ? now + 3600.0 : now, false);
          break;
        default: {  // a same-time burst
          const SimTime when = now + Uniform() * 1.0e-7;
          const int burst = 2 + static_cast<int>(rng_() % 12);
          for (int b = 0; b < burst; ++b) Add(when, false);
        }
      }
    }
  }

  static constexpr std::uint64_t kBudget = 4000;
  Backend* backend_;
  std::mt19937_64 rng_;
  std::uint64_t next_id_ = 0;
  int ticks_ = 0;
  std::vector<std::uint64_t> ids_;
  std::vector<SimTime> times_;
};

TEST(Simulator, ExtractionOrderMatchesAReferenceHeapOnSeededWorkloads) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    SimulatorBackend actual;
    QueueWorkload<SimulatorBackend> under_test(&actual, seed);
    under_test.Drive();
    ReferenceQueue reference;
    QueueWorkload<ReferenceQueue> expected(&reference, seed);
    expected.Drive();

    ASSERT_EQ(under_test.ids(), expected.ids());
    ASSERT_EQ(under_test.times(), expected.times());
    EXPECT_EQ(under_test.ids().size(), under_test.scheduled());
    EXPECT_TRUE(actual.simulator.empty());
    EXPECT_EQ(actual.simulator.events_processed() +
                  actual.simulator.telemetry_events_processed(),
              under_test.scheduled());
    EXPECT_EQ(actual.simulator.telemetry_events_processed(), 64u);
  }
}

TEST(RunQueue, MatchesAReferenceHeapUnderChurn) {
  // Pushes draw from a small pool of timestamps, in any order, interleaved
  // with pops: runs drain and re-form at the same times over and over, and
  // the run map fills, collides and erases far more than any simulation.
  struct Item {
    SimTime when = 0.0;
    std::uint64_t seq = 0;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    std::vector<SimTime> pool = {0.0, -0.0, 3600.0};
    for (int i = 0; i < 200; ++i) {
      pool.push_back(static_cast<double>(rng() % 100000) * 1.0e-9);
    }
    RunQueue<Item> queue;
    std::priority_queue<Item, std::vector<Item>, Later> reference;
    std::uint64_t seq = 0;
    for (int op = 0; op < 20000 || !reference.empty(); ++op) {
      if (op < 20000 && (reference.empty() || rng() % 5 < 3)) {
        const SimTime when = pool[rng() % pool.size()];
        queue.Push(when).seq = seq;
        reference.push(Item{when, seq});
        ++seq;
        continue;
      }
      ASSERT_EQ(queue.size(), reference.size());
      EXPECT_EQ(queue.Top().seq, reference.top().seq);
      const RunQueue<Item>::Slot slot = queue.Pop();
      ASSERT_EQ(queue.at(slot).seq, reference.top().seq);
      EXPECT_EQ(queue.at(slot).when, reference.top().when);
      queue.Release(slot);
      reference.pop();
    }
    EXPECT_TRUE(queue.empty());
  }
}

// A seeded workload of arrival waves: groups of same-instant events that run
// one callable. With `counted` each wave is one ScheduleAt(when, copies, f)
// entry; without, the same wave is `copies` ScheduleAt calls in a row. Every
// fire logs its id (which is its seq), the clock and queue_depth(), and
// draws its children from the RNG in fire order, so the two modes log the
// same stream iff counted entries are indistinguishable from the events
// they stand for.
class WaveWorkload {
 public:
  WaveWorkload(bool counted, std::uint64_t seed)
      : counted_(counted), rng_(seed) {}

  void Drive() {
    using Policy = Simulator::DeadlinePolicy;
    AddWave(0.0, 5);
    AddTick(0.0);  // a telemetry tick at the first wave's instant
    AddWave(0.0, 3);
    AddWave(kGrid, 4);
    for (int stage = 1; stage <= 6; ++stage) {
      // Deadlines fall exactly on grid instants, where waves and ticks land:
      // a counted entry must run whole or not at all.
      const SimTime deadline = stage * 3 * kGrid;
      simulator_.RunUntil(deadline, stage % 2 == 0
                                        ? Policy::kStopAtLastEvent
                                        : Policy::kAdvanceToDeadline);
      AddWave(deadline, 1 + static_cast<std::uint32_t>(rng_() % 6));
      AddWave(deadline + kGrid, 2);
    }
    simulator_.Run();
  }

  struct Fire {
    std::uint64_t id;
    SimTime when;
    std::size_t depth;
    bool telemetry;
    friend bool operator==(const Fire&, const Fire&) = default;
  };
  const std::vector<Fire>& log() const { return log_; }
  const Simulator& simulator() const { return simulator_; }
  std::uint64_t scheduled() const { return next_id_; }

 private:
  static constexpr SimTime kGrid = 2.5e-7;
  static constexpr std::uint64_t kBudget = 6000;

  void AddWave(SimTime when, std::uint32_t copies) {
    const std::uint64_t first = next_id_;
    next_id_ += copies;
    if (counted_) {
      EXPECT_EQ(simulator_.ScheduleAt(when, copies,
                                      [this, first, i = std::uint64_t{0}]()
                                          mutable { Run(first + i++); }),
                first);
      return;
    }
    for (std::uint32_t i = 0; i < copies; ++i) {
      EXPECT_EQ(simulator_.ScheduleAt(when, [this, id = first + i] { Run(id); }),
                first + i);
    }
  }

  void AddTick(SimTime when) {
    const std::uint64_t id = next_id_++;
    simulator_.ScheduleTelemetryAt(when, [this, id] {
      log_.push_back({id, simulator_.now(), simulator_.queue_depth(), true});
      if (++ticks_ < 48) AddTick(simulator_.now() + kGrid);
    });
  }

  void Run(std::uint64_t id) {
    const SimTime now = simulator_.now();
    log_.push_back({id, now, simulator_.queue_depth(), false});
    if (next_id_ >= kBudget) return;
    const int children = static_cast<int>(rng_() % 3);
    for (int c = 0; c < children; ++c) {
      const auto copies = 1 + static_cast<std::uint32_t>(rng_() % 9);
      switch (rng_() % 4) {
        case 0:  // delay 0: behind the rest of the running wave
          AddWave(now, copies);
          break;
        case 1:  // a later grid instant, shared with ticks and other waves
          AddWave((std::floor(now / kGrid) + 1.0 +
                   static_cast<double>(rng_() % 3)) * kGrid, copies);
          break;
        case 2:
          AddWave(now + static_cast<double>(rng_() >> 11) * 0x1.0p-53 * 1e-6,
                  copies);
          break;
        default:  // a single event
          AddWave(now + kGrid, 1);
      }
    }
  }

  bool counted_;
  std::mt19937_64 rng_;
  Simulator simulator_;
  std::uint64_t next_id_ = 0;
  int ticks_ = 0;
  std::vector<Fire> log_;
};

TEST(Simulator, CountedEntriesMatchEventsScheduledOneAtATime) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    WaveWorkload counted(/*counted=*/true, seed);
    counted.Drive();
    WaveWorkload single(/*counted=*/false, seed);
    single.Drive();

    ASSERT_EQ(counted.log().size(), single.log().size());
    for (std::size_t i = 0; i < counted.log().size(); ++i) {
      ASSERT_EQ(counted.log()[i], single.log()[i]) << "fire " << i;
    }
    EXPECT_EQ(counted.log().size(), counted.scheduled());
    const Simulator& a = counted.simulator();
    const Simulator& b = single.simulator();
    EXPECT_GT(a.events_processed(), 1000u);
    EXPECT_EQ(a.events_processed(), b.events_processed());
    EXPECT_EQ(a.events_scheduled(), b.events_scheduled());
    EXPECT_EQ(a.peak_queue_depth(), b.peak_queue_depth());
    EXPECT_EQ(a.callbacks_inline(), b.callbacks_inline());
    EXPECT_EQ(a.callbacks_pooled(), b.callbacks_pooled());
    EXPECT_EQ(a.telemetry_events_processed(), 48u);
    EXPECT_EQ(a.queue_depth(), 0u);
    EXPECT_EQ(a.now(), b.now());
  }
}

// Records every observer callback as text, in call order.
class ObserverLog : public EventObserver {
 public:
  void OnSchedule(std::uint64_t seq, std::int64_t parent, SimTime now,
                  SimTime when) override {
    lines.push_back("schedule " + std::to_string(seq) + " " +
                    std::to_string(parent) + " " + std::to_string(now) +
                    " " + std::to_string(when));
  }
  void OnFire(std::uint64_t seq, SimTime when) override {
    lines.push_back("fire " + std::to_string(seq) + " " +
                    std::to_string(when));
  }
  std::vector<std::string> lines;
};

TEST(Simulator, ObserversSeeEachCopyOfACountedEntry) {
  std::vector<std::string> logs[2];
  for (const bool counted : {false, true}) {
    ObserverLog log;
    ScopedEventObserver scope(&log);
    Simulator simulator;
    int runs = 0;
    auto wave = [&](SimTime when, std::uint32_t copies) {
      auto f = [&simulator, &runs] {
        // The second copy's child is causally the second copy's.
        if (++runs == 2) simulator.Schedule(0.0, [] {});
      };
      if (counted) {
        simulator.ScheduleAt(when, copies, f);
      } else {
        for (std::uint32_t i = 0; i < copies; ++i) simulator.ScheduleAt(when, f);
      }
    };
    wave(1.0, 3);
    wave(1.0, 2);
    simulator.Run();
    EXPECT_EQ(runs, 5);
    logs[counted] = log.lines;
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[1].size(), 2u * 6u);
}

TEST(Simulator, CallbacksOwnMoveOnlyCaptures) {
  Simulator simulator;
  int result = 0;
  auto value = std::make_unique<int>(42);
  simulator.Schedule(1.0, [&result, value = std::move(value)] {
    result = *value;
  });
  simulator.Run();
  EXPECT_EQ(result, 42);
}

TEST(Simulator, LargeCapturesUsePooledStorageAndRecycle) {
  Simulator simulator;
  struct BigCapture {
    double padding[16];  // 128 bytes: over the inline budget
    int* counter;
  };
  int fired = 0;
  for (int round = 0; round < 3; ++round) {
    BigCapture big{};
    big.counter = &fired;
    simulator.Schedule(1.0, [big] { ++*big.counter; });
    simulator.Run();
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(simulator.callbacks_pooled(), 3u);
  // The pool allocates at most one block (the thread-local pool may already
  // be warm from earlier tests) and recycles it on later rounds.
  EXPECT_LE(simulator.pool_fresh_allocs(), 1u);
  EXPECT_GE(simulator.pool_hits(), 2u);
  EXPECT_EQ(simulator.pool_oversize_allocs(), 0u);
  EXPECT_EQ(simulator.pool_fresh_allocs() + simulator.pool_hits(), 3u);
}

TEST(Simulator, ExportsEventCoreCounters) {
  Simulator simulator;
  for (int i = 0; i < 5; ++i) simulator.Schedule(1.0 + i, [] {});
  EXPECT_EQ(simulator.events_scheduled(), 5u);
  EXPECT_EQ(simulator.peak_queue_depth(), 5u);
  EXPECT_EQ(simulator.callbacks_inline(), 5u);
  EXPECT_EQ(simulator.callbacks_pooled(), 0u);
  simulator.Run();
  EXPECT_EQ(simulator.events_processed(), 5u);
  EXPECT_EQ(simulator.peak_queue_depth(), 5u);  // sticky high-water mark
}

// Counts how a callable is built and moved on its way into the queue.
struct Lifecycle {
  int copies = 0;
  int moves = 0;
  int live = 0;  // constructed and not yet destroyed
  int runs = 0;
};

// A callable that reports every copy, move and destruction. `Padding` bytes
// push it past EventCallback's inline buffer, into a pooled block.
template <std::size_t Padding>
struct CountingCallable {
  explicit CountingCallable(Lifecycle* life) : life(life) { ++life->live; }
  CountingCallable(const CountingCallable& other) noexcept
      : life(other.life) {
    ++life->copies;
    ++life->live;
  }
  CountingCallable(CountingCallable&& other) noexcept : life(other.life) {
    ++life->moves;
    ++life->live;
  }
  ~CountingCallable() { --life->live; }
  void operator()() { ++life->runs; }

  Lifecycle* life;
  unsigned char padding[Padding] = {};
};

using InlineCallable = CountingCallable<8>;
using PooledCallable = CountingCallable<256>;
static_assert(sizeof(InlineCallable) <= EventCallback::kInlineCapacity);
static_assert(sizeof(PooledCallable) > EventCallback::kInlineCapacity);

template <typename Callable>
void ExpectBuiltOnceInPlace() {
  Simulator simulator;
  Lifecycle life;
  // A temporary is moved into the event's slot once; nothing relocates it
  // afterwards.
  simulator.ScheduleAt(1.0, Callable(&life));
  EXPECT_EQ(life.moves, 1);
  EXPECT_EQ(life.copies, 0);
  EXPECT_EQ(life.live, 1);
  // An lvalue is copied into the slot once.
  const Callable original(&life);
  simulator.Schedule(2.0, original);
  EXPECT_EQ(life.moves, 1);
  EXPECT_EQ(life.copies, 1);
  simulator.Run();
  EXPECT_EQ(life.runs, 2);
  EXPECT_EQ(life.moves, 1);
  EXPECT_EQ(life.copies, 1);
  EXPECT_EQ(life.live, 1);  // only `original` is left
}

TEST(Simulator, CallablesAreBuiltOnceInTheirSlotAndNeverRelocated) {
  ExpectBuiltOnceInPlace<InlineCallable>();
  ExpectBuiltOnceInPlace<PooledCallable>();
}

TEST(Simulator, NetworkSendBuildsTheCompletionOnceInItsSlot) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, true));
  Simulator simulator;
  net::Network network(&topo, net::NetworkConfig{}, &simulator);
  Lifecycle inline_life, pooled_life;
  network.Send(0, 5, 1000, InlineCallable(&inline_life));
  network.Send(5, 5, 1000, PooledCallable(&pooled_life));  // self-send
  network.SendAlong(network.RouteFor(0, 3), 1000,
                    InlineCallable(&inline_life));
  simulator.Run();
  EXPECT_EQ(inline_life.runs, 2);
  EXPECT_EQ(inline_life.moves, 2);
  EXPECT_EQ(inline_life.copies, 0);
  EXPECT_EQ(inline_life.live, 0);
  EXPECT_EQ(pooled_life.runs, 1);
  EXPECT_EQ(pooled_life.moves, 1);
  EXPECT_EQ(pooled_life.copies, 0);
  EXPECT_EQ(pooled_life.live, 0);
}

TEST(Simulator, AnEventCallbackArgumentIsMovedExactlyOnce) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, true));
  Simulator simulator;
  net::Network network(&topo, net::NetworkConfig{}, &simulator);
  Lifecycle life;
  EventCallback scheduled(InlineCallable{&life});
  EventCallback sent(InlineCallable{&life});
  ASSERT_EQ(life.moves, 2);  // each built once
  simulator.ScheduleAt(1.0, std::move(scheduled));
  EXPECT_EQ(life.moves, 3);
  network.Send(0, 1, 1000, std::move(sent));
  EXPECT_EQ(life.moves, 4);
  EXPECT_FALSE(scheduled);
  EXPECT_FALSE(sent);
  simulator.Run();
  EXPECT_EQ(life.runs, 2);
  EXPECT_EQ(life.copies, 0);
  EXPECT_EQ(life.live, 0);
}

TEST(Simulator, RunningCallbackKeepsItsSlotWhileItSchedulesManyEvents) {
  // The running event stays in its slot; enough new events to add several
  // queue chunks must neither reuse nor move it, so its captures still
  // read back intact after the burst (under ASan, a reused slot would be a
  // use-after-destroy of the pooled capture).
  Simulator simulator;
  constexpr int kBurst = 5000;
  int fired = 0;
  std::vector<std::uint64_t> seen;
  auto schedule_burst = [&simulator, &fired](std::uint64_t tag) {
    for (int i = 0; i < kBurst; ++i) {
      simulator.Schedule(i % 7 == 0 ? 0.0 : 1e-6 * (i % 13),
                         [&fired] { ++fired; });
    }
    return tag;
  };
  // One inline capture and one pooled capture.
  const std::array<std::uint32_t, 4> small = {11, 22, 33, 44};
  simulator.Schedule(1.0, [&, small] {
    seen.push_back(schedule_burst(small[0] + small[1] + small[2] + small[3]));
    seen.push_back(small[0] + small[1] + small[2] + small[3]);
  });
  std::array<std::uint64_t, 32> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 3 * i + 1;
  simulator.Schedule(2.0, [&, big] {
    std::uint64_t before = 0;
    for (const std::uint64_t v : big) before += v;
    schedule_burst(before);
    std::uint64_t after = 0;
    for (const std::uint64_t v : big) after += v;
    seen.push_back(before);
    seen.push_back(after);
  });
  simulator.Run();
  EXPECT_EQ(fired, 2 * kBurst);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{110, 110, 1520, 1520}));
  // The first burst lands while the second callback is still pending.
  EXPECT_EQ(simulator.peak_queue_depth(),
            static_cast<std::size_t>(kBurst) + 1);
  EXPECT_EQ(simulator.callbacks_pooled(), 1u);
}

TEST(FifoResource, SerializesOverlappingAcquisitions) {
  Simulator simulator;
  FifoResource resource(&simulator);
  std::vector<double> completions;
  simulator.Schedule(0.0, [&] {
    resource.Acquire(2.0, [&] { completions.push_back(simulator.now()); });
    resource.Acquire(3.0, [&] { completions.push_back(simulator.now()); });
  });
  simulator.Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 2.0);
  EXPECT_DOUBLE_EQ(completions[1], 5.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(resource.busy_time(), 5.0);
}

TEST(FifoResource, ReserveFromHonorsEarliestStart) {
  Simulator simulator;
  FifoResource resource(&simulator);
  // Idle resource, reservation wants to start at t=4.
  EXPECT_DOUBLE_EQ(resource.ReserveFrom(4.0, 1.0), 4.0);
  // Next reservation asks for t=2 but the queue ends at t=5.
  EXPECT_DOUBLE_EQ(resource.ReserveFrom(2.0, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(resource.free_at(), 6.0);
  EXPECT_DOUBLE_EQ(resource.busy_time(), 2.0);
}

TEST(Barrier, FiresAfterExpectedNotifies) {
  int fired = 0;
  Barrier barrier(3, [&] { ++fired; });
  barrier.Notify();
  barrier.Notify();
  EXPECT_EQ(fired, 0);
  barrier.Notify();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace tpu::sim
