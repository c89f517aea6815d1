// Timestamp-run queue for simulator events.
//
// The paper's 2-D summation is built from synchronous ring steps, so the
// event stream arrives in waves that finish at the same simulated instant: a
// 4096-chip step schedules millions of events at only thousands of distinct
// timestamps. The queue therefore orders timestamps, not events. Events with
// exactly the same `when` form one FIFO run, linked through the slab that
// holds them; a binary min-heap orders the distinct pending timestamps; and
// an open-addressing map, fronted by a small most-recently-used cache, finds
// a timestamp's run on Push. Per-event work is O(1) — append on push, unlink
// on pop — and the heap is touched once per distinct timestamp.
//
// Exactness is the contract: no two pending runs share a `when` (a run
// leaves the map when it drains, and -0.0/+0.0 — equal, but bitwise
// distinct — key the same run), the heap yields runs in ascending `when`,
// and each run yields its events in push order. The simulator pushes in
// ascending seq, so extraction order is exactly the (when, seq) total order
// a single global heap would produce.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace tpu::sim {

// Event must expose `SimTime when`; events extract in ascending `when`, and
// in push order among equal `when`.
template <typename Event>
class RunQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void Push(Event&& event) {
    const std::uint64_t key = KeyOf(event.when);
    const SimTime when = event.when;
    const std::uint32_t slot = Store(std::move(event));
    Run& run = runs_[FindOrAddRun(key, when)];
    if (run.head == kNil) {
      run.head = slot;
    } else {
      next_[run.tail] = slot;
    }
    run.tail = slot;
    ++size_;
  }

  // The next event in extraction order; the queue must not be empty.
  const Event& Top() const {
    TPU_CHECK(!empty()) << "Top on an empty RunQueue";
    return slab_[runs_[heap_.front().run].head];
  }

  // Removes and returns the next event (moved out, never copied).
  Event PopTop() {
    TPU_CHECK(!empty()) << "PopTop on an empty RunQueue";
    const std::uint32_t id = heap_.front().run;
    Run& run = runs_[id];
    const std::uint32_t slot = run.head;
    run.head = next_[slot];
    if (run.head == kNil) Retire(id);
    --size_;
    Event event = std::move(slab_[slot]);
    free_slots_.push_back(slot);
    return event;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kCacheSize = 4;

  // The pending events at one timestamp, oldest first.
  struct Run {
    std::uint64_t key;
    std::uint32_t head;
    std::uint32_t tail;
  };

  struct HeapEntry {
    SimTime when;
    std::uint32_t run;
  };

  // Min-heap comparator: the STL heap primitives build a max-heap.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.when > b.when;
    }
  };

  // A map slot or cache entry; run == kNil marks it empty.
  struct Entry {
    std::uint64_t key;
    std::uint32_t run;
  };

  // -0.0 == +0.0 but their bits differ; both must key the same run.
  static std::uint64_t KeyOf(SimTime when) {
    if (when == 0.0) return 0;
    std::uint64_t bits;
    std::memcpy(&bits, &when, sizeof(bits));
    return bits;
  }

  std::uint32_t Store(Event&& event) {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = std::move(event);
      next_[slot] = kNil;
      return slot;
    }
    slab_.push_back(std::move(event));
    next_.push_back(kNil);
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  std::uint32_t FindOrAddRun(std::uint64_t key, SimTime when) {
    for (const Entry& cached : cache_) {
      if (cached.key == key && cached.run != kNil) return cached.run;
    }
    if (2 * (map_count_ + 1) > map_.size()) GrowMap();
    std::size_t i = Home(key);
    while (map_[i].run != kNil && map_[i].key != key) i = (i + 1) & mask_;
    if (map_[i].run == kNil) {
      map_[i] = Entry{key, NewRun(key)};
      ++map_count_;
      heap_.push_back(HeapEntry{when, map_[i].run});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    cache_[cache_victim_++ % kCacheSize] = map_[i];
    return map_[i].run;
  }

  std::uint32_t NewRun(std::uint64_t key) {
    if (!free_runs_.empty()) {
      const std::uint32_t id = free_runs_.back();
      free_runs_.pop_back();
      runs_[id] = Run{key, kNil, kNil};
      return id;
    }
    runs_.push_back(Run{key, kNil, kNil});
    return static_cast<std::uint32_t>(runs_.size() - 1);
  }

  // Drops the drained run at the heap front from the heap, map and cache.
  void Retire(std::uint32_t id) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    Erase(runs_[id].key);
    for (Entry& cached : cache_) {
      if (cached.run == id) cached.run = kNil;
    }
    free_runs_.push_back(id);
  }

  // Fibonacci hashing: the top bits of the product mix every key bit, so
  // timestamps differing only in low mantissa bits spread across the map.
  std::size_t Home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // Linear-probing delete by backward shift: no tombstones, so probe chains
  // stay as short as the live load makes them.
  void Erase(std::uint64_t key) {
    std::size_t hole = Home(key);
    while (map_[hole].key != key || map_[hole].run == kNil) {
      hole = (hole + 1) & mask_;
    }
    for (std::size_t j = (hole + 1) & mask_; map_[j].run != kNil;
         j = (j + 1) & mask_) {
      // Entry j may fill the hole iff the hole lies on its probe path.
      if (((j - Home(map_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        map_[hole] = map_[j];
        hole = j;
      }
    }
    map_[hole].run = kNil;
    --map_count_;
  }

  void GrowMap() {
    std::vector<Entry> old = std::move(map_);
    const std::size_t capacity = old.empty() ? 16 : 2 * old.size();
    map_.assign(capacity, Entry{0, kNil});
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Entry& entry : old) {
      if (entry.run == kNil) continue;
      std::size_t i = Home(entry.key);
      while (map_[i].run != kNil) i = (i + 1) & mask_;
      map_[i] = entry;
    }
  }

  std::size_t size_ = 0;
  std::vector<Event> slab_;                // parked events, indexed by slot
  std::vector<std::uint32_t> next_;        // per slot: next event in its run
  std::vector<std::uint32_t> free_slots_;
  std::vector<Run> runs_;
  std::vector<std::uint32_t> free_runs_;
  std::vector<HeapEntry> heap_;            // one entry per pending run
  std::vector<Entry> map_;                 // key -> run, power-of-two size
  std::size_t map_count_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  Entry cache_[kCacheSize] = {{0, kNil}, {0, kNil}, {0, kNil}, {0, kNil}};
  std::size_t cache_victim_ = 0;
};

}  // namespace tpu::sim
