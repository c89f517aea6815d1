// Timestamp-run queue for simulator events.
//
// The paper's 2-D summation is built from synchronous ring steps, so the
// event stream arrives in waves that finish at the same simulated instant: a
// 4096-chip step schedules millions of events at only thousands of distinct
// timestamps. The queue therefore orders timestamps, not events. Events with
// exactly the same `when` form one FIFO run, linked through the slots that
// hold them; a binary min-heap orders the distinct pending timestamps; and
// an open-addressing map, fronted by a small most-recently-used cache, finds
// a timestamp's run on Push. Per-event work is O(1) — append on push, unlink
// on pop — and the heap is touched once per distinct timestamp.
//
// Events live in fixed-size chunks that never move. Push hands the caller
// the new event's slot to build in place; Pop unlinks the next event but
// keeps its slot reserved until Release, so the event can run in its slot
// while it pushes more events. No event is ever copied or moved by the
// queue.
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
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace tpu::sim {

// Event must be default-constructible and expose a `SimTime when`; events
// extract in ascending `when`, and in push order among equal `when`.
template <typename Event>
class RunQueue {
 public:
  using Slot = std::uint32_t;

  bool empty() const { return size_ == 0; }
  // Pending events; an event popped but not yet released is not counted.
  std::size_t size() const { return size_; }

  // Parks a new event at `when`, behind every pending event at that time,
  // and returns it for the caller to fill in place: `when` is set, the
  // rest is as Release (or default construction) left it.
  Event& Push(SimTime when) {
    const std::uint64_t key = KeyOf(when);
    const Slot slot = Acquire();
    Run& run = runs_[FindOrAddRun(key, when)];
    if (run.head == kNil) {
      run.head = slot;
    } else {
      NextOf(run.tail) = slot;
    }
    run.tail = slot;
    ++size_;
    Event& event = at(slot);
    event.when = when;
    return event;
  }

  // The next event in extraction order; the queue must not be empty.
  const Event& Top() const {
    TPU_CHECK(!empty()) << "Top on an empty RunQueue";
    const Slot slot = runs_[heap_.front().run].head;
    return chunks_[slot >> kChunkShift]->events[slot & kChunkMask];
  }

  // Unlinks the next event and returns its slot. The event stays where it
  // is, and the slot stays reserved, until Release(slot).
  Slot Pop() {
    TPU_CHECK(!empty()) << "Pop on an empty RunQueue";
    const std::uint32_t id = heap_.front().run;
    Run& run = runs_[id];
    const Slot slot = run.head;
    run.head = NextOf(slot);
    if (run.head == kNil) Retire(id);
    --size_;
    return slot;
  }

  Event& at(Slot slot) {
    return chunks_[slot >> kChunkShift]->events[slot & kChunkMask];
  }

  // Resets a popped event to its default state (destroying what it held)
  // and returns its slot for reuse.
  void Release(Slot slot) {
    at(slot) = Event{};
    free_slots_.push_back(slot);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kCacheSize = 4;
  static constexpr unsigned kChunkShift = 10;
  static constexpr Slot kChunkSize = Slot{1} << kChunkShift;
  static constexpr Slot kChunkMask = kChunkSize - 1;

  // A fixed block of slots; once allocated it never moves or shrinks.
  struct Chunk {
    Event events[kChunkSize];
    std::uint32_t next[kChunkSize];  // per slot: next event in its run
  };

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

  std::uint32_t& NextOf(Slot slot) {
    return chunks_[slot >> kChunkShift]->next[slot & kChunkMask];
  }

  Slot Acquire() {
    Slot slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = slots_used_++;
      if ((slot & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<Chunk>());
      }
    }
    NextOf(slot) = kNil;
    return slot;
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
  std::vector<std::unique_ptr<Chunk>> chunks_;  // slot s: chunk s >> shift
  Slot slots_used_ = 0;                          // slots ever handed out
  std::vector<Slot> free_slots_;
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
