// Small-buffer-optimized callback type for simulator events.
//
// std::function heap-allocates every capture larger than its tiny internal
// buffer (16 bytes on libstdc++), which on the event hot path means one
// malloc/free per simulated event — the dominant cost of large collective
// simulations. EventCallback stores the common capture sizes inline in the
// event itself; captures that do not fit are placed in recycled fixed-size
// blocks from a per-thread CallbackPool, so even the large-capture path stops
// allocating once the pool is warm.
//
// EventCallback is move-only (events are scheduled once and run once), which
// also lets callbacks own move-only resources such as pooled payload buffers.
// The simulator builds each callback with Emplace directly in its queue slot
// and runs it there, so an event's callable is never relocated.
// Pool blocks are freed back to the pool that allocated them; a callback must
// be constructed, run, and destroyed on the thread whose pool it drew from —
// true by construction here, since each Simulator (and everything it
// schedules) is confined to one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace tpu::sim {

// Recycling size-class allocator for out-of-line callback captures. Blocks
// are allocated on first use (a "fresh" allocation) and recycled through
// per-class free lists forever after (a "hit"); captures beyond the largest
// class fall back to plain operator new ("oversize"). The stats make pool
// health observable via trace::ExportSimulatorMetrics.
class CallbackPool {
 public:
  struct Stats {
    std::uint64_t hits = 0;      // block reused from a free list
    std::uint64_t fresh = 0;     // new block allocated (cold pool)
    std::uint64_t oversize = 0;  // capture larger than the largest class
  };

  static CallbackPool& ThisThread() {
    thread_local CallbackPool pool;
    return pool;
  }

  CallbackPool() = default;
  CallbackPool(const CallbackPool&) = delete;
  CallbackPool& operator=(const CallbackPool&) = delete;

  ~CallbackPool() {
    for (Header*& head : free_lists_) {
      while (head != nullptr) {
        Header* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  }

  void* Allocate(std::size_t bytes) {
    const int cls = ClassFor(bytes);
    if (cls < 0) {
      ++stats_.oversize;
      Header* header = NewBlock(bytes, -1);
      return header + 1;
    }
    if (free_lists_[cls] != nullptr) {
      ++stats_.hits;
      Header* header = free_lists_[cls];
      free_lists_[cls] = header->next;
      return header + 1;
    }
    ++stats_.fresh;
    Header* header = NewBlock(kClassBytes[cls], cls);
    return header + 1;
  }

  // Static: the block remembers its owning pool, so the callsite does not
  // need to know which thread's pool the capture came from.
  static void Free(void* payload) {
    Header* header = static_cast<Header*>(payload) - 1;
    if (header->size_class < 0) {
      ::operator delete(header);
      return;
    }
    CallbackPool* pool = header->owner;
    header->next = pool->free_lists_[header->size_class];
    pool->free_lists_[header->size_class] = header;
  }

  const Stats& stats() const { return stats_; }

 private:
  // alignas keeps sizeof(Header) a multiple of max alignment, so the payload
  // immediately after the header is suitably aligned for any capture.
  struct alignas(std::max_align_t) Header {
    CallbackPool* owner;
    int size_class;  // index into kClassBytes; -1 = oversize (plain new)
    Header* next;    // free-list link while recycled
  };

  static constexpr std::size_t kClassBytes[] = {64, 128, 256, 512, 1024};
  static constexpr int kNumClasses =
      static_cast<int>(sizeof(kClassBytes) / sizeof(kClassBytes[0]));

  static int ClassFor(std::size_t bytes) {
    for (int cls = 0; cls < kNumClasses; ++cls) {
      if (bytes <= kClassBytes[cls]) return cls;
    }
    return -1;
  }

  Header* NewBlock(std::size_t payload_bytes, int cls) {
    void* raw = ::operator new(sizeof(Header) + payload_bytes);
    Header* header = static_cast<Header*>(raw);
    header->owner = this;
    header->size_class = cls;
    header->next = nullptr;
    return header;
  }

  Header* free_lists_[kNumClasses] = {};
  Stats stats_;
};

class EventCallback {
 public:
  // Sized so a Simulator event (when + seq + vtable + this buffer) is exactly
  // one 64-byte cache line: the common captures — a barrier pointer, a pooled
  // payload handle plus a destination, a shared_ptr and a couple of scalars —
  // fit inline; larger or over-aligned captures take one pooled block.
  static constexpr std::size_t kInlineCapacity = 40;
  static constexpr std::size_t kInlineAlign = 8;

  enum class Storage : std::uint8_t { kEmpty, kInline, kPooled };

  EventCallback() noexcept = default;
  EventCallback(std::nullptr_t) noexcept {}  // NOLINT: mirror std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT: implicit, like std::function
    Emplace(std::forward<F>(f));
  }

  // Replaces whatever this holds with `f`, built directly in this
  // callback's storage (inline, or one pooled block), so a callable
  // forwarded here is constructed once and never relocated. An
  // EventCallback argument is moved in: exactly one relocation.
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, EventCallback>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "EventCallback is move-only");
      *this = std::move(f);
    } else {
      static_assert(std::is_invocable_r_v<void, Fn&>,
                    "an event callback takes no arguments");
      Reset();
      if constexpr (sizeof(Fn) <= kInlineCapacity &&
                    alignof(Fn) <= kInlineAlign &&
                    std::is_nothrow_move_constructible_v<Fn>) {
        ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
        ops_ = &InlineOps<Fn>::ops;
      } else {
        void* mem = CallbackPool::ThisThread().Allocate(sizeof(Fn));
        Fn* obj = ::new (mem) Fn(std::forward<F>(f));
        void* p = obj;
        std::memcpy(buffer_, &p, sizeof(p));
        ops_ = &PooledOps<Fn>::ops;
      }
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buffer_, other.buffer_);
      other.ops_ = nullptr;
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buffer_, other.buffer_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  void operator()() {
    TPU_CHECK(ops_ != nullptr) << "invoking an empty EventCallback";
    ops_->invoke(buffer_);
  }

  explicit operator bool() const { return ops_ != nullptr; }
  Storage storage() const { return ops_ != nullptr ? ops_->storage
                                                   : Storage::kEmpty; }

 private:
  struct Ops {
    void (*invoke)(void* buffer);
    // Move-construct the representation at dst from src and tear src down.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buffer) noexcept;
    Storage storage;
  };

  template <typename Fn>
  static Fn* InlineTarget(void* buffer) {
    return std::launder(reinterpret_cast<Fn*>(buffer));
  }

  template <typename Fn>
  static Fn* PooledTarget(void* buffer) {
    void* p;
    std::memcpy(&p, buffer, sizeof(p));
    return static_cast<Fn*>(p);
  }

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* buffer) { (*InlineTarget<Fn>(buffer))(); }
    static void Relocate(void* dst, void* src) noexcept {
      Fn* from = InlineTarget<Fn>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* buffer) noexcept {
      InlineTarget<Fn>(buffer)->~Fn();
    }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy, Storage::kInline};
  };

  template <typename Fn>
  struct PooledOps {
    static void Invoke(void* buffer) { (*PooledTarget<Fn>(buffer))(); }
    static void Relocate(void* dst, void* src) noexcept {
      std::memcpy(dst, src, sizeof(void*));
    }
    static void Destroy(void* buffer) noexcept {
      Fn* obj = PooledTarget<Fn>(buffer);
      obj->~Fn();
      CallbackPool::Free(obj);
    }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy, Storage::kPooled};
  };

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char buffer_[kInlineCapacity];
};

}  // namespace tpu::sim
