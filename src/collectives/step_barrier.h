// Join-counter for the per-step rendezvous of the synchronous collectives
// (ring steps, halving-doubling rounds), owned by its own notifications: the
// last Notify fires the continuation and deletes the barrier. Callbacks
// capture it as a raw pointer (8 inline bytes, no refcount traffic), which
// is safe because every simulated message completes — even failed-link sends
// finish after their stall — so the notification count always reaches the
// expected number. Under a causal observer the barrier registers as a join,
// so slack analysis sees which rank's transfer released each step.
#pragma once

#include <utility>

#include "common/check.h"
#include "sim/event_observer.h"
#include "sim/simulator.h"

namespace tpu::coll {

class StepBarrier {
 public:
  StepBarrier(int expected, sim::Simulator::Callback on_all_done)
      : remaining_(expected), on_all_done_(std::move(on_all_done)) {
    TPU_CHECK_GT(expected, 0);
    if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
      join_ = observer->OnJoinOpen(expected);
    }
  }

  void Notify() {
    if (join_ >= 0) {
      if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
        observer->OnJoinNotify(join_);
      }
    }
    if (--remaining_ == 0) {
      on_all_done_();
      delete this;
    }
  }

 private:
  int remaining_;
  int join_ = -1;
  sim::Simulator::Callback on_all_done_;
};

}  // namespace tpu::coll
