#include "collectives/halving_doubling.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "collectives/payload_pool.h"
#include "collectives/step_barrier.h"
#include "common/bfloat16.h"
#include "common/check.h"
#include "common/math_util.h"
#include "sim/simulator.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::coll {
namespace {

// Element range covered by chunk indices [first, last) of the natural
// `parts`-way chunk layout.
Range ChunkSpan(const Range& range, int parts, int first, int last) {
  const Range lo = ChunkOfRange(range, parts, first);
  const Range hi = ChunkOfRange(range, parts, last - 1);
  return Range{lo.begin, hi.end};
}

// One group executing recursive halving (reduce-scatter) or recursive
// doubling (all-gather). Rounds are separated by a per-group barrier, the
// same synchronous discipline as RingPass.
class HdPass : public std::enable_shared_from_this<HdPass> {
 public:
  enum class Kind { kHalving, kDoubling };

  HdPass(net::Network* network, std::vector<topo::ChipId> order,
         std::vector<float*> data, Range range, Kind kind,
         const CollectiveOptions& options, sim::Simulator::Callback on_done)
      : network_(network),
        order_(std::move(order)),
        data_(std::move(data)),
        range_(range),
        kind_(kind),
        options_(options),
        on_done_(std::move(on_done)) {
    TPU_CHECK(IsPowerOfTwo(static_cast<std::int64_t>(order_.size())))
        << "halving-doubling needs a power-of-two group, got "
        << order_.size();
  }

  void Start() {
    if (n() <= 1 || range_.size() == 0) {
      network_->simulator().Schedule(0.0, std::move(on_done_));
      return;
    }
    rounds_ = static_cast<int>(Log2Floor(n()));
    RunRound(0);
  }

 private:
  int n() const { return static_cast<int>(order_.size()); }

  // Chunk-index block rank r holds *after* `completed` rounds. Halving
  // shrinks blocks n -> 1; doubling grows them 1 -> n.
  std::pair<int, int> BlockAfter(int rank, int completed) const {
    const int size = kind_ == Kind::kHalving ? n() >> completed
                                             : 1 << completed;
    const int start = rank / size * size;
    return {start, start + size};
  }

  void RunRound(int round) {
    auto self = shared_from_this();
    // The barrier's continuation holds the shared_ptr that keeps this pass
    // alive; the hot per-message callbacks hold only the raw pointer.
    StepBarrier* barrier = new StepBarrier(n(), [self, round] {
      if (round + 1 < self->rounds_) {
        self->RunRound(round + 1);
      } else {
        self->on_done_();
      }
    });

    // Partner distance in ranks: n/2, n/4, ..., 1 for halving; 1, 2, ...,
    // n/2 for doubling.
    const int distance = kind_ == Kind::kHalving ? n() >> (round + 1)
                                                 : 1 << round;
    // What rank sends this round: its partner route (resolved once per
    // round, as each rank sends one message) and its range. Halving sends
    // the half of the live block the *partner* keeps; doubling sends the
    // whole block this rank currently holds.
    auto message_at = [this, round, distance](int rank) {
      const int partner = rank ^ distance;
      const auto block = kind_ == Kind::kHalving ? BlockAfter(partner, round + 1)
                                                 : BlockAfter(rank, round);
      const Range send = ChunkSpan(range_, n(), block.first, block.second);
      return std::pair{&network_->RouteFor(order_[rank], order_[partner]),
                       send};
    };

    // Time-only groups complete with a bare barrier notification: the
    // round is one wave, so same-instant arrivals share one queue entry.
    if (data_.empty()) {
      network_->SendWave(
          n(),
          [&](int rank) {
            const auto [route, send] = message_at(rank);
            return net::Network::WaveMessage{
                route, send.size() * options_.wire_bytes_per_elem()};
          },
          [barrier] { barrier->Notify(); });
      return;
    }

    for (int rank = 0; rank < n(); ++rank) {
      const int partner = rank ^ distance;
      const auto [route, send] = message_at(rank);
      const Bytes wire_bytes = send.size() * options_.wire_bytes_per_elem();

      // Data-carrying groups snapshot the outgoing values into a pooled
      // buffer (this round's incoming data must not contaminate what travels
      // within the same round); an empty block carries only the
      // notification.
      if (send.size() == 0) {
        network_->SendAlong(*route, wire_bytes,
                            [barrier] { barrier->Notify(); });
        continue;
      }
      PayloadPool::Handle payload = PayloadPool::ThisThread().Snapshot(
          data_[rank] + send.begin, data_[rank] + send.end);
      if (options_.bfloat16_wire) {
        float* p = payload.data();
        for (std::size_t i = 0; i < payload.size(); ++i) {
          p[i] = QuantizeToBFloat16(p[i]);
        }
      }
      float* const out = data_[partner] + send.begin;
      if (kind_ == Kind::kHalving) {
        network_->SendAlong(*route, wire_bytes,
                            [barrier, payload = std::move(payload), out] {
                              const float* p = payload.data();
                              for (std::size_t i = 0; i < payload.size();
                                   ++i) {
                                out[i] += p[i];
                              }
                              barrier->Notify();
                            });
      } else {
        network_->SendAlong(*route, wire_bytes,
                            [barrier, payload = std::move(payload), out] {
                              std::copy(payload.data(),
                                        payload.data() + payload.size(), out);
                              barrier->Notify();
                            });
      }
    }
  }

  net::Network* network_;
  std::vector<topo::ChipId> order_;
  std::vector<float*> data_;
  Range range_;
  Kind kind_;
  CollectiveOptions options_;
  sim::Simulator::Callback on_done_;
  int rounds_ = 0;
};

void StartHdGroup(net::Network& network, const RingSpec& spec,
                  HdPass::Kind kind, const CollectiveOptions& options,
                  sim::Simulator::Callback on_done) {
  TPU_CHECK(!spec.order.empty());
  if (spec.has_data()) {
    TPU_CHECK_EQ(spec.data.size(), spec.order.size());
  }

  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    const trace::TraceRecorder::TrackId track =
        recorder->Track("system", "rings");
    std::string name = spec.label.empty() ? "hd" : spec.label;
    name += kind == HdPass::Kind::kHalving ? " hd-reduce-scatter"
                                           : " hd-all-gather";
    const std::uint64_t async_id = recorder->NextAsyncId();
    sim::Simulator* simulator = &network.simulator();
    const SimTime begin = simulator->now();
    recorder->AsyncBegin(track, std::move(name), async_id, begin);
    on_done = [recorder, track, async_id, simulator, begin,
               done = std::move(on_done)]() mutable {
      const SimTime end = simulator->now();
      recorder->AsyncEnd(track, async_id, end);
      if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
        metrics->Histogram("coll.hd_us").Record(ToMicros(end - begin));
      }
      done();
    };
  }

  auto pass = std::make_shared<HdPass>(&network, spec.order, spec.data,
                                       spec.range, kind, options,
                                       std::move(on_done));
  pass->Start();
}

void StartHdGroups(net::Network& network, const std::vector<RingSpec>& groups,
                   HdPass::Kind kind, const CollectiveOptions& options,
                   std::function<void()> on_done) {
  auto outer = std::make_shared<sim::Barrier>(
      static_cast<int>(groups.size()),
      [done = std::move(on_done)]() mutable { done(); });
  for (const RingSpec& spec : groups) {
    StartHdGroup(network, spec, kind, options, [outer] { outer->Notify(); });
  }
}

SimTime RunHdGroups(net::Network& network, const std::vector<RingSpec>& groups,
                    HdPass::Kind kind, const CollectiveOptions& options) {
  sim::Simulator& simulator = network.simulator();
  const SimTime start = simulator.now();
  StartHdGroups(network, groups, kind, options, [] {});
  simulator.Run();
  return simulator.now() - start;
}

}  // namespace

Range HdOwnedAfterReduceScatter(const Range& range, int group_size, int rank) {
  TPU_CHECK(IsPowerOfTwo(group_size));
  TPU_CHECK_GE(rank, 0);
  TPU_CHECK_LT(rank, group_size);
  if (group_size == 1) return range;
  return ChunkOfRange(range, group_size, rank);
}

void StartHdReduceScatter(net::Network& network, std::vector<RingSpec> groups,
                          const CollectiveOptions& options,
                          std::function<void()> on_done) {
  StartHdGroups(network, groups, HdPass::Kind::kHalving, options,
                std::move(on_done));
}

void StartHdAllGather(net::Network& network, std::vector<RingSpec> groups,
                      const CollectiveOptions& options,
                      std::function<void()> on_done) {
  StartHdGroups(network, groups, HdPass::Kind::kDoubling, options,
                std::move(on_done));
}

SimTime HdReduceScatter(net::Network& network, std::vector<RingSpec> groups,
                        const CollectiveOptions& options) {
  return RunHdGroups(network, groups, HdPass::Kind::kHalving, options);
}

SimTime HdAllGather(net::Network& network, std::vector<RingSpec> groups,
                    const CollectiveOptions& options) {
  return RunHdGroups(network, groups, HdPass::Kind::kDoubling, options);
}

SimTime ExpectedHdPhaseSeconds(net::Network& network,
                               const std::vector<RingSpec>& groups,
                               const CollectiveOptions& options) {
  const SimTime now = network.simulator().now();
  SimTime worst = 0;
  for (const RingSpec& spec : groups) {
    const int n = spec.size();
    if (n <= 1 || spec.range.size() == 0) continue;
    const int rounds = static_cast<int>(Log2Floor(n));
    SimTime total = 0;
    for (int round = 0; round < rounds; ++round) {
      // Halving-round geometry (doubling mirrors it): partner at rank
      // distance n/2^(round+1), message of that many chunks.
      const int distance = n >> (round + 1);
      SimTime slowest = 0;
      for (int rank = 0; rank < n; ++rank) {
        const int partner = rank ^ distance;
        const int start = partner / distance * distance;
        const Range span = ChunkSpan(spec.range, n, start, start + distance);
        const Bytes bytes = span.size() * options.wire_bytes_per_elem();
        slowest = std::max(
            slowest, network.EstimateArrival(spec.order[rank],
                                             spec.order[partner], bytes) -
                         now);
      }
      total += slowest;
    }
    worst = std::max(worst, total);
  }
  return worst;
}

}  // namespace tpu::coll
