#include "collectives/ring.h"

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

// Contiguous chunk layout used by both reduce-scatter and all-gather: the
// range is divided into ring_size chunks of ceil(len / ring_size) elements
// (the last chunk may be short or empty).
Range ChunkOf(const Range& range, int ring_size, int chunk) {
  const std::int64_t base = CeilDiv(range.size(), ring_size);
  const std::int64_t begin = std::min(range.end, range.begin + chunk * base);
  const std::int64_t end = std::min(range.end, begin + base);
  return Range{begin, end};
}

// Splits a range into the two per-direction halves used by bidirectional
// rings. halves[0] travels clockwise (ring order as given), halves[1]
// counter-clockwise (ring order reversed).
std::pair<Range, Range> DirectionHalves(const Range& range) {
  const std::int64_t mid = range.begin + range.size() / 2;
  return {Range{range.begin, mid}, Range{mid, range.end}};
}

// One direction of one ring executing reduce-scatter or all-gather over a
// contiguous payload sub-range. Steps are separated by a per-ring barrier:
// every rank finishes its step-s transfer before step s+1 starts, which is
// how the synchronous XLA ring collectives behave.
class RingPass : public std::enable_shared_from_this<RingPass> {
 public:
  enum class Kind { kReduceScatter, kAllGather };

  RingPass(net::Network* network, std::vector<topo::ChipId> order,
           std::vector<float*> data, Range range, Kind kind,
           const CollectiveOptions& options, sim::Simulator::Callback on_done)
      : network_(network),
        order_(std::move(order)),
        data_(std::move(data)),
        range_(range),
        kind_(kind),
        options_(options),
        on_done_(std::move(on_done)) {}

  void Start() {
    const int n = static_cast<int>(order_.size());
    if (n <= 1 || range_.size() == 0) {
      // Nothing to exchange; complete immediately.
      network_->simulator().Schedule(0.0, std::move(on_done_));
      return;
    }
    // Every step sends rank -> rank+1 one of the same n chunks, so each
    // rank's route and each chunk's extent are resolved once per pass.
    routes_.reserve(n);
    chunks_.reserve(n);
    for (int rank = 0; rank < n; ++rank) {
      routes_.push_back(&network_->RouteFor(order_[rank],
                                            order_[(rank + 1) % n]));
      chunks_.push_back(ChunkOf(range_, n, rank));
    }
    RunStep(0);
  }

 private:
  int n() const { return static_cast<int>(order_.size()); }

  int SendChunkIndex(int rank, int step) const {
    const int ring = n();
    if (kind_ == Kind::kReduceScatter) {
      return ((rank - step) % ring + ring) % ring;
    }
    // All-gather: rank starts owning chunk (rank+1) % n (the reduce-scatter
    // output) and forwards the chunk it most recently received.
    return ((rank + 1 - step) % ring + ring) % ring;
  }

  void RunStep(int step) {
    auto self = shared_from_this();
    // The barrier's continuation holds the shared_ptr that keeps this pass
    // alive until the step completes; the hot per-message callbacks hold only
    // the raw barrier pointer.
    StepBarrier* barrier = new StepBarrier(n(), [self, step] {
      if (step + 1 < self->n() - 1) {
        self->RunStep(step + 1);
      } else {
        self->on_done_();
      }
    });

    // SendChunkIndex(rank, step) advances by one (mod n) per rank.
    int chunk_index = SendChunkIndex(0, step);
    auto next_chunk = [this, &chunk_index] {
      const Range chunk = chunks_[chunk_index];
      if (++chunk_index == n()) chunk_index = 0;
      return chunk;
    };

    // Time-only rings (no data pointers) complete with a bare barrier
    // notification: the whole step is one wave, so ranks whose messages
    // arrive at the same instant share one counted queue entry.
    if (data_.empty()) {
      network_->SendWave(
          n(),
          [this, &next_chunk](int rank) {
            return net::Network::WaveMessage{
                routes_[rank],
                next_chunk().size() * options_.wire_bytes_per_elem()};
          },
          [barrier] { barrier->Notify(); });
      return;
    }

    for (int rank = 0; rank < n(); ++rank) {
      const net::Network::CachedRoute& route = *routes_[rank];
      const Range chunk = next_chunk();
      const Bytes wire_bytes = chunk.size() * options_.wire_bytes_per_elem();

      // Data-carrying rings snapshot the outgoing values now (this step's
      // incoming data must not contaminate what we forward within the same
      // step) into a pooled buffer the callback owns; an empty chunk carries
      // only the notification.
      if (chunk.size() == 0) {
        network_->SendAlong(route, wire_bytes,
                            [barrier] { barrier->Notify(); });
        continue;
      }
      PayloadPool::Handle payload = PayloadPool::ThisThread().Snapshot(
          data_[rank] + chunk.begin, data_[rank] + chunk.end);
      if (options_.bfloat16_wire) {
        float* p = payload.data();
        for (std::size_t i = 0; i < payload.size(); ++i) {
          p[i] = QuantizeToBFloat16(p[i]);
        }
      }
      float* const out = data_[(rank + 1) % n()] + chunk.begin;
      if (kind_ == Kind::kReduceScatter) {
        network_->SendAlong(
            route, wire_bytes, [barrier, payload = std::move(payload), out] {
              const float* p = payload.data();
              for (std::size_t i = 0; i < payload.size(); ++i) {
                out[i] += p[i];
              }
              barrier->Notify();
            });
      } else {
        network_->SendAlong(
            route, wire_bytes, [barrier, payload = std::move(payload), out] {
              std::copy(payload.data(), payload.data() + payload.size(), out);
              barrier->Notify();
            });
      }
    }
  }

  net::Network* network_;
  std::vector<topo::ChipId> order_;
  // Resolved in Start: routes_[rank] is order_[rank] -> its successor, and
  // chunks_[i] is ChunkOf(range_, n, i).
  std::vector<const net::Network::CachedRoute*> routes_;
  std::vector<Range> chunks_;
  std::vector<float*> data_;
  Range range_;
  Kind kind_;
  CollectiveOptions options_;
  sim::Simulator::Callback on_done_;
};

// Builds the direction passes (one or two) for a ring and starts them;
// `on_done` fires when all passes complete.
void StartRing(net::Network& network, const RingSpec& spec,
               RingPass::Kind kind, const CollectiveOptions& options,
               sim::Simulator::Callback on_done) {
  TPU_CHECK(!spec.order.empty());
  if (spec.has_data()) {
    TPU_CHECK_EQ(spec.data.size(), spec.order.size());
  }
  TPU_CHECK_GE(spec.range.begin, 0);
  TPU_CHECK_GE(spec.range.size(), 0);

  // Rings within one collective phase overlap in time, so each gets an async
  // span (b/e pair keyed by a fresh id) on a shared track rather than a
  // nested B/E span. Purely observational: the schedule is unchanged.
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    const trace::TraceRecorder::TrackId track =
        recorder->Track("system", "rings");
    std::string name = spec.label.empty() ? "ring" : spec.label;
    name += kind == RingPass::Kind::kReduceScatter ? " reduce-scatter"
                                                   : " all-gather";
    const std::uint64_t async_id = recorder->NextAsyncId();
    sim::Simulator* simulator = &network.simulator();
    const SimTime begin = simulator->now();
    recorder->AsyncBegin(track, std::move(name), async_id, begin);
    on_done = [recorder, track, async_id, simulator, begin,
               done = std::move(on_done)]() mutable {
      const SimTime end = simulator->now();
      recorder->AsyncEnd(track, async_id, end);
      if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
        metrics->Histogram("coll.ring_us").Record(ToMicros(end - begin));
      }
      done();
    };
  }

  if (!options.bidirectional || spec.size() <= 2) {
    auto pass = std::make_shared<RingPass>(&network, spec.order, spec.data,
                                           spec.range, kind, options,
                                           std::move(on_done));
    pass->Start();
    return;
  }

  const auto [cw, ccw] = DirectionHalves(spec.range);
  auto barrier = std::make_shared<sim::Barrier>(
      2, [done = std::move(on_done)]() mutable { done(); });

  auto cw_pass = std::make_shared<RingPass>(
      &network, spec.order, spec.data, cw, kind, options,
      [barrier] { barrier->Notify(); });

  std::vector<topo::ChipId> reversed_order(spec.order.rbegin(),
                                           spec.order.rend());
  std::vector<float*> reversed_data(spec.data.rbegin(), spec.data.rend());
  auto ccw_pass = std::make_shared<RingPass>(
      &network, std::move(reversed_order), std::move(reversed_data), ccw, kind,
      options, [barrier] { barrier->Notify(); });

  cw_pass->Start();
  ccw_pass->Start();
}

SimTime RunRings(net::Network& network, const std::vector<RingSpec>& rings,
                 RingPass::Kind kind, const CollectiveOptions& options) {
  sim::Simulator& simulator = network.simulator();
  const SimTime start = simulator.now();
  auto outer =
      std::make_shared<sim::Barrier>(static_cast<int>(rings.size()), [] {});
  for (const RingSpec& spec : rings) {
    StartRing(network, spec, kind, options, [outer] { outer->Notify(); });
  }
  simulator.Run();
  return simulator.now() - start;
}

}  // namespace

Range ChunkOfRange(const Range& range, int parts, int index) {
  TPU_CHECK_GT(parts, 0);
  TPU_CHECK_GE(index, 0);
  TPU_CHECK_LT(index, parts);
  return ChunkOf(range, parts, index);
}

std::vector<Range> OwnedAfterReduceScatter(const Range& range, int ring_size,
                                           int rank,
                                           const CollectiveOptions& options) {
  TPU_CHECK_GT(ring_size, 0);
  TPU_CHECK_GE(rank, 0);
  TPU_CHECK_LT(rank, ring_size);
  if (ring_size == 1) return {range};
  if (!options.bidirectional || ring_size <= 2) {
    return {ChunkOf(range, ring_size, (rank + 1) % ring_size)};
  }
  const auto [cw, ccw] = DirectionHalves(range);
  // Clockwise pass: position == rank. Counter-clockwise pass: position is
  // mirrored, so rank owns chunk ((n-1-rank)+1) % n of the CCW half.
  std::vector<Range> owned;
  owned.push_back(ChunkOf(cw, ring_size, (rank + 1) % ring_size));
  owned.push_back(ChunkOf(ccw, ring_size, (ring_size - rank) % ring_size));
  return owned;
}

void StartReduceScatter(net::Network& network, std::vector<RingSpec> rings,
                        const CollectiveOptions& options,
                        std::function<void()> on_done) {
  auto outer = std::make_shared<sim::Barrier>(
      static_cast<int>(rings.size()),
      [done = std::move(on_done)]() mutable { done(); });
  for (const RingSpec& spec : rings) {
    StartRing(network, spec, RingPass::Kind::kReduceScatter, options,
              [outer] { outer->Notify(); });
  }
}

void StartAllGather(net::Network& network, std::vector<RingSpec> rings,
                    const CollectiveOptions& options,
                    std::function<void()> on_done) {
  auto outer = std::make_shared<sim::Barrier>(
      static_cast<int>(rings.size()),
      [done = std::move(on_done)]() mutable { done(); });
  for (const RingSpec& spec : rings) {
    StartRing(network, spec, RingPass::Kind::kAllGather, options,
              [outer] { outer->Notify(); });
  }
}

SimTime ReduceScatter(net::Network& network, std::vector<RingSpec> rings,
                      const CollectiveOptions& options) {
  return RunRings(network, rings, RingPass::Kind::kReduceScatter, options);
}

SimTime AllGather(net::Network& network, std::vector<RingSpec> rings,
                  const CollectiveOptions& options) {
  return RunRings(network, rings, RingPass::Kind::kAllGather, options);
}

SimTime AllReduce(net::Network& network, std::vector<RingSpec> rings,
                  const CollectiveOptions& options) {
  sim::Simulator& simulator = network.simulator();
  const SimTime start = simulator.now();
  auto outer =
      std::make_shared<sim::Barrier>(static_cast<int>(rings.size()), [] {});
  for (const RingSpec& spec : rings) {
    // Chain: reduce-scatter, then all-gather on the same ring. The copy of
    // `spec` kept by the lambda restarts the all-gather phase.
    net::Network* net_ptr = &network;
    StartRing(network, spec, RingPass::Kind::kReduceScatter, options,
              [net_ptr, spec, options, outer] {
                StartRing(*net_ptr, spec, RingPass::Kind::kAllGather, options,
                          [outer] { outer->Notify(); });
              });
  }
  simulator.Run();
  return simulator.now() - start;
}

}  // namespace tpu::coll
