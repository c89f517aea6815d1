// Ring collectives over the simulated interconnect.
//
// These are *functional* implementations: when participant buffers are
// supplied, real float data moves between simulated chips chunk-by-chunk and
// the final buffer contents can be checked for exact correctness (reduction
// order on a ring is deterministic). When buffers are omitted, the same
// schedule runs timing-only, which is what the large-scale step-time
// simulations use.
//
// Algorithms follow Section 3.3: bidirectional rings (payload split across
// the two ring directions, which are independent full-duplex links), ring
// reduce-scatter and ring all-gather, optional bfloat16 wire compression.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/units.h"
#include "network/network.h"
#include "topology/topology.h"

namespace tpu::coll {

struct Range {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t size() const { return end - begin; }
  friend bool operator==(const Range&, const Range&) = default;
};

struct CollectiveOptions {
  // Split the payload across both ring directions (doubles effective ring
  // bandwidth on torus dimensions).
  bool bidirectional = true;
  // Transmit gradients as bfloat16: halves wire bytes; when data buffers are
  // present, transmitted values are quantized (Section 3.3/4.1).
  bool bfloat16_wire = false;

  std::int64_t wire_bytes_per_elem() const { return bfloat16_wire ? 2 : 4; }
};

// One ring participating in a collective. `order[i]` is the chip at ring
// position i; `data[i]`, when non-null, points to that chip's full payload
// buffer (the collective touches only `range`). Distinct rings passed to one
// call run concurrently on the simulated network.
struct RingSpec {
  std::vector<topo::ChipId> order;
  std::vector<float*> data;  // empty, or one pointer per ring position
  Range range;               // payload subrange covered by this collective
  // Trace label prefix for this ring's spans (e.g. "Y x=3"); purely
  // observational, ignored when tracing is off.
  std::string label;

  int size() const { return static_cast<int>(order.size()); }
  bool has_data() const { return !data.empty(); }
};

// The contiguous chunk layout shared by the ring and halving-doubling
// collectives: `range` divided into `parts` chunks of ceil(len / parts)
// elements (trailing chunks may be short or empty).
Range ChunkOfRange(const Range& range, int parts, int index);

// The layout of one ring pass, shared by the simulated pass and the
// event-free ring pricer (plan/ring_pricer.h). ChunkOf is ChunkOfRange
// without the argument checks.
inline Range ChunkOf(const Range& range, int ring_size, int chunk) {
  const std::int64_t base = CeilDiv(range.size(), ring_size);
  const std::int64_t begin = std::min(range.end, range.begin + chunk * base);
  const std::int64_t end = std::min(range.end, begin + base);
  return Range{begin, end};
}

// Splits a range into the two per-direction halves of a bidirectional ring:
// first travels clockwise (ring order as given), second counter-clockwise
// (ring order reversed).
inline std::pair<Range, Range> DirectionHalves(const Range& range) {
  const std::int64_t mid = range.begin + range.size() / 2;
  return {Range{range.begin, mid}, Range{mid, range.end}};
}

// The two operations a ring pass runs.
enum class RingOp { kReduceScatter, kAllGather };

// The ChunkOf index ring position `rank` sends at step `step` of a pass
// over `ring_size` positions. A reduce-scatter rank starts with its own
// chunk; an all-gather rank starts owning chunk (rank + 1) % n (the
// reduce-scatter output) and forwards the chunk it most recently received.
// The index advances by one (mod n) per rank.
inline int SendChunkIndex(RingOp op, int ring_size, int rank, int step) {
  const int first = op == RingOp::kReduceScatter ? rank : rank + 1;
  return ((first - step) % ring_size + ring_size) % ring_size;
}

// The chunk of `range` that ring position `rank` owns after a reduce-scatter
// (and therefore contributes during the matching all-gather). With
// bidirectional rings the result is two ranges (one per direction); either
// may be empty for tiny payloads.
std::vector<Range> OwnedAfterReduceScatter(const Range& range, int ring_size,
                                           int rank,
                                           const CollectiveOptions& options);

// The same ranges, written to out[0 .. count) without allocating; returns
// count (1 or 2). The vector form wraps this one.
int OwnedAfterReduceScatter(const Range& range, int ring_size, int rank,
                            const CollectiveOptions& options,
                            std::array<Range, 2>& out);

// Non-blocking forms: schedule the collective on the network's simulator
// and fire `on_done` when every ring completes; the caller decides when to
// run the simulator. These are the building blocks of pipelined schedules
// that overlap phases of different payload chunks.
void StartReduceScatter(net::Network& network, std::vector<RingSpec> rings,
                        const CollectiveOptions& options,
                        std::function<void()> on_done);
void StartAllGather(net::Network& network, std::vector<RingSpec> rings,
                    const CollectiveOptions& options,
                    std::function<void()> on_done);

// Runs ring reduce-scatter on all rings concurrently. On return, simulated
// time has advanced past the completion of every ring; the returned value is
// the elapsed simulated time. If data buffers are present, each rank's owned
// chunks contain the cross-ring sums.
SimTime ReduceScatter(net::Network& network, std::vector<RingSpec> rings,
                      const CollectiveOptions& options);

// Inverse of ReduceScatter: each rank contributes its owned chunks and all
// ranks end with the full `range` contents.
SimTime AllGather(net::Network& network, std::vector<RingSpec> rings,
                  const CollectiveOptions& options);

// reduce-scatter followed by all-gather on each ring (the classic 1-D ring
// all-reduce). All rings run concurrently; RS->AG transition is per-ring.
SimTime AllReduce(net::Network& network, std::vector<RingSpec> rings,
                  const CollectiveOptions& options);

}  // namespace tpu::coll
