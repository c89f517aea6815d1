#include "plan/cost.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "plan/executor.h"
#include "sim/simulator.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::plan {
namespace {

// Relative margin LowerBoundPlanSeconds gives up to floating-point rounding.
constexpr double kBoundMargin = 1e-9;

class HopCost {
 public:
  HopCost(const topo::MeshTopology& topo, const net::NetworkConfig& config,
          const LinkHealthSet& health)
      : topo_(topo), config_(config),
        degrade_(topo.links().size(), 1.0),
        failed_(topo.links().size(), false) {
    for (const topo::LinkId link : health.failed) failed_[link] = true;
    for (const auto& [link, factor] : health.degraded) {
      degrade_[link] = factor;
    }
  }

  // Store-and-forward time of one `bytes`-sized message from `from` to
  // `to`: per-message overhead once, then per link latency + serialization
  // (scaled by degradation) + the stall charged on failed links. `links`,
  // when non-null, is raised to the route's link count.
  SimTime Seconds(topo::ChipId from, topo::ChipId to, Bytes bytes,
                  int* links = nullptr) const {
    SimTime t = config_.message_overhead;
    int count = 0;
    topo_.ForEachRouteLink(from, to, [&](topo::LinkId id) {
      const net::LinkParams& params =
          config_.ParamsFor(topo_.link(id).type);
      t += params.latency + bytes / params.bandwidth * degrade_[id];
      if (failed_[id]) t += net::Network::kFailedLinkStall;
      ++count;
    });
    if (links != nullptr) *links = std::max(*links, count);
    return t;
  }

 private:
  const topo::MeshTopology& topo_;
  const net::NetworkConfig& config_;
  std::vector<double> degrade_;
  std::vector<bool> failed_;
};

// Elements each direction of a ring carries, split as StartRing splits
// them: everything clockwise on a monodirectional or two-chip ring, else
// the two DirectionHalves.
std::array<std::int64_t, 2> DirectionElems(
    const coll::RingSpec& spec, const coll::CollectiveOptions& options) {
  if (!options.bidirectional || spec.size() <= 2) {
    return {spec.range.size(), 0};
  }
  const std::int64_t half = spec.range.size() / 2;
  return {half, spec.range.size() - half};
}

// Calls fn(from, to) for every rank's hop of one ring direction: direction
// 0 travels in ring order, direction 1 against it.
template <typename Fn>
void ForEachRingHop(const coll::RingSpec& spec, int dir, Fn&& fn) {
  const int n = spec.size();
  for (int rank = 0; rank < n; ++rank) {
    const topo::ChipId a = spec.order[rank];
    const topo::ChipId b = spec.order[(rank + 1) % n];
    dir == 0 ? fn(a, b) : fn(b, a);
  }
}

SimTime RingStageSeconds(const HopCost& hop, const coll::RingSpec& spec,
                         const coll::CollectiveOptions& options) {
  const int n = spec.size();
  if (n <= 1 || spec.range.size() == 0) return 0;
  const std::array<std::int64_t, 2> dir_elems = DirectionElems(spec, options);
  SimTime worst = 0;
  for (int dir = 0; dir < 2; ++dir) {
    if (dir_elems[dir] == 0) continue;
    const Bytes bytes =
        CeilDiv(dir_elems[dir], n) * options.wire_bytes_per_elem();
    SimTime slowest = 0;
    ForEachRingHop(spec, dir, [&](topo::ChipId a, topo::ChipId b) {
      slowest = std::max(slowest, hop.Seconds(a, b, bytes));
    });
    worst = std::max(worst, (n - 1) * slowest);
  }
  return worst;
}

// Each of a direction's n-1 steps sends every chunk of the ChunkOf layout
// once (ceil-sized chunks, then a short remainder and possibly empty ones),
// one per hop, and ends at a StepBarrier when the last arrives. So a step
// lasts at least as long as the slowest hop carrying the smallest chunk, and
// as the fastest hop carrying the largest. `links` is raised to the ring's
// longest route.
SimTime RingStageLowerBound(const HopCost& hop, const coll::RingSpec& spec,
                            const coll::CollectiveOptions& options,
                            int* links) {
  const int n = spec.size();
  if (n <= 1 || spec.range.size() == 0) return 0;
  const std::array<std::int64_t, 2> dir_elems = DirectionElems(spec, options);
  SimTime worst = 0;
  for (int dir = 0; dir < 2; ++dir) {
    if (dir_elems[dir] == 0) continue;
    const std::int64_t largest = CeilDiv(dir_elems[dir], n);
    const std::int64_t smallest =
        std::max<std::int64_t>(0, dir_elems[dir] - (n - 1) * largest);
    const Bytes large = largest * options.wire_bytes_per_elem();
    const Bytes small = smallest * options.wire_bytes_per_elem();
    SimTime slowest_small = 0;
    SimTime fastest_large = std::numeric_limits<SimTime>::infinity();
    ForEachRingHop(spec, dir, [&](topo::ChipId a, topo::ChipId b) {
      slowest_small = std::max(slowest_small, hop.Seconds(a, b, small, links));
      fastest_large = std::min(fastest_large, hop.Seconds(a, b, large));
    });
    worst = std::max(worst, (n - 1) * std::max(slowest_small, fastest_large));
  }
  return worst;
}

SimTime HdStageSeconds(const HopCost& hop, const coll::RingSpec& spec,
                       bool halving, const coll::CollectiveOptions& options,
                       int* links = nullptr) {
  const int n = spec.size();
  if (n <= 1 || spec.range.size() == 0) return 0;
  const int rounds = static_cast<int>(Log2Floor(n));
  // Chunk-span element count for chunk indices [first, last).
  auto span_elems = [&](int first, int last) {
    const coll::Range lo = coll::ChunkOfRange(spec.range, n, first);
    const coll::Range hi = coll::ChunkOfRange(spec.range, n, last - 1);
    return hi.end - lo.begin;
  };
  SimTime total = 0;
  for (int round = 0; round < rounds; ++round) {
    const int distance = halving ? n >> (round + 1) : 1 << round;
    SimTime slowest = 0;
    for (int rank = 0; rank < n; ++rank) {
      const int partner = rank ^ distance;
      // Mirror HdPass: halving sends the half-block the partner keeps,
      // doubling sends the whole block this rank holds.
      const int size = halving ? n >> (round + 1) : 1 << round;
      const int owner = halving ? partner : rank;
      const int start = owner / size * size;
      const Bytes bytes =
          span_elems(start, start + size) * options.wire_bytes_per_elem();
      slowest = std::max(
          slowest, hop.Seconds(spec.order[rank], spec.order[partner], bytes,
                               links));
    }
    total += slowest;
  }
  return total;
}

}  // namespace

SimTime EstimatePlanSeconds(const topo::MeshTopology& topo,
                            const net::NetworkConfig& config,
                            const LinkHealthSet& health,
                            const LoweredPlan& lowered) {
  const HopCost hop(topo, config, health);
  const coll::CollectiveOptions options =
      lowered.plan.collective_options();
  SimTime total = 0, longest_stage = 0;
  for (const LoweredStage& stage : lowered.stages) {
    SimTime stage_seconds = 0;
    for (const coll::RingSpec& spec : *stage.specs) {
      const SimTime t =
          stage.algorithm == PhaseAlgorithm::kRing
              ? RingStageSeconds(hop, spec, options)
              : HdStageSeconds(hop, spec,
                               stage.op == LoweredStage::Op::kReduceScatter,
                               options);
      stage_seconds = std::max(stage_seconds, t);
    }
    total += stage_seconds;
    longest_stage = std::max(longest_stage, stage_seconds);
  }
  // Chunk pipelining overlaps the shorter stages under the longest one; the
  // sequential sum is its upper bound, longest stage its lower bound.
  if (lowered.plan.chunks > 1) {
    total = longest_stage + (total - longest_stage) / lowered.plan.chunks;
  }
  return total;
}

SimTime LowerBoundPlanSeconds(const topo::MeshTopology& topo,
                              const net::NetworkConfig& config,
                              const LinkHealthSet& health,
                              const LoweredPlan& lowered) {
  if (lowered.plan.chunks > 1) return 0;
  const HopCost hop(topo, config, health);
  const coll::CollectiveOptions options =
      lowered.plan.collective_options();
  // Both sides round: the DES adds each message's overhead, serializations,
  // stalls and latencies onto absolute time, one rounding each (up to
  // 1 + 3 per link per step); this walk rounds the same terms again, once
  // per stage more, and total() and the margin add a few. Every term is
  // non-negative, so with unit roundoff u the two sides differ by at most
  // (roundings * u) relative, which the margin must cover twice over.
  double roundings = 4;
  SimTime total = 0;
  for (const LoweredStage& stage : lowered.stages) {
    SimTime stage_seconds = 0;
    double stage_roundings = 0;
    for (const coll::RingSpec& spec : *stage.specs) {
      int links = 0;
      const bool ring = stage.algorithm == PhaseAlgorithm::kRing;
      const SimTime t =
          ring ? RingStageLowerBound(hop, spec, options, &links)
               : HdStageSeconds(hop, spec,
                                stage.op == LoweredStage::Op::kReduceScatter,
                                options, &links);
      const int steps = ring ? spec.size() - 1
                             : static_cast<int>(Log2Floor(spec.size()));
      stage_seconds = std::max(stage_seconds, t);
      stage_roundings =
          std::max(stage_roundings, (steps + 1.0) * (1 + 3 * links) + 2);
    }
    total += stage_seconds;
    roundings += stage_roundings;
  }
  if (roundings * 0x1p-53 > kBoundMargin / 2) return 0;
  return total * (1 - kBoundMargin);
}

SimTime EvaluatePlanOnSimulator(const topo::MeshTopology& topo,
                                const net::NetworkConfig& config,
                                const LinkHealthSet& health,
                                const CollectivePlan& plan,
                                std::int64_t elems) {
  // Candidate evaluations are throwaway: silence tracing, metrics, and the
  // causal observer so the search leaves no spans, counters, or event
  // records behind — only the chosen plan's real execution is observable.
  trace::ScopedTrace no_trace(nullptr);
  trace::ScopedMetrics no_metrics(nullptr);
  sim::ScopedEventObserver no_observer(nullptr);
  sim::Simulator simulator;
  net::Network network(&topo, config, &simulator);
  health.ApplyTo(network);
  return ExecutePlan(network, plan, elems).total();
}

}  // namespace tpu::plan
