#include "plan/cost.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "plan/executor.h"
#include "sim/simulator.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::plan {
namespace {

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
  // (scaled by degradation) + the stall charged on failed links.
  SimTime Seconds(topo::ChipId from, topo::ChipId to, Bytes bytes) const {
    SimTime t = config_.message_overhead;
    topo_.ForEachRouteLink(from, to, [&](topo::LinkId id) {
      const net::LinkParams& params =
          config_.ParamsFor(topo_.link(id).type);
      t += params.latency + bytes / params.bandwidth * degrade_[id];
      if (failed_[id]) t += net::Network::kFailedLinkStall;
    });
    return t;
  }

 private:
  const topo::MeshTopology& topo_;
  const net::NetworkConfig& config_;
  std::vector<double> degrade_;
  std::vector<bool> failed_;
};

SimTime RingStageSeconds(const HopCost& hop, const coll::RingSpec& spec,
                         const coll::CollectiveOptions& options) {
  const int n = spec.size();
  if (n <= 1 || spec.range.size() == 0) return 0;
  std::int64_t dir_elems[2] = {spec.range.size(), 0};
  if (options.bidirectional && n > 2) {
    dir_elems[0] = spec.range.size() / 2;
    dir_elems[1] = spec.range.size() - dir_elems[0];
  }
  SimTime worst = 0;
  for (int dir = 0; dir < 2; ++dir) {
    if (dir_elems[dir] == 0) continue;
    const Bytes bytes =
        CeilDiv(dir_elems[dir], n) * options.wire_bytes_per_elem();
    SimTime slowest = 0;
    for (int rank = 0; rank < n; ++rank) {
      const topo::ChipId a = spec.order[rank];
      const topo::ChipId b = spec.order[(rank + 1) % n];
      // Direction 0 travels in ring order, direction 1 against it.
      slowest = std::max(slowest, dir == 0 ? hop.Seconds(a, b, bytes)
                                           : hop.Seconds(b, a, bytes));
    }
    worst = std::max(worst, (n - 1) * slowest);
  }
  return worst;
}

SimTime HdStageSeconds(const HopCost& hop, const coll::RingSpec& spec,
                       bool halving, const coll::CollectiveOptions& options) {
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
          slowest, hop.Seconds(spec.order[rank], spec.order[partner], bytes));
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
