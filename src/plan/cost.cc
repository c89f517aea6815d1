#include "plan/cost.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "plan/executor.h"
#include "plan/ring_pricer.h"
#include "sim/run_context.h"
#include "sim/simulator.h"

namespace tpu::plan {
namespace {

// Relative margin LowerBoundPlanSeconds gives up to floating-point rounding.
constexpr double kBoundMargin = 1e-9;

class HopCost {
 public:
  // `route_log`, when non-null, collects every link a priced route crosses.
  HopCost(const topo::MeshTopology& topo, const net::NetworkConfig& config,
          const LinkHealthSet& health,
          std::vector<topo::LinkId>* route_log = nullptr)
      : topo_(topo), config_(config),
        degrade_(topo.links().size(), 1.0),
        failed_(topo.links().size(), false),
        route_log_(route_log) {
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
      if (route_log_ != nullptr) route_log_->push_back(id);
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
  std::vector<topo::LinkId>* route_log_;
};

// Elements each direction of a ring carries, split as StartRing splits
// them: everything clockwise on a monodirectional or two-chip ring, else
// the two DirectionHalves.
std::array<std::int64_t, 2> DirectionElems(
    const coll::RingSpec& spec, const coll::CollectiveOptions& options) {
  if (!options.bidirectional || spec.size() <= 2) {
    return {spec.range.size(), 0};
  }
  const auto [cw, ccw] = coll::DirectionHalves(spec.range);
  return {cw.size(), ccw.size()};
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

// One group's closed-form seconds in `stage`: the single per-group price
// the estimate, its partial estimate and PlanRepricer all use.
SimTime GroupSeconds(const HopCost& hop, const LoweredStage& stage,
                     const coll::RingSpec& spec,
                     const coll::CollectiveOptions& options) {
  return stage.algorithm == PhaseAlgorithm::kRing
             ? RingStageSeconds(hop, spec, options)
             : HdStageSeconds(hop, spec,
                              stage.op == LoweredStage::Op::kReduceScatter,
                              options);
}

// Folds stage_seconds(s) over the stages in order: they run back to back,
// except that chunk pipelining overlaps the shorter stages under the longest
// one; the sequential sum is its upper bound, longest stage its lower bound.
template <typename StageFn>
SimTime SumStages(const LoweredPlan& lowered, StageFn&& stage_seconds) {
  SimTime total = 0, longest_stage = 0;
  for (std::size_t s = 0; s < lowered.stages.size(); ++s) {
    const SimTime t = stage_seconds(s);
    total += t;
    longest_stage = std::max(longest_stage, t);
  }
  if (lowered.plan.chunks > 1) {
    total = longest_stage + (total - longest_stage) / lowered.plan.chunks;
  }
  return total;
}

}  // namespace

SimTime EstimatePlanSeconds(const topo::MeshTopology& topo,
                            const net::NetworkConfig& config,
                            const LinkHealthSet& health,
                            const LoweredPlan& lowered) {
  const HopCost hop(topo, config, health);
  const coll::CollectiveOptions options = lowered.plan.collective_options();
  return SumStages(lowered, [&](std::size_t s) {
    const LoweredStage& stage = lowered.stages[s];
    SimTime stage_seconds = 0;
    for (const coll::RingSpec& spec : *stage.specs) {
      stage_seconds =
          std::max(stage_seconds, GroupSeconds(hop, stage, spec, options));
    }
    return stage_seconds;
  });
}

SimTime PartialEstimateSeconds(const topo::MeshTopology& topo,
                               const net::NetworkConfig& config,
                               const LinkHealthSet& health,
                               const LoweredPlan& lowered) {
  if (lowered.plan.chunks > 1) return 0;
  const HopCost hop(topo, config, health);
  const coll::CollectiveOptions options = lowered.plan.collective_options();
  return SumStages(lowered, [&](std::size_t s) {
    const LoweredStage& stage = lowered.stages[s];
    return stage.specs->empty()
               ? SimTime{0}
               : GroupSeconds(hop, stage, stage.specs->front(), options);
  });
}

PlanRepricer::PlanRepricer(const topo::MeshTopology& topo,
                           const net::NetworkConfig& config,
                           LoweredPlan lowered)
    : topo_(topo), config_(config), lowered_(std::move(lowered)) {
  // Pricing each group healthy logs exactly the links its price reads.
  std::vector<topo::LinkId> links;
  const HopCost hop(topo_, config_, {}, &links);
  const coll::CollectiveOptions options = lowered_.plan.collective_options();
  std::vector<std::pair<topo::LinkId, int>> crossings;  // (link, group)
  stage_begin_.push_back(0);
  for (const LoweredStage& stage : lowered_.stages) {
    SimTime stage_seconds = 0;
    for (const coll::RingSpec& spec : *stage.specs) {
      const int group = static_cast<int>(group_seconds_.size());
      links.clear();
      group_seconds_.push_back(GroupSeconds(hop, stage, spec, options));
      stage_seconds = std::max(stage_seconds, group_seconds_.back());
      std::sort(links.begin(), links.end());
      links.erase(std::unique(links.begin(), links.end()), links.end());
      for (const topo::LinkId link : links) crossings.emplace_back(link, group);
    }
    stage_seconds_.push_back(stage_seconds);
    stage_begin_.push_back(static_cast<int>(group_seconds_.size()));
  }
  healthy_seconds_ = SumStages(
      lowered_, [&](std::size_t s) { return stage_seconds_[s]; });

  // Bucket the crossings by link; groups arrive ascending, so each link's
  // list comes out ascending.
  link_begin_.assign(topo_.links().size() + 1, 0);
  for (const auto& [link, group] : crossings) ++link_begin_[link + 1];
  for (std::size_t l = 0; l + 1 < link_begin_.size(); ++l) {
    link_begin_[l + 1] += link_begin_[l];
  }
  std::vector<int> next(link_begin_.begin(), link_begin_.end() - 1);
  link_groups_.resize(crossings.size());
  for (const auto& [link, group] : crossings) {
    link_groups_[next[link]++] = group;
  }
}

SimTime PlanRepricer::Seconds(const LinkHealthSet& health) const {
  std::vector<int> touched;
  const auto touch = [&](topo::LinkId link) {
    touched.insert(touched.end(), link_groups_.begin() + link_begin_[link],
                   link_groups_.begin() + link_begin_[link + 1]);
  };
  for (const topo::LinkId link : health.failed) touch(link);
  for (const auto& [link, factor] : health.degraded) touch(link);
  if (touched.empty()) return healthy_seconds_;
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // A group off every listed link walks only links whose cost `health`
  // leaves as healthy, so its stored price is what recomputing would give.
  const HopCost hop(topo_, config_, health);
  const coll::CollectiveOptions options = lowered_.plan.collective_options();
  auto next = touched.begin();
  return SumStages(lowered_, [&](std::size_t s) {
    const int first = stage_begin_[s];
    const int last = stage_begin_[s + 1];
    if (next == touched.end() || *next >= last) return stage_seconds_[s];
    const LoweredStage& stage = lowered_.stages[s];
    SimTime stage_seconds = 0;
    for (int group = first; group < last; ++group) {
      SimTime t = group_seconds_[group];
      if (next != touched.end() && *next == group) {
        t = GroupSeconds(hop, stage, (*stage.specs)[group - first], options);
        ++next;
      }
      stage_seconds = std::max(stage_seconds, t);
    }
    return stage_seconds;
  });
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
                                const LoweredPlan& lowered) {
  // Candidate evaluations are throwaway: silence every sink so the search
  // leaves no spans, counters, samples or event records behind — only the
  // chosen plan's real execution is observable.
  sim::ScopedSilence silence;
  sim::Simulator simulator;
  net::Network network(&topo, config, &simulator);
  health.ApplyTo(network);
  if (RingPricerApplies(lowered)) {
    return SummarizeTimeline(lowered, PriceRingPlan(network, lowered)).total();
  }
  if (lowered.plan.chunks > 1) {
    return ExecutePlan(network, lowered.plan, lowered.elems).total();
  }
  StageTimeline timeline;
  return RunLoweredPlan(network, lowered, {}, &timeline).total();
}

SimTime EvaluatePlanOnSimulator(const topo::MeshTopology& topo,
                                const net::NetworkConfig& config,
                                const LinkHealthSet& health,
                                const CollectivePlan& plan,
                                std::int64_t elems) {
  sim::ScopedSilence silence;  // so the lowering attaches no trace labels
  return EvaluatePlanOnSimulator(topo, config, health,
                                 LowerPlan(topo, plan, elems));
}

}  // namespace tpu::plan
