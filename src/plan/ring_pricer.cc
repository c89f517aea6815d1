#include "plan/ring_pricer.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "collectives/ring.h"
#include "common/check.h"

namespace tpu::plan {
namespace {

using Route = net::Network::CachedRoute;

// One direction of one ring as coll::RingPass runs it: routes[rank] leads
// from pass position rank to rank + 1, and `range` is cut into n chunks.
struct Pass {
  coll::Range range;
  std::vector<const Route*> routes;
};

// A stage's passes in the order the simulator starts them: per spec,
// clockwise then counter-clockwise, or one pass on a monodirectional or
// two-chip ring. A pass with nothing to exchange completes at once without
// touching a link, so it is left out.
std::vector<Pass> StagePasses(const net::Network& network,
                              const std::vector<coll::RingSpec>& specs,
                              const coll::CollectiveOptions& options) {
  std::vector<Pass> passes;
  const auto add = [&](const std::vector<topo::ChipId>& order, bool reversed,
                       coll::Range range) {
    const int n = static_cast<int>(order.size());
    if (n <= 1 || range.size() == 0) return;
    const auto chip = [&](int rank) {
      return order[reversed ? n - 1 - rank : rank];
    };
    Pass& pass = passes.emplace_back();
    pass.range = range;
    pass.routes.reserve(n);
    for (int rank = 0; rank < n; ++rank) {
      pass.routes.push_back(&network.RouteFor(chip(rank), chip((rank + 1) % n)));
    }
  };
  for (const coll::RingSpec& spec : specs) {
    if (!options.bidirectional || spec.size() <= 2) {
      add(spec.order, false, spec.range);
    } else {
      const auto [cw, ccw] = coll::DirectionHalves(spec.range);
      add(spec.order, false, cw);
      add(spec.order, true, ccw);
    }
  }
  return passes;
}

// Partitions the passes into components that share no directed link, each
// listing its passes ascending, in order of their first pass. `owner` maps
// every link to -1 on entry and on return.
std::vector<std::vector<int>> LinkCoupledComponents(
    const std::vector<Pass>& passes, std::vector<int>& owner) {
  const int count = static_cast<int>(passes.size());
  std::vector<int> parent(count);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](int p) {
    while (parent[p] != p) p = parent[p] = parent[parent[p]];
    return p;
  };
  for (int p = 0; p < count; ++p) {
    for (const Route* route : passes[p].routes) {
      for (const net::Network::CachedHop& hop : route->hops) {
        int& first = owner[hop.link];
        if (first < 0) {
          first = p;
          continue;
        }
        // The root is the component's lowest pass.
        const int a = find(first);
        const int b = find(p);
        if (a != b) parent[std::max(a, b)] = std::min(a, b);
      }
    }
  }
  for (const Pass& pass : passes) {
    for (const Route* route : pass.routes) {
      for (const net::Network::CachedHop& hop : route->hops) {
        owner[hop.link] = -1;
      }
    }
  }
  std::vector<std::vector<int>> components;
  std::vector<int> index(count, -1);
  for (int p = 0; p < count; ++p) {
    const int root = find(p);
    if (index[root] < 0) {
      index[root] = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[index[root]].push_back(p);
  }
  return components;
}

struct KeyHash {
  std::size_t operator()(const std::vector<std::uint64_t>& key) const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t word : key) {
      h = (h ^ word) * 0x100000001b3ull;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

// One component, compiled for pricing. Links are numbered in order of first
// use, and `key` lists every input of the component's arithmetic in that
// numbering: pass sizes and element counts, each hop's link, and each
// link's latency, bandwidth, degradation and failed flag. Two components
// with equal keys run the same floating-point operations on the same
// operands.
struct Component {
  struct PassInfo {
    int n;
    int first_rank;   // into rank_begin
    int first_chunk;  // into chunk_bytes
  };
  std::vector<PassInfo> passes;
  std::vector<Bytes> chunk_bytes;  // each pass's ChunkOf layout, in bytes
  // The hops of rank r (counted over all passes) are
  // hop_link[rank_begin[r] .. rank_begin[r + 1]).
  std::vector<int> rank_begin;
  std::vector<int> hop_link;
  std::vector<net::Network::CachedHop> link_hop;  // per local link
  std::vector<net::Network::LinkState> link_state;
  std::vector<std::uint64_t> key;
  // A lone pass: one pass that crosses each directed link at most once.
  bool lone = false;

  // `local_of` maps every link to -1 on entry and on return.
  void Compile(const net::Network& network, const std::vector<Pass>& all,
               const std::vector<int>& members, Bytes wire_bytes_per_elem,
               std::vector<int>& local_of) {
    passes.clear();
    chunk_bytes.clear();
    rank_begin.clear();
    hop_link.clear();
    link_hop.clear();
    link_state.clear();
    key.clear();
    lone = members.size() == 1;
    key.push_back(members.size());
    for (const int p : members) {
      const Pass& pass = all[p];
      const int n = static_cast<int>(pass.routes.size());
      passes.push_back({n, static_cast<int>(rank_begin.size()),
                        static_cast<int>(chunk_bytes.size())});
      key.push_back(n);
      key.push_back(pass.range.size());
      for (int chunk = 0; chunk < n; ++chunk) {
        chunk_bytes.push_back(coll::ChunkOf(pass.range, n, chunk).size() *
                              wire_bytes_per_elem);
      }
      for (const Route* route : pass.routes) {
        rank_begin.push_back(static_cast<int>(hop_link.size()));
        key.push_back(route->hops.size());
        for (const net::Network::CachedHop& hop : route->hops) {
          int& local = local_of[hop.link];
          if (local >= 0) {
            lone = false;  // a second crossing when there is one pass
          } else {
            local = static_cast<int>(link_hop.size());
            link_hop.push_back(hop);
            net::Network::LinkState& state = link_state.emplace_back();
            state.degradation = network.LinkDegradation(hop.link);
            state.failed = network.LinkFailed(hop.link) ? 1 : 0;
          }
          hop_link.push_back(local);
          key.push_back(local);
        }
      }
    }
    rank_begin.push_back(static_cast<int>(hop_link.size()));
    for (std::size_t l = 0; l < link_hop.size(); ++l) {
      key.push_back(std::bit_cast<std::uint64_t>(link_hop[l].latency));
      key.push_back(std::bit_cast<std::uint64_t>(link_hop[l].bandwidth));
      key.push_back(std::bit_cast<std::uint64_t>(link_state[l].degradation));
      key.push_back(link_state[l].failed);
      local_of[link_hop[l].link] = -1;
    }
  }

  // One step of pass p issued at `now`: every rank sends its chunk in rank
  // order, as RingPass's wave does, and the step ends at the last arrival.
  SimTime Step(int p, int step, coll::RingOp op, SimTime overhead,
               SimTime now) {
    const PassInfo& pass = passes[p];
    int chunk = coll::SendChunkIndex(op, pass.n, 0, step);
    SimTime end = now;
    for (int rank = 0; rank < pass.n; ++rank) {
      const Bytes bytes = chunk_bytes[pass.first_chunk + chunk];
      if (++chunk == pass.n) chunk = 0;
      SimTime head = now + overhead;
      const int r = pass.first_rank + rank;
      for (int h = rank_begin[r]; h < rank_begin[r + 1]; ++h) {
        const int l = hop_link[h];
        net::Network::ReserveHop(link_state[l], link_hop[l], bytes, now, head);
      }
      end = std::max(end, head);
    }
    return end;
  }

  // Runs every pass's n - 1 steps from `now`, when every link is idle, and
  // returns when the last one ends. A step starts when the pass's previous
  // step ends. Steps that start at the same instant go in the order the
  // simulator fires their barriers: that of the steps they follow, by issue
  // order (each step's messages take consecutive seqs).
  SimTime Run(coll::RingOp op, SimTime overhead, SimTime now) {
    if (lone) return RunLone(op, overhead, now);
    // (issue time, issue order, pass, step)
    using Issue = std::tuple<SimTime, std::uint64_t, int, int>;
    std::priority_queue<Issue, std::vector<Issue>, std::greater<>> queue;
    std::uint64_t issued = 0;
    for (int p = 0; p < static_cast<int>(passes.size()); ++p) {
      queue.emplace(now, issued++, p, 0);
    }
    SimTime end = now;
    while (!queue.empty()) {
      const auto [at, order, p, step] = queue.top();
      queue.pop();
      const SimTime step_end = Step(p, step, op, overhead, at);
      if (step + 2 < passes[p].n) {
        queue.emplace(step_end, issued++, p, step + 1);
      } else {
        end = std::max(end, step_end);
      }
    }
    return end;
  }

  // Run for a lone pass, at a cost that grows with its route classes rather
  // than its messages. Every link is idle when a step starts (the one
  // message that crossed it last step arrived before the step ended), so a
  // message's arrival is a function of the step's start, its bytes and its
  // route class: the hop sequence of (latency, bandwidth, degradation,
  // failed). Equal operands in equal order give equal times, so a step ends
  // at the latest head over the distinct (class, chunk bytes) pairs it
  // sends, each computed once.
  SimTime RunLone(coll::RingOp op, SimTime overhead, SimTime now) {
    const PassInfo& pass = passes.front();
    const int n = pass.n;
    ClassifyRoutes(n);
    const int classes = static_cast<int>(class_rank.size());
    // Runs of equal bytes in the chunk layout: (first chunk, bytes).
    runs.clear();
    for (int c = 0; c < n; ++c) {
      const Bytes bytes = chunk_bytes[pass.first_chunk + c];
      if (runs.empty() || runs.back().second != bytes) {
        runs.emplace_back(c, bytes);
      }
    }
    const auto arrival = [&](int k, Bytes bytes, SimTime at) {
      SimTime head = at + overhead;
      const int r = class_rank[k];
      for (int h = rank_begin[r]; h < rank_begin[r + 1]; ++h) {
        const int l = hop_link[h];
        net::Network::LinkState idle = link_state[l];
        net::Network::ReserveHop(idle, link_hop[l], bytes, at, head);
      }
      return head;
    };
    seen.assign(classes, -1);
    int mark = 0;
    for (int step = 0; step + 1 < n; ++step) {
      // Rank r sends chunk (first + r) % n.
      const int first = coll::SendChunkIndex(op, n, 0, step);
      SimTime end = now;
      for (std::size_t i = 0; i < runs.size(); ++i, ++mark) {
        const auto [chunk, bytes] = runs[i];
        const int len =
            (i + 1 < runs.size() ? runs[i + 1].first : n) - chunk;
        const int from = (chunk - first + n) % n;  // ranks [from, from + len)
        if (len <= classes) {
          for (int j = 0; j < len; ++j) {
            const int k = rank_class[(from + j) % n];
            if (seen[k] == mark) continue;
            seen[k] = mark;
            end = std::max(end, arrival(k, bytes, now));
          }
          continue;
        }
        for (int k = 0; k < classes; ++k) {
          if (ClassSendsFrom(k, from, len, n)) {
            end = std::max(end, arrival(k, bytes, now));
          }
        }
      }
      now = end;
    }
    return now;
  }

  // Numbers the lone pass's route classes in order of first rank:
  // rank_class[r], each class's first rank class_rank[k], and its ranks
  // ascending in class_ranks[class_begin[k] .. class_begin[k + 1]).
  void ClassifyRoutes(int n) {
    std::unordered_map<std::vector<std::uint64_t>, int, KeyHash> ids;
    std::vector<std::uint64_t> route;
    rank_class.resize(n);
    class_rank.clear();
    for (int r = 0; r < n; ++r) {
      route.clear();
      for (int h = rank_begin[r]; h < rank_begin[r + 1]; ++h) {
        const int l = hop_link[h];
        route.push_back(std::bit_cast<std::uint64_t>(link_hop[l].latency));
        route.push_back(std::bit_cast<std::uint64_t>(link_hop[l].bandwidth));
        route.push_back(
            std::bit_cast<std::uint64_t>(link_state[l].degradation));
        route.push_back(link_state[l].failed);
      }
      const auto [it, fresh] =
          ids.try_emplace(route, static_cast<int>(class_rank.size()));
      if (fresh) class_rank.push_back(r);
      rank_class[r] = it->second;
    }
    const int classes = static_cast<int>(class_rank.size());
    class_begin.assign(classes + 1, 0);
    for (int r = 0; r < n; ++r) ++class_begin[rank_class[r] + 1];
    for (int k = 0; k < classes; ++k) class_begin[k + 1] += class_begin[k];
    class_ranks.resize(n);
    std::vector<int> next(class_begin.begin(), class_begin.end() - 1);
    for (int r = 0; r < n; ++r) class_ranks[next[rank_class[r]]++] = r;
  }

  // Whether class k has a rank in the cyclic interval [from, from + len).
  bool ClassSendsFrom(int k, int from, int len, int n) const {
    const auto first = class_ranks.begin() + class_begin[k];
    const auto last = class_ranks.begin() + class_begin[k + 1];
    const auto any_in = [&](int lo, int hi) {  // [lo, hi)
      const auto it = std::lower_bound(first, last, lo);
      return it != last && *it < hi;
    };
    if (from + len <= n) return any_in(from, from + len);
    return any_in(from, n) || any_in(0, from + len - n);
  }

  // Lone-pass working arrays, reused across components.
  std::vector<std::pair<int, Bytes>> runs;
  std::vector<int> rank_class, class_rank, class_begin, class_ranks, seen;
};

}  // namespace

bool RingPricerApplies(const LoweredPlan& lowered) {
  if (lowered.plan.chunks > 1) return false;
  return std::all_of(lowered.stages.begin(), lowered.stages.end(),
                     [](const LoweredStage& stage) {
                       return stage.algorithm == PhaseAlgorithm::kRing;
                     });
}

StageTimeline PriceRingPlan(const net::Network& network,
                            const LoweredPlan& lowered,
                            const PlanExecutionConfig& config) {
  TPU_CHECK(RingPricerApplies(lowered));
  TPU_CHECK(!config.deadline.enabled());
  const coll::CollectiveOptions options = lowered.plan.collective_options();
  const SimTime overhead = network.config().message_overhead;
  std::vector<int> scratch(network.topology().links().size(), -1);
  Component component;
  // Components priced in the current stage, by key. Compared whole: a
  // hash collision must not merge two classes.
  std::unordered_map<std::vector<std::uint64_t>, SimTime, KeyHash> priced;

  // Stages are barriered globally, so every link is idle when one starts
  // (each hop frees its link no later than the message arrives, and the
  // stage ends at the last arrival).
  StageTimeline timeline;
  SimTime now = timeline.start;
  for (int i = 0; i < static_cast<int>(lowered.stages.size()); ++i) {
    const LoweredStage& stage = lowered.stages[i];
    const coll::RingOp op = stage.op == LoweredStage::Op::kReduceScatter
                                ? coll::RingOp::kReduceScatter
                                : coll::RingOp::kAllGather;
    const std::vector<Pass> passes =
        StagePasses(network, *stage.specs, options);
    priced.clear();
    SimTime end = now;
    for (const std::vector<int>& members :
         LinkCoupledComponents(passes, scratch)) {
      component.Compile(network, passes, members,
                        options.wire_bytes_per_elem(), scratch);
      auto [it, fresh] = priced.try_emplace(component.key, 0.0);
      if (fresh) it->second = component.Run(op, overhead, now);
      end = std::max(end, it->second);
    }
    now = end;
    timeline.stage_end.push_back(now);
    if (i != lowered.update_after) continue;
    // The sharded update's barrier: the simulator schedules each chip's
    // update at now + seconds and continues at the last one.
    timeline.update_end = now;
    if (config.shard_update_seconds) {
      for (const std::int64_t owned : lowered.owned_elems) {
        timeline.update_end = std::max(
            timeline.update_end, now + config.shard_update_seconds(owned));
      }
    }
    now = timeline.update_end;
  }
  return timeline;
}

}  // namespace tpu::plan
