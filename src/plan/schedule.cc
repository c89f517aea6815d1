#include "plan/schedule.h"

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <utility>

#include "collectives/all_reduce.h"
#include "collectives/halving_doubling.h"
#include "common/check.h"
#include "trace/trace.h"

namespace tpu::plan {
namespace {

const char* StageName(LoweredStage::Op op, PlanDim dim) {
  const bool rs = op == LoweredStage::Op::kReduceScatter;
  switch (dim) {
    case PlanDim::kY:
      return rs ? "Y-reduce-scatter" : "Y-all-gather";
    case PlanDim::kX:
      return rs ? "X-reduce-scatter" : "X-all-gather";
    case PlanDim::kFlat:
      return rs ? "flat-reduce-scatter" : "flat-all-gather";
  }
  return "";
}

struct Group {
  std::vector<topo::ChipId> order;
  std::string label;
};

// Calls fn(group) for every group of `phase`, which fn may move from.
// Group enumeration order is load-bearing: it fixes the event creation
// order of the lowered schedule (Y groups by x ascending; X groups by y,
// then stride offset), and with it every simulated time the paper's
// schedule reports.
template <typename Fn>
void ForEachGroup(const topo::MeshTopology& topo, const PlanPhase& phase,
                  bool labeled, Fn&& fn) {
  const bool ring = phase.algorithm == PhaseAlgorithm::kRing;
  Group group;
  switch (phase.dim) {
    case PlanDim::kY:
      for (int x = 0; x < topo.size_x(); ++x) {
        const topo::ChipId through = topo.ChipAt({x, 0});
        group.order = ring ? topo.RingAlong(topo::Dim::kY, through)
                           : topo.LineAlong(topo::Dim::kY, through);
        if (labeled) group.label = "Y x=" + std::to_string(x);
        fn(group);
      }
      break;
    case PlanDim::kX:
      for (int y = 0; y < topo.size_y(); ++y) {
        for (int offset = 0; offset < phase.stride; ++offset) {
          const topo::ChipId through = topo.ChipAt({offset, y});
          group.order =
              ring ? topo.StridedRingAlong(topo::Dim::kX, through,
                                           phase.stride)
                   : topo.LineAlong(topo::Dim::kX, through);
          if (labeled) {
            group.label = "X y=" + std::to_string(y);
            if (phase.stride > 1) group.label += " g" + std::to_string(offset);
          }
          fn(group);
        }
      }
      break;
    case PlanDim::kFlat:
      group.order = coll::SnakeRingOverMesh(topo);
      if (labeled) group.label = "flat";
      fn(group);
      break;
  }
}

// The payload sub-ranges every chip owns, in one range buffer: chip c owns
// ranges[spans[c].offset .. spans[c].offset + spans[c].count), each
// non-empty, in payload order of the reductions that cut them.
struct Ownership {
  struct Span {
    int offset = 0;
    int count = 0;
  };
  std::vector<coll::Range> ranges;
  std::vector<Span> spans;

  std::span<const coll::Range> Of(topo::ChipId chip) const {
    return {ranges.data() + spans[chip].offset,
            static_cast<std::size_t>(spans[chip].count)};
  }
};

}  // namespace

LoweredPlan LowerPlan(const topo::MeshTopology& topo,
                      const CollectivePlan& plan, std::int64_t elems,
                      std::vector<float*> chip_buffers) {
  TPU_CHECK_GT(elems, 0);
  std::string error;
  TPU_CHECK(ValidatePlan(topo, plan, &error)) << error;
  if (!chip_buffers.empty()) {
    TPU_CHECK_EQ(static_cast<int>(chip_buffers.size()), topo.num_chips());
  }
  const bool labeled = trace::CurrentTrace() != nullptr;
  const coll::CollectiveOptions options = plan.collective_options();

  LoweredPlan lowered;
  lowered.plan = plan;
  lowered.elems = elems;

  // Every chip starts owning the whole payload: one shared range.
  const int chips = topo.num_chips();
  Ownership owned;
  owned.ranges.push_back(coll::Range{0, elems});
  owned.spans.assign(chips, Ownership::Span{0, 1});
  std::vector<std::int64_t> owned_at_update;

  // Unmatched reduce-scatters: the mirroring all-gather reuses the spec list
  // and takes back the pre-RS ownership.
  struct OpenReduce {
    std::shared_ptr<std::vector<coll::RingSpec>> specs;
    Ownership owned_before;
  };
  std::vector<OpenReduce> open;

  auto run_reduce = [&](const PlanPhase& phase) {
    const bool ring = phase.algorithm == PhaseAlgorithm::kRing;
    // Each range splits into at most two shards per member.
    Ownership next;
    std::size_t shards = 0;
    for (const Ownership::Span& span : owned.spans) shards += 2 * span.count;
    next.ranges.reserve(shards);
    next.spans.resize(chips);
    auto specs = std::make_shared<std::vector<coll::RingSpec>>();
    int covered = 0;
    ForEachGroup(topo, phase, labeled, [&](Group& group) {
      const int n = static_cast<int>(group.order.size());
      covered += n;
      // Every member owns the same ranges (ownership so far depends only on
      // the coordinates the group holds fixed); guard the invariant cheaply.
      const std::span<const coll::Range> ranges = owned.Of(group.order[0]);
      if (n >= 2) {
        TPU_CHECK(std::ranges::equal(ranges, owned.Of(group.order[1])))
            << "group members own different ranges";
      }
      // Ownership after the reduce: each member keeps its shard of every
      // range the group covered.
      for (int rank = 0; rank < n; ++rank) {
        Ownership::Span& span = next.spans[group.order[rank]];
        span.offset = static_cast<int>(next.ranges.size());
        for (const coll::Range& range : ranges) {
          std::array<coll::Range, 2> shard;
          int count = 1;
          if (ring) {
            count =
                coll::OwnedAfterReduceScatter(range, n, rank, options, shard);
          } else {
            shard[0] = coll::HdOwnedAfterReduceScatter(range, n, rank);
          }
          for (int i = 0; i < count; ++i) {
            if (shard[i].size() > 0) next.ranges.push_back(shard[i]);
          }
        }
        span.count = static_cast<int>(next.ranges.size()) - span.offset;
      }
      std::vector<float*> data;
      if (!chip_buffers.empty()) {
        data.reserve(group.order.size());
        for (const topo::ChipId chip : group.order) {
          data.push_back(chip_buffers[chip]);
        }
      }
      // One spec per owned range; the last one takes the group's buffers.
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        coll::RingSpec& spec = specs->emplace_back();
        spec.range = ranges[i];
        if (i + 1 < ranges.size()) {
          spec.order = group.order;
          spec.data = data;
          spec.label = group.label;
        } else {
          spec.order = std::move(group.order);
          spec.data = std::move(data);
          spec.label = std::move(group.label);
        }
      }
    });
    TPU_CHECK_EQ(covered, chips) << "a phase's groups must cover every chip";
    LoweredStage stage;
    stage.op = LoweredStage::Op::kReduceScatter;
    stage.algorithm = phase.algorithm;
    stage.dim = phase.dim;
    stage.name = StageName(stage.op, phase.dim);
    stage.specs = specs;
    lowered.stages.push_back(stage);
    lowered.update_after = static_cast<int>(lowered.stages.size()) - 1;
    open.push_back({std::move(specs), std::move(owned)});
    owned = std::move(next);
    // Snapshot ownership here: the last reduce-scatter's snapshot survives
    // as the update point (trailing all-gathers restore `owned`, so it
    // cannot be read after the walk).
    owned_at_update.assign(chips, 0);
    for (int chip = 0; chip < chips; ++chip) {
      for (const coll::Range& range : owned.Of(chip)) {
        owned_at_update[chip] += range.size();
      }
    }
  };

  auto run_gather = [&](const PlanPhase& phase) {
    TPU_CHECK(!open.empty());
    OpenReduce frame = std::move(open.back());
    open.pop_back();
    LoweredStage stage;
    stage.op = LoweredStage::Op::kAllGather;
    stage.algorithm = phase.algorithm;
    stage.dim = phase.dim;
    stage.name = StageName(stage.op, phase.dim);
    stage.specs = frame.specs;
    lowered.stages.push_back(stage);
    owned = std::move(frame.owned_before);
  };

  for (const PlanPhase& phase : plan.phases) {
    switch (phase.kind) {
      case PhaseKind::kReduceScatter:
        run_reduce(phase);
        break;
      case PhaseKind::kAllGather:
        run_gather(phase);
        break;
      case PhaseKind::kAllReduceInOne:
        run_reduce(phase);
        run_gather(phase);
        break;
    }
  }
  TPU_CHECK(open.empty());

  lowered.owned_elems = std::move(owned_at_update);
  for (const std::int64_t chip_elems : lowered.owned_elems) {
    lowered.max_owned_elems = std::max(lowered.max_owned_elems, chip_elems);
  }
  return lowered;
}

}  // namespace tpu::plan
