#include "plan/schedule.h"

#include <algorithm>
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

// Group enumeration order is load-bearing: it fixes the event creation order
// of the lowered schedule (Y groups by x ascending; X groups by y, then
// stride offset), and with it every simulated time the paper's schedule
// reports.
std::vector<Group> GroupsFor(const topo::MeshTopology& topo,
                             const PlanPhase& phase, bool labeled) {
  std::vector<Group> groups;
  const bool ring = phase.algorithm == PhaseAlgorithm::kRing;
  switch (phase.dim) {
    case PlanDim::kY:
      groups.reserve(topo.size_x());
      for (int x = 0; x < topo.size_x(); ++x) {
        Group group;
        const topo::ChipId through = topo.ChipAt({x, 0});
        group.order = ring ? topo.RingAlong(topo::Dim::kY, through)
                           : topo.LineAlong(topo::Dim::kY, through);
        if (labeled) group.label = "Y x=" + std::to_string(x);
        groups.push_back(std::move(group));
      }
      break;
    case PlanDim::kX:
      for (int y = 0; y < topo.size_y(); ++y) {
        for (int offset = 0; offset < phase.stride; ++offset) {
          Group group;
          const topo::ChipId through = topo.ChipAt({offset, y});
          group.order =
              ring ? topo.StridedRingAlong(topo::Dim::kX, through,
                                           phase.stride)
                   : topo.LineAlong(topo::Dim::kX, through);
          if (labeled) {
            group.label = "X y=" + std::to_string(y);
            if (phase.stride > 1) group.label += " g" + std::to_string(offset);
          }
          groups.push_back(std::move(group));
        }
      }
      break;
    case PlanDim::kFlat: {
      Group group;
      group.order = coll::SnakeRingOverMesh(topo);
      if (labeled) group.label = "flat";
      groups.push_back(std::move(group));
      break;
    }
  }
  return groups;
}

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

  // Per-chip owned (non-empty) sub-ranges, updated through the RS stages.
  std::vector<std::vector<coll::Range>> owned(
      topo.num_chips(), {coll::Range{0, elems}});
  std::vector<std::int64_t> owned_at_update;

  // Unmatched reduce-scatters: the mirroring all-gather reuses the spec list
  // and restores the pre-RS ownership.
  struct OpenReduce {
    std::shared_ptr<std::vector<coll::RingSpec>> specs;
    std::vector<std::vector<coll::Range>> owned_before;
  };
  std::vector<OpenReduce> open;

  auto run_reduce = [&](const PlanPhase& phase) {
    OpenReduce frame;
    frame.owned_before = owned;
    frame.specs = std::make_shared<std::vector<coll::RingSpec>>();
    const std::vector<Group> groups = GroupsFor(topo, phase, labeled);
    for (const Group& group : groups) {
      const int n = static_cast<int>(group.order.size());
      // Every member owns the same ranges (ownership so far depends only on
      // the coordinates the group holds fixed); guard the invariant cheaply.
      if (n >= 2) {
        TPU_CHECK(owned[group.order[0]] == owned[group.order[1]])
            << "group members own different ranges";
      }
      std::vector<float*> data;
      if (!chip_buffers.empty()) {
        data.reserve(group.order.size());
        for (const topo::ChipId chip : group.order) {
          data.push_back(chip_buffers[chip]);
        }
      }
      for (const coll::Range& range : owned[group.order[0]]) {
        if (range.size() == 0) continue;
        coll::RingSpec spec;
        spec.order = group.order;
        spec.data = data;
        spec.range = range;
        spec.label = group.label;
        frame.specs->push_back(std::move(spec));
      }
      // Ownership after the reduce: each member keeps its shard of every
      // range the group covered.
      for (int rank = 0; rank < n; ++rank) {
        const topo::ChipId chip = group.order[rank];
        std::vector<coll::Range> next;
        for (const coll::Range& range : owned[chip]) {
          if (range.size() == 0) continue;
          if (phase.algorithm == PhaseAlgorithm::kRing) {
            for (const coll::Range& shard :
                 coll::OwnedAfterReduceScatter(range, n, rank, options)) {
              if (shard.size() > 0) next.push_back(shard);
            }
          } else {
            const coll::Range shard =
                coll::HdOwnedAfterReduceScatter(range, n, rank);
            if (shard.size() > 0) next.push_back(shard);
          }
        }
        owned[chip] = std::move(next);
      }
    }
    LoweredStage stage;
    stage.op = LoweredStage::Op::kReduceScatter;
    stage.algorithm = phase.algorithm;
    stage.dim = phase.dim;
    stage.name = StageName(stage.op, phase.dim);
    stage.specs = frame.specs;
    lowered.stages.push_back(stage);
    lowered.update_after = static_cast<int>(lowered.stages.size()) - 1;
    open.push_back(std::move(frame));
    // Snapshot ownership here: the last reduce-scatter's snapshot survives
    // as the update point (trailing all-gathers restore `owned`, so it
    // cannot be read after the walk).
    owned_at_update.assign(topo.num_chips(), 0);
    for (int chip = 0; chip < topo.num_chips(); ++chip) {
      for (const coll::Range& range : owned[chip]) {
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
