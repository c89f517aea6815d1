// Lowering: CollectivePlan -> executable stages of concrete ring/group specs.
//
// LowerPlan is the only builder of the 2-D ring groups. It walks the plan
// phase by phase, tracking which payload sub-ranges every chip owns, and
// materializes one coll::RingSpec per (group, owned range). Ownership lives
// in flat arrays: one range buffer per ownership state, and per chip an
// (offset, count) span into it. Before the first reduce every chip's span
// names the same single range; each reduce-scatter builds the next buffer
// from the group members' shards, and hands the buffer it replaces to its
// mirroring all-gather by move, which restores it. A reduce-scatter
// and its mirroring all-gather share one spec list (an all-gather re-runs the
// same groups over the same ranges in reverse), and all-reduce-in-one phases
// expand into an RS stage plus an AG stage on shared specs. The closed-form
// cost estimate, the stage runner (plan/executor.h) and the chunk-pipelined
// summation all consume the same LoweredPlan, so they price and run the
// identical schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collectives/ring.h"
#include "plan/plan_ir.h"
#include "topology/topology.h"

namespace tpu::plan {

struct LoweredStage {
  enum class Op { kReduceScatter, kAllGather };

  Op op = Op::kReduceScatter;
  PhaseAlgorithm algorithm = PhaseAlgorithm::kRing;
  PlanDim dim = PlanDim::kY;
  // Static phase label ("Y-reduce-scatter", "X-all-gather", ...), also the
  // name of the stage's monitored phase.
  const char* name = "";
  // Shared between a reduce-scatter and its mirroring all-gather.
  std::shared_ptr<std::vector<coll::RingSpec>> specs;
};

struct LoweredPlan {
  CollectivePlan plan;
  std::int64_t elems = 0;  // per-chip payload the plan was lowered over
  std::vector<LoweredStage> stages;
  // The sharded weight update runs after stages[update_after] (the last
  // reduce-scatter stage), on each chip's then-owned elements.
  int update_after = 0;
  // Per-chip owned element counts at the update point, and their max.
  std::vector<std::int64_t> owned_elems;
  std::int64_t max_owned_elems = 0;
};

// Lowers `plan` (which must validate on `topo`) over a payload of `elems`
// float elements per chip, ranges starting at 0. `chip_buffers` is empty for
// timing-only lowering or holds one payload pointer per chip id; spec labels
// ("Y x=3", "X y=0 g1") are attached only when a trace recorder is
// installed. Ignores plan.chunks: the pipelined summation lowers each slice
// on its own, and chunked plans lower sequentially for cost estimation.
LoweredPlan LowerPlan(const topo::MeshTopology& topo,
                      const CollectivePlan& plan, std::int64_t elems,
                      std::vector<float*> chip_buffers = {});

}  // namespace tpu::plan
