#include "plan/generator.h"

#include <string>

#include "common/check.h"
#include "common/math_util.h"

namespace tpu::plan {
namespace {

CollectivePlan ArChainPlan(PlanDim first, PlanDim second, bool bidirectional,
                           bool bf16) {
  auto phase = [&](PlanDim dim) {
    PlanPhase p;
    p.kind = PhaseKind::kAllReduceInOne;
    p.dim = dim;
    return p;
  };
  CollectivePlan plan;
  plan.phases = {phase(first), phase(second)};
  plan.bidirectional = bidirectional;
  plan.bfloat16_wire = bf16;
  return plan;
}

CollectivePlan FlatPlan(bool bidirectional, bool bf16) {
  PlanPhase phase;
  phase.kind = PhaseKind::kAllReduceInOne;
  phase.dim = PlanDim::kFlat;
  CollectivePlan plan;
  plan.phases = {phase};
  plan.bidirectional = bidirectional;
  plan.bfloat16_wire = bf16;
  return plan;
}

}  // namespace

std::vector<CollectivePlan> GeneratePlans(const topo::MeshTopology& topo,
                                          const PlanRequest& request) {
  TPU_CHECK_GE(request.model_parallel_stride, 1);
  const int stride = request.model_parallel_stride;

  std::vector<bool> wire;  // bf16 first: the paper's default comes first
  if (request.allow_bfloat16) wire.push_back(true);
  wire.push_back(false);
  std::vector<bool> directions;
  if (request.allow_bidirectional) directions.push_back(true);
  directions.push_back(false);

  const std::pair<PlanDim, PlanDim> orders[] = {
      {PlanDim::kY, PlanDim::kX}, {PlanDim::kX, PlanDim::kY}};

  std::vector<CollectivePlan> plans;
  // Ring 2-D in both dimension orders.
  for (const auto& [first, second] : orders) {
    for (const bool bidir : directions) {
      for (const bool bf16 : wire) {
        plans.push_back(TwoDPlan(first, second, PhaseAlgorithm::kRing, stride,
                                 bidir, bf16));
      }
    }
  }
  if (stride == 1) {
    // Flat snake ring over the whole mesh.
    for (const bool bidir : directions) {
      for (const bool bf16 : wire) plans.push_back(FlatPlan(bidir, bf16));
    }
    // Recursive halving-doubling (exchanges are symmetric, so there is no
    // bidirectional variant to enumerate).
    if (IsPowerOfTwo(topo.size_y()) && IsPowerOfTwo(topo.size_x())) {
      for (const auto& [first, second] : orders) {
        for (const bool bf16 : wire) {
          plans.push_back(TwoDPlan(first, second,
                                   PhaseAlgorithm::kHalvingDoubling, 1,
                                   /*bidirectional=*/false, bf16));
        }
      }
    }
    // Naive all-reduce chains.
    for (const auto& [first, second] : orders) {
      for (const bool bidir : directions) {
        for (const bool bf16 : wire) {
          plans.push_back(ArChainPlan(first, second, bidir, bf16));
        }
      }
    }
  }
  // Chunk-pipelined variants of the canonical shape, preferred flags only.
  for (int chunks = 2; chunks <= request.max_chunks; chunks *= 2) {
    CollectivePlan plan = PaperPlan(request);
    plan.chunks = chunks;
    plans.push_back(plan);
  }

  for (const CollectivePlan& plan : plans) {
    std::string error;
    TPU_CHECK(ValidatePlan(topo, plan, &error)) << plan.name() << ": "
                                                << error;
  }
  return plans;
}

}  // namespace tpu::plan
