// Candidate enumeration: every legal CollectivePlan worth pricing.
//
// The search space (Section 3.3's design space, made explicit):
//   * ring 2-D reduce-scatter/all-gather in both dimension orders
//     ([Y->X] — the paper's schedule — and [X->Y]), with model-parallel
//     strided X groups when requested,
//   * the flat 1-D snake ring over the whole mesh (the baseline the 2-D
//     schedule replaced),
//   * recursive halving-doubling in both 2-D orders on power-of-two meshes,
//   * naive per-dimension all-reduce chains (reduce the full payload along
//     each dimension in turn — no payload shrink between dimensions),
//   * chunk-pipelined variants of the canonical [Y->X] shape when the
//     request allows more than one chunk,
// each crossed with {mono, bidirectional} x {fp32, bf16} as the request's
// allow_* flags permit. Enumeration order and plan names are deterministic:
// identical requests yield identical candidate lists.
#pragma once

#include <vector>

#include "plan/plan_ir.h"
#include "topology/topology.h"

namespace tpu::plan {

// Every candidate validates under ValidatePlan and carries a unique name().
std::vector<CollectivePlan> GeneratePlans(const topo::MeshTopology& topo,
                                          const PlanRequest& request);

}  // namespace tpu::plan
