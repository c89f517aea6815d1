#include "plan/plan_ir.h"

#include <cstdio>

#include "common/check.h"
#include "common/math_util.h"

namespace tpu::plan {

const char* ToString(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kReduceScatter:
      return "reduce-scatter";
    case PhaseKind::kAllGather:
      return "all-gather";
    case PhaseKind::kAllReduceInOne:
      return "all-reduce";
  }
  return "?";
}

const char* ToString(PhaseAlgorithm algorithm) {
  switch (algorithm) {
    case PhaseAlgorithm::kRing:
      return "ring";
    case PhaseAlgorithm::kHalvingDoubling:
      return "hd";
  }
  return "?";
}

const char* ToString(PlanDim dim) {
  switch (dim) {
    case PlanDim::kY:
      return "Y";
    case PlanDim::kX:
      return "X";
    case PlanDim::kFlat:
      return "flat";
  }
  return "?";
}

std::string CollectivePlan::name() const {
  bool any_ring = false, any_hd = false;
  bool all_in_one = true;
  int max_stride = 1;
  std::vector<PlanDim> reduce_dims;
  for (const PlanPhase& phase : phases) {
    (phase.algorithm == PhaseAlgorithm::kRing ? any_ring : any_hd) = true;
    if (phase.kind != PhaseKind::kAllReduceInOne) all_in_one = false;
    if (phase.kind != PhaseKind::kAllGather) reduce_dims.push_back(phase.dim);
    if (phase.stride > max_stride) max_stride = phase.stride;
  }

  std::string out = any_ring && any_hd ? "mixed" : any_hd ? "hd" : "ring";
  if (phases.size() == 1 && phases[0].dim == PlanDim::kFlat) {
    out += "-flat";
  } else {
    out += "-" + std::to_string(reduce_dims.size()) + "d";
    if (all_in_one) out += "-ar";
    out += "[";
    for (std::size_t i = 0; i < reduce_dims.size(); ++i) {
      if (i > 0) out += "->";
      out += ToString(reduce_dims[i]);
    }
    out += "]";
  }
  if (max_stride > 1) out += "/s" + std::to_string(max_stride);
  out += bidirectional ? " bidir" : " mono";
  out += bfloat16_wire ? " bf16" : " fp32";
  if (chunks > 1) out += " c" + std::to_string(chunks);
  return out;
}

CollectivePlan TwoDPlan(PlanDim first, PlanDim second, PhaseAlgorithm algorithm,
                        int stride, bool bidirectional, bool bf16) {
  auto phase = [&](PhaseKind kind, PlanDim dim) {
    PlanPhase p;
    p.kind = kind;
    p.algorithm = algorithm;
    p.dim = dim;
    p.stride = dim == PlanDim::kX ? stride : 1;
    return p;
  };
  CollectivePlan plan;
  plan.phases = {phase(PhaseKind::kReduceScatter, first),
                 phase(PhaseKind::kReduceScatter, second),
                 phase(PhaseKind::kAllGather, second),
                 phase(PhaseKind::kAllGather, first)};
  plan.bidirectional = bidirectional;
  plan.bfloat16_wire = bf16;
  return plan;
}

CollectivePlan PaperPlan(const PlanRequest& request) {
  return TwoDPlan(PlanDim::kY, PlanDim::kX, PhaseAlgorithm::kRing,
                  request.model_parallel_stride, request.allow_bidirectional,
                  request.allow_bfloat16);
}

LinkHealthSet LinkHealthSet::FromNetwork(const net::Network& network) {
  LinkHealthSet health;
  // links() is ordered by id, so both vectors come out sorted.
  for (const topo::Link& link : network.topology().links()) {
    if (network.LinkFailed(link.id)) {
      health.failed.push_back(link.id);
    } else if (network.LinkDegradation(link.id) != 1.0) {
      health.degraded.emplace_back(link.id, network.LinkDegradation(link.id));
    }
  }
  return health;
}

void LinkHealthSet::ApplyTo(net::Network& network) const {
  for (const topo::LinkId link : failed) network.FailLink(link);
  for (const auto& [link, factor] : degraded) {
    network.DegradeLink(link, factor);
  }
}

std::string LinkHealthSet::CacheKeyFragment() const {
  if (healthy()) return "";
  std::string out;
  if (!failed.empty()) {
    out += "|F:";
    for (std::size_t i = 0; i < failed.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(failed[i]);
    }
  }
  if (!degraded.empty()) {
    out += "|D:";
    for (std::size_t i = 0; i < degraded.size(); ++i) {
      if (i > 0) out += ",";
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%dx%g", degraded[i].first,
                    degraded[i].second);
      out += buf;
    }
  }
  return out;
}

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

int GroupSize(const topo::MeshTopology& topo, const PlanPhase& phase) {
  switch (phase.dim) {
    case PlanDim::kY:
      return topo.size_y();
    case PlanDim::kX:
      return topo.size_x() / phase.stride;
    case PlanDim::kFlat:
      return topo.num_chips();
  }
  return 0;
}

}  // namespace

bool ValidatePlan(const topo::MeshTopology& topo, const CollectivePlan& plan,
                  std::string* error) {
  if (plan.phases.empty()) return Fail(error, "plan has no phases");
  if (plan.chunks < 1) return Fail(error, "chunks must be >= 1");

  bool covers_y = false, covers_x = false, covers_flat = false;
  bool any_in_one = false, any_rs_ag = false;
  std::vector<const PlanPhase*> open;  // unmatched reduce-scatters
  std::vector<PlanDim> reduced;

  for (const PlanPhase& phase : plan.phases) {
    if (phase.stride < 1) return Fail(error, "stride must be >= 1");
    if (phase.stride > 1 && phase.dim != PlanDim::kX) {
      return Fail(error, "stride only applies to X phases");
    }
    if (phase.dim == PlanDim::kX && topo.size_x() % phase.stride != 0) {
      return Fail(error, "stride must tile the X dimension");
    }
    if (phase.dim == PlanDim::kFlat) {
      covers_flat = true;
      if (plan.phases.size() != 1) {
        return Fail(error, "a flat phase must be the only phase");
      }
      if (phase.kind != PhaseKind::kAllReduceInOne) {
        return Fail(error, "a flat phase must be all-reduce-in-one");
      }
      if (phase.algorithm != PhaseAlgorithm::kRing) {
        return Fail(error, "flat phases are ring-only");
      }
    }
    if (phase.dim == PlanDim::kY) covers_y = true;
    if (phase.dim == PlanDim::kX) covers_x = true;

    if (phase.algorithm == PhaseAlgorithm::kHalvingDoubling) {
      if (phase.stride != 1) {
        return Fail(error, "halving-doubling groups cannot be strided");
      }
      if (!IsPowerOfTwo(GroupSize(topo, phase))) {
        return Fail(error, "halving-doubling needs a power-of-two group");
      }
    }

    switch (phase.kind) {
      case PhaseKind::kReduceScatter:
        any_rs_ag = true;
        for (const PlanDim dim : reduced) {
          if (dim == phase.dim) {
            return Fail(error, "dimension reduced twice");
          }
        }
        reduced.push_back(phase.dim);
        open.push_back(&phase);
        break;
      case PhaseKind::kAllGather: {
        any_rs_ag = true;
        if (open.empty()) {
          return Fail(error, "all-gather without a matching reduce-scatter");
        }
        const PlanPhase& rs = *open.back();
        if (rs.dim != phase.dim || rs.algorithm != phase.algorithm ||
            rs.stride != phase.stride) {
          return Fail(error,
                      "all-gather must mirror the innermost reduce-scatter");
        }
        open.pop_back();
        break;
      }
      case PhaseKind::kAllReduceInOne:
        any_in_one = true;
        for (const PlanDim dim : reduced) {
          if (dim == phase.dim) {
            return Fail(error, "dimension reduced twice");
          }
        }
        reduced.push_back(phase.dim);
        break;
    }
  }
  if (!open.empty()) return Fail(error, "unmatched reduce-scatter");
  if (any_in_one && any_rs_ag) {
    return Fail(error, "all-reduce-in-one phases cannot mix with RS/AG pairs");
  }

  if (plan.chunks > 1) {
    const std::vector<PlanPhase>& p = plan.phases;
    const bool canonical =
        p.size() == 4 && p[0].kind == PhaseKind::kReduceScatter &&
        p[0].dim == PlanDim::kY && p[1].kind == PhaseKind::kReduceScatter &&
        p[1].dim == PlanDim::kX && p[2].kind == PhaseKind::kAllGather &&
        p[2].dim == PlanDim::kX && p[3].kind == PhaseKind::kAllGather &&
        p[3].dim == PlanDim::kY;
    bool all_ring = true;
    for (const PlanPhase& phase : p) {
      if (phase.algorithm != PhaseAlgorithm::kRing) all_ring = false;
    }
    if (!canonical || !all_ring) {
      return Fail(error, "chunked execution needs the ring 2-D [Y->X] shape");
    }
  }

  const bool y_ok = covers_y || topo.size_y() == 1;
  const bool x_ok = covers_x || topo.size_x() == 1;
  if (!covers_flat && !(y_ok && x_ok)) {
    return Fail(error, "plan does not reduce across the whole machine");
  }
  return true;
}

}  // namespace tpu::plan
