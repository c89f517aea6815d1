// Declarative IR for searched collective schedules.
//
// The paper's 2-D Y-then-X gradient summation (Section 3.3) is one point in
// a space of legal reduction schedules: dimension orders can swap, rings can
// be replaced by recursive halving-doubling, the whole mesh can run one flat
// snake ring, payloads can travel compressed or uncompressed, mono- or
// bidirectionally, sequentially or chunk-pipelined. A CollectivePlan names
// one such schedule as data — an ordered list of phases — so the planner can
// enumerate candidates (plan/generator.h), price them (plan/cost.h), cache
// the winner (plan/cache.h) and execute it (plan/executor.h) without any of
// those layers hard-coding a schedule.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "collectives/ring.h"
#include "network/network.h"
#include "topology/topology.h"

namespace tpu::plan {

// What a phase does to the payload.
enum class PhaseKind {
  kReduceScatter,   // shrink: each participant ends owning a shard
  kAllGather,       // grow: restore the range reduced by the matching RS
  kAllReduceInOne,  // RS immediately followed by AG on the same groups
};

// How the phase moves data.
enum class PhaseAlgorithm {
  kRing,             // barrier-stepped ring passes (coll/ring.h)
  kHalvingDoubling,  // recursive halving/doubling (coll/halving_doubling.h)
};

// Which communicator groups the phase runs over.
enum class PlanDim {
  kY,     // one group per column (torus rings within a pod)
  kX,     // one group per row, strided over model-parallel peers
  kFlat,  // a single boustrophedon ring over the whole mesh
};

const char* ToString(PhaseKind kind);
const char* ToString(PhaseAlgorithm algorithm);
const char* ToString(PlanDim dim);

struct PlanPhase {
  PhaseKind kind = PhaseKind::kReduceScatter;
  PhaseAlgorithm algorithm = PhaseAlgorithm::kRing;
  PlanDim dim = PlanDim::kY;
  // Model-parallel stride: groups along X connect every stride-th chip
  // (Figure 4's dotted rings). Must be 1 on Y/flat phases.
  int stride = 1;

  friend bool operator==(const PlanPhase&, const PlanPhase&) = default;
};

struct CollectivePlan {
  std::vector<PlanPhase> phases;
  // Split payloads across both group directions (ring phases only).
  bool bidirectional = true;
  // bfloat16 wire compression (Section 3.3).
  bool bfloat16_wire = false;
  // > 1: chunk-pipelined execution — the payload splits into `chunks` slices
  // whose phases overlap. Only the canonical ring 2-D [Y->X] shape supports
  // pipelining (it runs as coll::PipelinedTwoDGradientSummation).
  int chunks = 1;

  friend bool operator==(const CollectivePlan&, const CollectivePlan&) =
      default;

  coll::CollectiveOptions collective_options() const {
    coll::CollectiveOptions options;
    options.bidirectional = bidirectional;
    options.bfloat16_wire = bfloat16_wire;
    return options;
  }

  // Stable human-readable identity, e.g. "ring-2d[Y->X] bidir bf16",
  // "ring-flat mono fp32", "hd-2d[X->Y] mono bf16", "ring-2d[Y->X]/s4 bidir
  // bf16 c4". Used for deterministic tie-breaking and golden checks.
  std::string name() const;
};

// What the caller wants summed, and how hard to search.
struct PlanRequest {
  std::int64_t elems = 0;        // per-chip gradient payload, float elements
  int model_parallel_stride = 1; // X groups hop over model-parallel peers
  bool allow_bfloat16 = true;    // search may compress the wire format
  bool allow_bidirectional = true;
  // > 1 also enumerates chunk-pipelined variants up to this many chunks
  // (powers of two). 1 keeps the search space sequential-only.
  int max_chunks = 1;
  // Candidates shortlisted by closed-form estimate for the discrete-event
  // simulator, which prices those the lower bound cannot rule out; the rest
  // are ranked by estimate alone.
  int des_top_k = 3;

  friend bool operator==(const PlanRequest&, const PlanRequest&) = default;
};

// The fault view a plan was searched under: which directed links are failed
// and which carry a slowdown factor. Part of the cache key, so a detection
// that changes link health re-plans instead of reusing a now-stalled
// schedule.
struct LinkHealthSet {
  std::vector<topo::LinkId> failed;                       // ascending
  std::vector<std::pair<topo::LinkId, double>> degraded;  // ascending by link

  // Snapshot of the network's current link state.
  static LinkHealthSet FromNetwork(const net::Network& network);

  // Re-applies this snapshot to a (fresh) network, e.g. the throwaway
  // evaluation networks the cost model prices candidates on.
  void ApplyTo(net::Network& network) const;

  bool healthy() const { return failed.empty() && degraded.empty(); }

  // "" when healthy, else a stable "|F:..|D:.." fragment for cache keys.
  std::string CacheKeyFragment() const;

  friend bool operator==(const LinkHealthSet&, const LinkHealthSet&) = default;
};

// The RS a, RS b, AG b, AG a palindrome over two dimensions; `stride`
// applies to the X phases.
CollectivePlan TwoDPlan(PlanDim first, PlanDim second, PhaseAlgorithm algorithm,
                        int stride, bool bidirectional, bool bf16);

// The paper's fixed schedule as a plan: ring 2-D [Y->X] with the request's
// stride and preferred wire options. coll::TwoDGradientSummation runs it, and
// it is the golden plan the planner is expected to rediscover on a healthy
// multipod.
CollectivePlan PaperPlan(const PlanRequest& request);

// Structural legality of `plan` on `topo`:
//   * phases non-empty; a flat phase is the only phase and has stride 1;
//   * stride >= 1, only on X phases, and tiles size_x;
//   * every all-gather mirrors the innermost open reduce-scatter (same dim,
//     algorithm, stride), and every reduce-scatter is eventually mirrored;
//   * all-reduce-in-one phases don't mix with open RS/AG pairs;
//   * no dimension is reduced twice;
//   * halving-doubling groups are power-of-two sized (and unstrided);
//   * chunks > 1 only on the canonical ring 2-D [Y->X] shape;
//   * the plan covers the machine: flat, or both Y and X (dims of extent 1
//     are trivially covered).
// Returns false and fills `error` (when non-null) on the first violation.
bool ValidatePlan(const topo::MeshTopology& topo, const CollectivePlan& plan,
                  std::string* error = nullptr);

}  // namespace tpu::plan
