// Topology-aware slice carving for the multi-tenant cluster.
//
// The cluster's pods form one big 2-D mesh; a job runs on an axis-aligned
// SubmeshRect carved out of it (a carved rect is itself a legal Slice
// topology — topology.h). The SliceScheduler owns the occupancy grid: who
// holds which chips, which chips are permanently dead, and a pluggable
// rect filter for constraints a cell mask cannot express (permanently
// failed *links* whose both endpoints would fall inside a candidate).
//
// Placement policies:
//   * first-fit  — first admissible position in row-major (y, then x) scan
//     order. FCFS with head-of-line blocking.
//   * best-fit   — the admissible position with the highest boundary
//     contact (chip-sides touching occupied / dead / border cells), ties to
//     scan order. Corner-packing, which is what keeps fragmentation down on
//     a 2-D grid.
//   * backfill   — first-fit placement, but the cluster driver may walk
//     past a blocked queue head and may preempt strictly-lower-priority
//     jobs (FindPreemption).
//
// Everything is deterministic: scans are row-major, victim sets are sorted,
// and no randomness or wall-clock is consulted.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "topology/topology.h"

namespace tpu::cluster {

enum class CarvePolicy { kFirstFit, kBestFit, kBackfill };
const char* CarvePolicyName(CarvePolicy policy);

class SliceScheduler {
 public:
  using RectFilter = std::function<bool(const topo::SubmeshRect&)>;

  SliceScheduler(int size_x, int size_y);

  // Extra admissibility constraint on candidate rects (beyond free + usable
  // cells) — the cluster driver rejects rects enclosing a permanently
  // failed link. Null accepts everything.
  void set_rect_filter(RectFilter filter) { filter_ = std::move(filter); }

  // Permanently removes one chip from the allocatable pool (chip death).
  // Chips inside a current allocation stay allocated — the owning job's
  // recovery controller decides what to do about the loss.
  void MarkUnusable(topo::Coord c);

  // Best admissible position for a w x h slice under `policy`, or a
  // zero-area rect when none exists.
  topo::SubmeshRect FindSlot(int w, int h, CarvePolicy policy) const;

  void Allocate(int owner, const topo::SubmeshRect& rect);
  void Release(int owner);
  // Shrinks `owner`'s allocation to `rect` (a sub-rect of the current one),
  // freeing the complement — an elastic shrink returns the rest of the
  // slice to the pool.
  void ShrinkTo(int owner, const topo::SubmeshRect& rect);

  // Bumped whenever cells return to the free pool (Release, ShrinkTo): a
  // w x h that found no slot keeps finding none while it stands still.
  std::uint64_t free_epoch() const { return free_epoch_; }

  bool allocated(int owner) const { return allocations_.count(owner) != 0; }
  const std::map<int, topo::SubmeshRect>& allocations() const {
    return allocations_;
  }
  int total_chips() const { return size_x_ * size_y_; }
  int busy_chips() const;
  int unusable_chips() const;
  // Free *and usable* chips.
  int free_chips() const;

  // Distinct owners with at least one chip in `rect`, ascending.
  std::vector<int> OwnersIn(const topo::SubmeshRect& rect) const;

  // Largest free-and-usable rectangle (maximal-rectangle histogram scan;
  // ignores the link-level rect filter). The fragmentation probe:
  //   fragmentation = 1 - largest_free_rect / free_chips   (0 when empty).
  topo::SubmeshRect LargestFreeRect() const;
  double Fragmentation() const;

  // Priority preemption: a position for w x h whose occupants are all
  // `preemptable`, minimizing (victim count, then victim chips, then scan
  // order). Only admissible positions (usable cells + rect filter) qualify.
  struct PreemptionPlan {
    bool found = false;
    topo::SubmeshRect rect;
    std::vector<int> victims;  // ascending owner ids
  };
  PreemptionPlan FindPreemption(
      int w, int h, const std::function<bool(int)>& preemptable) const;

  // Defragmentation: a position for w x h that becomes admissible after
  // relocating its current occupants elsewhere (each at its present shape).
  // Returns the position plus the relocation moves, or found=false. The
  // caller prices the moves (checkpoint-write + restore per victim) and
  // decides whether to execute.
  struct MigrationPlan {
    bool found = false;
    topo::SubmeshRect rect;
    std::vector<std::pair<int, topo::SubmeshRect>> moves;  // owner -> new
  };
  MigrationPlan FindMigration(int w, int h) const;

 private:
  int CellIndex(int x, int y) const { return y * size_x_ + x; }
  bool InBounds(int w, int h, int x0, int y0) const {
    return x0 >= 0 && y0 >= 0 && x0 + w <= size_x_ && y0 + h <= size_y_;
  }
  // All cells free (no owner) and usable, over an explicit owner grid.
  bool CellsFree(const std::vector<int>& owner,
                 const topo::SubmeshRect& rect) const;
  bool Admissible(const std::vector<int>& owner,
                  const topo::SubmeshRect& rect) const;
  // Boundary contact score for best-fit corner packing.
  int ContactScore(const topo::SubmeshRect& rect) const;

  int size_x_;
  int size_y_;
  std::vector<int> owner_;       // -1 = free
  std::vector<char> unusable_;   // 1 = permanently dead chip
  std::map<int, topo::SubmeshRect> allocations_;
  RectFilter filter_;
  std::uint64_t free_epoch_ = 0;
};

}  // namespace tpu::cluster
