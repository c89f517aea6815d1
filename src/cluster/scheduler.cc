#include "cluster/scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace tpu::cluster {

const char* CarvePolicyName(CarvePolicy policy) {
  switch (policy) {
    case CarvePolicy::kFirstFit:
      return "first-fit";
    case CarvePolicy::kBestFit:
      return "best-fit";
    case CarvePolicy::kBackfill:
      return "backfill";
  }
  return "unknown";
}

SliceScheduler::SliceScheduler(int size_x, int size_y)
    : size_x_(size_x),
      size_y_(size_y),
      owner_(static_cast<std::size_t>(size_x * size_y), -1),
      unusable_(static_cast<std::size_t>(size_x * size_y), 0) {
  TPU_CHECK_GT(size_x, 0);
  TPU_CHECK_GT(size_y, 0);
}

void SliceScheduler::MarkUnusable(topo::Coord c) {
  TPU_CHECK_GE(c.x, 0);
  TPU_CHECK_LT(c.x, size_x_);
  TPU_CHECK_GE(c.y, 0);
  TPU_CHECK_LT(c.y, size_y_);
  unusable_[CellIndex(c.x, c.y)] = 1;
}

bool SliceScheduler::CellsFree(const std::vector<int>& owner,
                               const topo::SubmeshRect& rect) const {
  for (int y = rect.y0; y < rect.y0 + rect.size_y; ++y) {
    for (int x = rect.x0; x < rect.x0 + rect.size_x; ++x) {
      const int cell = CellIndex(x, y);
      if (owner[cell] != -1 || unusable_[cell]) return false;
    }
  }
  return true;
}

bool SliceScheduler::Admissible(const std::vector<int>& owner,
                                const topo::SubmeshRect& rect) const {
  return CellsFree(owner, rect) && (filter_ == nullptr || filter_(rect));
}

int SliceScheduler::ContactScore(const topo::SubmeshRect& rect) const {
  // One point per chip-side on the rect boundary that faces a border cell,
  // a dead chip or an allocated chip. A snug corner placement scores its
  // whole touching perimeter; a free-floating one scores zero.
  const auto blocked = [&](int x, int y) {
    if (x < 0 || x >= size_x_ || y < 0 || y >= size_y_) return true;
    const int cell = CellIndex(x, y);
    return owner_[cell] != -1 || unusable_[cell] != 0;
  };
  int score = 0;
  for (int x = rect.x0; x < rect.x0 + rect.size_x; ++x) {
    score += blocked(x, rect.y0 - 1) ? 1 : 0;
    score += blocked(x, rect.y0 + rect.size_y) ? 1 : 0;
  }
  for (int y = rect.y0; y < rect.y0 + rect.size_y; ++y) {
    score += blocked(rect.x0 - 1, y) ? 1 : 0;
    score += blocked(rect.x0 + rect.size_x, y) ? 1 : 0;
  }
  return score;
}

topo::SubmeshRect SliceScheduler::FindSlot(int w, int h,
                                           CarvePolicy policy) const {
  TPU_CHECK_GT(w, 0);
  TPU_CHECK_GT(h, 0);
  topo::SubmeshRect best;
  int best_score = -1;
  for (int y0 = 0; y0 + h <= size_y_; ++y0) {
    for (int x0 = 0; x0 + w <= size_x_; ++x0) {
      const topo::SubmeshRect rect{x0, y0, w, h};
      if (!Admissible(owner_, rect)) continue;
      if (policy != CarvePolicy::kBestFit) return rect;
      const int score = ContactScore(rect);
      if (score > best_score) {
        best_score = score;
        best = rect;
      }
    }
  }
  return best;
}

void SliceScheduler::Allocate(int owner, const topo::SubmeshRect& rect) {
  TPU_CHECK_GE(owner, 0);
  TPU_CHECK(!allocated(owner));
  TPU_CHECK(InBounds(rect.size_x, rect.size_y, rect.x0, rect.y0));
  for (int y = rect.y0; y < rect.y0 + rect.size_y; ++y) {
    for (int x = rect.x0; x < rect.x0 + rect.size_x; ++x) {
      const int cell = CellIndex(x, y);
      TPU_CHECK_EQ(owner_[cell], -1);
      owner_[cell] = owner;
    }
  }
  allocations_[owner] = rect;
}

void SliceScheduler::Release(int owner) {
  const auto it = allocations_.find(owner);
  TPU_CHECK(it != allocations_.end());
  const topo::SubmeshRect rect = it->second;
  for (int y = rect.y0; y < rect.y0 + rect.size_y; ++y) {
    for (int x = rect.x0; x < rect.x0 + rect.size_x; ++x) {
      owner_[CellIndex(x, y)] = -1;
    }
  }
  allocations_.erase(it);
  ++free_epoch_;
}

void SliceScheduler::ShrinkTo(int owner, const topo::SubmeshRect& rect) {
  const auto it = allocations_.find(owner);
  TPU_CHECK(it != allocations_.end());
  TPU_CHECK(it->second.Contains(rect));
  const topo::SubmeshRect old = it->second;
  for (int y = old.y0; y < old.y0 + old.size_y; ++y) {
    for (int x = old.x0; x < old.x0 + old.size_x; ++x) {
      if (!rect.Contains(topo::Coord{x, y})) owner_[CellIndex(x, y)] = -1;
    }
  }
  it->second = rect;
  ++free_epoch_;
}

int SliceScheduler::busy_chips() const {
  int busy = 0;
  for (const auto& [owner, rect] : allocations_) busy += rect.chips();
  return busy;
}

int SliceScheduler::unusable_chips() const {
  int count = 0;
  for (const char dead : unusable_) count += dead != 0 ? 1 : 0;
  return count;
}

int SliceScheduler::free_chips() const {
  int free = 0;
  for (std::size_t cell = 0; cell < owner_.size(); ++cell) {
    free += owner_[cell] == -1 && !unusable_[cell] ? 1 : 0;
  }
  return free;
}

std::vector<int> SliceScheduler::OwnersIn(const topo::SubmeshRect& rect) const {
  std::vector<int> owners;
  for (int y = rect.y0; y < rect.y0 + rect.size_y; ++y) {
    for (int x = rect.x0; x < rect.x0 + rect.size_x; ++x) {
      const int owner = owner_[CellIndex(x, y)];
      if (owner != -1) owners.push_back(owner);
    }
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  return owners;
}

topo::SubmeshRect SliceScheduler::LargestFreeRect() const {
  // Maximal rectangle over the free-and-usable mask, histogram-stack form
  // (the same algorithm as topo::LargestHealthySubmesh, over occupancy
  // instead of dead chips).
  topo::SubmeshRect best;
  std::vector<int> height(static_cast<std::size_t>(size_x_), 0);
  for (int y = 0; y < size_y_; ++y) {
    for (int x = 0; x < size_x_; ++x) {
      const int cell = CellIndex(x, y);
      height[x] = owner_[cell] == -1 && !unusable_[cell] ? height[x] + 1 : 0;
    }
    // For each column, the widest span where every height >= height[x].
    for (int x = 0; x < size_x_; ++x) {
      if (height[x] == 0) continue;
      int left = x;
      while (left > 0 && height[left - 1] >= height[x]) --left;
      int right = x;
      while (right + 1 < size_x_ && height[right + 1] >= height[x]) ++right;
      const int area = (right - left + 1) * height[x];
      if (area > best.chips()) {
        best = {left, y - height[x] + 1, right - left + 1, height[x]};
      }
    }
  }
  return best;
}

double SliceScheduler::Fragmentation() const {
  const int free = free_chips();
  if (free == 0) return 0.0;
  return 1.0 - static_cast<double>(LargestFreeRect().chips()) / free;
}

SliceScheduler::PreemptionPlan SliceScheduler::FindPreemption(
    int w, int h, const std::function<bool(int)>& preemptable) const {
  PreemptionPlan best;
  int best_victims = 0;
  int best_victim_chips = 0;
  for (int y0 = 0; y0 + h <= size_y_; ++y0) {
    for (int x0 = 0; x0 + w <= size_x_; ++x0) {
      const topo::SubmeshRect rect{x0, y0, w, h};
      bool ok = true;
      int victim_chips = 0;
      for (int y = y0; ok && y < y0 + h; ++y) {
        for (int x = x0; x < x0 + w; ++x) {
          const int cell = CellIndex(x, y);
          if (unusable_[cell]) {
            ok = false;
            break;
          }
          const int owner = owner_[cell];
          if (owner == -1) continue;
          if (!preemptable(owner)) {
            ok = false;
            break;
          }
          ++victim_chips;
        }
      }
      if (!ok || (filter_ != nullptr && !filter_(rect))) continue;
      std::vector<int> victims = OwnersIn(rect);
      if (best.found &&
          (victims.size() > static_cast<std::size_t>(best_victims) ||
           (victims.size() == static_cast<std::size_t>(best_victims) &&
            victim_chips >= best_victim_chips))) {
        continue;
      }
      best.found = true;
      best.rect = rect;
      best_victims = static_cast<int>(victims.size());
      best_victim_chips = victim_chips;
      best.victims = std::move(victims);
    }
  }
  return best;
}

SliceScheduler::MigrationPlan SliceScheduler::FindMigration(int w,
                                                            int h) const {
  MigrationPlan plan;
  if (free_chips() < w * h) return plan;
  for (int y0 = 0; y0 + h <= size_y_; ++y0) {
    for (int x0 = 0; x0 + w <= size_x_; ++x0) {
      const topo::SubmeshRect rect{x0, y0, w, h};
      bool usable = true;
      for (int y = y0; usable && y < y0 + h; ++y) {
        for (int x = x0; x < x0 + w; ++x) {
          if (unusable_[CellIndex(x, y)]) {
            usable = false;
            break;
          }
        }
      }
      if (!usable || (filter_ != nullptr && !filter_(rect))) continue;
      const std::vector<int> victims = OwnersIn(rect);
      if (victims.empty()) continue;  // FindSlot would have taken it
      // Relocate every victim on a scratch grid with the candidate rect
      // reserved; victims are placed in ascending-id order, first-fit.
      std::vector<int> scratch = owner_;
      for (const int victim : victims) {
        const topo::SubmeshRect old = allocations_.at(victim);
        for (int y = old.y0; y < old.y0 + old.size_y; ++y) {
          for (int x = old.x0; x < old.x0 + old.size_x; ++x) {
            scratch[CellIndex(x, y)] = -1;
          }
        }
      }
      constexpr int kReserved = -2;
      for (int y = y0; y < y0 + h; ++y) {
        for (int x = x0; x < x0 + w; ++x) scratch[CellIndex(x, y)] = kReserved;
      }
      std::vector<std::pair<int, topo::SubmeshRect>> moves;
      bool all_placed = true;
      for (const int victim : victims) {
        const topo::SubmeshRect old = allocations_.at(victim);
        topo::SubmeshRect placed;
        for (int ny = 0; placed.empty() && ny + old.size_y <= size_y_; ++ny) {
          for (int nx = 0; nx + old.size_x <= size_x_; ++nx) {
            const topo::SubmeshRect cand{nx, ny, old.size_x, old.size_y};
            if (!CellsFree(scratch, cand)) continue;
            if (filter_ != nullptr && !filter_(cand)) continue;
            placed = cand;
            break;
          }
        }
        if (placed.empty()) {
          all_placed = false;
          break;
        }
        for (int y = placed.y0; y < placed.y0 + placed.size_y; ++y) {
          for (int x = placed.x0; x < placed.x0 + placed.size_x; ++x) {
            scratch[CellIndex(x, y)] = victim;
          }
        }
        moves.emplace_back(victim, placed);
      }
      if (!all_placed) continue;
      plan.found = true;
      plan.rect = rect;
      plan.moves = std::move(moves);
      return plan;
    }
  }
  return plan;
}

}  // namespace tpu::cluster
