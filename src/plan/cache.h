// Memoized plan search results.
//
// A training run re-plans the same collective every step; the search (a
// candidate sweep plus up to top-K discrete-event evaluations) is worth running
// once per distinct situation. The cache key captures everything the search
// depends on: topology shape, payload element count, model-parallel stride,
// wire/direction/chunk allowances, search depth, and the link-health set —
// so a fault detection (which changes link health) misses the cache and
// triggers a fresh search instead of reusing a now-stalled schedule.
// Hit/miss counters land in trace::MetricsRegistry when one is installed.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/units.h"
#include "plan/plan_ir.h"
#include "topology/topology.h"

namespace tpu::plan {

// "128x32|e336000000|s1|bf1|bd1|c1|k3" plus the health fragment when links
// are failed or degraded.
std::string PlanCacheKey(const topo::MeshTopology& topo,
                         const PlanRequest& request,
                         const LinkHealthSet& health);

class PlanCache {
 public:
  struct Entry {
    CollectivePlan plan;
    SimTime predicted_seconds = 0;  // DES-evaluated time of the winner
    SimTime estimated_seconds = 0;  // its closed-form estimate
  };

  // Returns the cached entry or nullptr; counts a hit or miss either way
  // (also onto the "plan.cache.hit"/"plan.cache.miss" metrics counters).
  const Entry* Lookup(const std::string& key);
  void Insert(std::string key, Entry entry);

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::size_t size() const { return entries_.size(); }
  void Clear();

 private:
  std::map<std::string, Entry> entries_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace tpu::plan
