// Per-step phase profiling: decomposes each training step into its named
// phases and prints a breakdown table.
//
// This is the table the paper's engineers read off the TPU profiler when
// deciding what to optimize next: which phase dominates step time, and how
// that changes with scale. MultipodSystem::SimulateStep fills one profiler
// step per simulated step; callers print the accumulated table (or feed
// several scales into one profiler and compare).
//
// Phases are keyed by name; there is no fixed taxonomy here. SimulateStep
// records the same phase list it puts in RunReport::phases: forward,
// backward, the summation's lowered stages ("Y-reduce-scatter", ...) with
// "sharded-update" after the update stage, then "embedding-comm".
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/units.h"

namespace tpu::trace {

class StepProfiler {
 public:
  // Starts a new step; phases recorded until EndStep belong to it.
  void BeginStep(std::string label = "");
  // Adds `seconds` to `phase` of the current step (implicit BeginStep if
  // none is open). Phases may be recorded in any order and repeatedly.
  void Record(const std::string& phase, SimTime seconds);
  void EndStep();

  int steps() const { return static_cast<int>(steps_.size()); }
  // Every phase name recorded so far, in first-seen order.
  const std::vector<std::string>& phases() const { return names_; }
  // Total over all finished steps; 0 for a phase never recorded.
  SimTime Total(const std::string& phase) const;
  SimTime TotalStep() const;
  // Phase seconds of one finished step.
  SimTime StepSeconds(int step, const std::string& phase) const;

  // Breakdown table in first-seen order: per phase, total ms, mean ms/step
  // and % of step time.
  void WriteTable(std::ostream& out) const;

 private:
  struct Step {
    std::string label;
    std::vector<SimTime> seconds;  // by phase index; absent means 0
  };
  // Index of `phase` in names_, or -1.
  int Find(const std::string& phase) const;

  std::vector<std::string> names_;
  std::vector<Step> steps_;
  bool open_ = false;
};

}  // namespace tpu::trace
