#include "trace/step_profiler.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace tpu::trace {

int StepProfiler::Find(const std::string& phase) const {
  const auto it = std::find(names_.begin(), names_.end(), phase);
  return it == names_.end() ? -1 : static_cast<int>(it - names_.begin());
}

void StepProfiler::BeginStep(std::string label) {
  TPU_CHECK(!open_) << "BeginStep while a step is already open";
  Step step;
  step.label = std::move(label);
  steps_.push_back(std::move(step));
  open_ = true;
}

void StepProfiler::Record(const std::string& phase, SimTime seconds) {
  TPU_CHECK_GE(seconds, 0.0);
  if (!open_) BeginStep();
  int index = Find(phase);
  if (index < 0) {
    index = static_cast<int>(names_.size());
    names_.push_back(phase);
  }
  std::vector<SimTime>& step = steps_.back().seconds;
  if (static_cast<int>(step.size()) <= index) step.resize(index + 1, 0.0);
  step[index] += seconds;
}

void StepProfiler::EndStep() {
  TPU_CHECK(open_) << "EndStep without BeginStep";
  open_ = false;
}

SimTime StepProfiler::Total(const std::string& phase) const {
  SimTime total = 0;
  for (int step = 0; step < steps(); ++step) total += StepSeconds(step, phase);
  return total;
}

SimTime StepProfiler::TotalStep() const {
  SimTime total = 0;
  for (const std::string& phase : names_) total += Total(phase);
  return total;
}

SimTime StepProfiler::StepSeconds(int step, const std::string& phase) const {
  TPU_CHECK_GE(step, 0);
  TPU_CHECK_LT(step, steps());
  const int index = Find(phase);
  const std::vector<SimTime>& seconds = steps_[step].seconds;
  return index >= 0 && index < static_cast<int>(seconds.size())
             ? seconds[index]
             : 0.0;
}

void StepProfiler::WriteTable(std::ostream& out) const {
  const SimTime total = TotalStep();
  char line[160];
  std::snprintf(line, sizeof(line), "%-18s %12s %12s %7s\n", "phase",
                "total(ms)", "mean(ms)", "%step");
  out << line;
  for (const std::string& phase : names_) {
    const SimTime phase_total = Total(phase);
    if (phase_total <= 0) continue;  // phases that never ran stay silent
    std::snprintf(line, sizeof(line), "%-18s %12.4f %12.4f %6.1f%%\n",
                  phase.c_str(), ToMillis(phase_total),
                  steps() > 0 ? ToMillis(phase_total) / steps() : 0.0,
                  total > 0 ? 100.0 * phase_total / total : 0.0);
    out << line;
  }
  std::snprintf(line, sizeof(line), "%-18s %12.4f %12.4f %6.1f%%\n", "step",
                ToMillis(total), steps() > 0 ? ToMillis(total) / steps() : 0.0,
                100.0);
  out << line;
}

}  // namespace tpu::trace
