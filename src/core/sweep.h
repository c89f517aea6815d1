// Scaling-sweep driver + CSV export: the programmatic form of the paper's
// figures, for downstream plotting. Each sweep point runs the full step
// simulation and MLPerf end-to-end estimate at one (chips, batch) setting.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/multipod.h"

namespace tpu::core {

struct SweepPoint {
  int chips = 0;
  std::int64_t global_batch = 0;
  int model_parallel_cores = 1;
  StepBreakdown step;
  EndToEndResult run;
};

struct SweepConfig {
  models::Benchmark benchmark = models::Benchmark::kResNet50;
  std::vector<int> chip_counts;
  // Batch at each scale (e.g. the Figure 5/7 schedules).
  std::function<std::int64_t(int chips)> batch_for;
  int model_parallel_cores = 1;
  frameworks::Framework framework = frameworks::Framework::kJax;
  SystemOptions options;
};

// Runs the sweep's points in chip_counts order, one after another.
std::vector<SweepPoint> RunScalingSweep(const SweepConfig& config);

// Writes the sweep as CSV with a fixed column schema:
// chips,batch,mp,compute_ms,allreduce_ms,weight_update_ms,embedding_ms,
// step_ms,allreduce_frac,steps,epochs,train_s,eval_s,minutes
void WriteSweepCsv(std::ostream& os, const std::vector<SweepPoint>& points);

// Derived columns for speedup plots: end-to-end and throughput speedups
// relative to the first point.
struct SpeedupRow {
  int chips = 0;
  double end_to_end = 1.0;
  double throughput = 1.0;
};
std::vector<SpeedupRow> SpeedupsRelativeToFirst(
    const std::vector<SweepPoint>& points);

}  // namespace tpu::core
