#include "core/sweep.h"

#include "common/check.h"

namespace tpu::core {
namespace {

SweepPoint RunSweepPoint(const SweepConfig& config, int chips) {
  MultipodSystem system(chips, config.options);
  SweepPoint point;
  point.chips = chips;
  point.global_batch = config.batch_for(chips);
  point.model_parallel_cores = config.model_parallel_cores;
  point.run = system.SimulateTraining(config.benchmark, point.global_batch,
                                      config.model_parallel_cores,
                                      config.framework);
  point.step = point.run.step;
  return point;
}

}  // namespace

std::vector<SweepPoint> RunScalingSweep(const SweepConfig& config) {
  TPU_CHECK(!config.chip_counts.empty());
  TPU_CHECK(config.batch_for != nullptr);
  std::vector<SweepPoint> points;
  points.reserve(config.chip_counts.size());
  for (const int chips : config.chip_counts) {
    points.push_back(RunSweepPoint(config, chips));
  }
  return points;
}

void WriteSweepCsv(std::ostream& os, const std::vector<SweepPoint>& points) {
  os << "chips,batch,mp,compute_ms,allreduce_ms,weight_update_ms,"
        "embedding_ms,step_ms,allreduce_frac,steps,epochs,train_s,eval_s,"
        "minutes\n";
  for (const SweepPoint& p : points) {
    os << p.chips << "," << p.global_batch << "," << p.model_parallel_cores
       << "," << ToMillis(p.step.compute) << "," << ToMillis(p.step.allreduce)
       << "," << ToMillis(p.step.weight_update) << ","
       << ToMillis(p.step.embedding_comm) << "," << ToMillis(p.step.step())
       << "," << p.step.allreduce_fraction() << "," << p.run.steps << ","
       << p.run.epochs << "," << p.run.train_seconds << ","
       << p.run.eval_seconds << "," << p.run.minutes() << "\n";
  }
}

std::vector<SpeedupRow> SpeedupsRelativeToFirst(
    const std::vector<SweepPoint>& points) {
  std::vector<SpeedupRow> rows;
  if (points.empty()) return rows;
  const double base_minutes = points.front().run.minutes();
  const double base_throughput =
      static_cast<double>(points.front().global_batch) /
      points.front().step.step();
  for (const SweepPoint& p : points) {
    SpeedupRow row;
    row.chips = p.chips;
    row.end_to_end = base_minutes / p.run.minutes();
    row.throughput =
        (static_cast<double>(p.global_batch) / p.step.step()) /
        base_throughput;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace tpu::core
