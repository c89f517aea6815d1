#include <gtest/gtest.h>

#include <sstream>

#include "core/sweep.h"

namespace tpu::core {
namespace {

SweepConfig SmallSweep() {
  SweepConfig config;
  config.benchmark = models::Benchmark::kResNet50;
  config.chip_counts = {16, 64};
  config.batch_for = [](int chips) { return 256LL * chips; };
  return config;
}

TEST(Sweep, RunsEveryRequestedScale) {
  const auto points = RunScalingSweep(SmallSweep());
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].chips, 16);
  EXPECT_EQ(points[1].chips, 64);
  EXPECT_EQ(points[0].global_batch, 4096);
  EXPECT_GT(points[0].step.step(), 0);
  EXPECT_GT(points[1].run.minutes(), 0);
  EXPECT_LT(points[1].run.minutes(), points[0].run.minutes());
}

TEST(Sweep, CsvHasHeaderAndOneRowPerPoint) {
  const auto points = RunScalingSweep(SmallSweep());
  std::ostringstream os;
  WriteSweepCsv(os, points);
  const std::string csv = os.str();
  int newlines = 0;
  for (char c : csv) newlines += c == '\n';
  EXPECT_EQ(newlines, 3);  // header + 2 rows
  EXPECT_EQ(csv.rfind("chips,batch,mp,", 0), 0u);
  // Every row has 14 columns.
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    int commas = 0;
    for (char c : line) commas += c == ',';
    EXPECT_EQ(commas, 13) << line;
  }
}

TEST(Sweep, SpeedupsStartAtOneAndGrow) {
  const auto points = RunScalingSweep(SmallSweep());
  const auto speedups = SpeedupsRelativeToFirst(points);
  ASSERT_EQ(speedups.size(), 2u);
  EXPECT_DOUBLE_EQ(speedups[0].end_to_end, 1.0);
  EXPECT_DOUBLE_EQ(speedups[0].throughput, 1.0);
  EXPECT_GT(speedups[1].end_to_end, 1.0);
  EXPECT_GT(speedups[1].throughput, 1.0);
  // Throughput tracks ideal more closely than end-to-end (Figure 5 shape).
  EXPECT_GE(speedups[1].throughput, speedups[1].end_to_end);
}

TEST(Sweep, EmptySweepDies) {
  SweepConfig config = SmallSweep();
  config.chip_counts.clear();
  EXPECT_DEATH((void)RunScalingSweep(config), "chip_counts");
}

}  // namespace
}  // namespace tpu::core
