// Chunk-pipelined 2-D gradient summation: functional correctness (identical
// sums) and the timing property that motivates it (overlapping the Y and X
// phases beats the sequential schedule).
#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "collectives/all_reduce.h"
#include "common/rng.h"
#include "network/network.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "trace/trace.h"

namespace tpu::coll {
namespace {

struct Rig {
  topo::MeshTopology topo;
  sim::Simulator simulator;
  net::Network network;
  std::vector<std::vector<float>> buffers;
  std::vector<float> expected;
  std::vector<float*> ptrs;

  Rig(int size_x, int size_y, std::int64_t elems, std::uint64_t seed)
      : topo(topo::TopologyConfig::Slice(size_x, size_y, true)),
        network(&topo, net::NetworkConfig{}, &simulator) {
    Rng rng(seed);
    buffers.resize(topo.num_chips());
    expected.assign(elems, 0.0f);
    for (auto& buffer : buffers) {
      buffer.resize(elems);
      for (auto& v : buffer) v = static_cast<float>(rng.NextBounded(8));
      for (std::int64_t i = 0; i < elems; ++i) expected[i] += buffer[i];
      ptrs.push_back(buffer.data());
    }
  }
};

class PipelinedCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(PipelinedCorrectness, SumsMatchEverywhere) {
  const int chunks = GetParam();
  Rig rig(4, 4, /*elems=*/509, 77);  // prime size stresses slicing
  GradientSummationConfig config;
  config.elems = 509;
  const SimTime elapsed =
      PipelinedTwoDGradientSummation(rig.network, config, chunks, rig.ptrs);
  EXPECT_GT(elapsed, 0.0);
  for (int chip = 0; chip < rig.topo.num_chips(); ++chip) {
    for (std::int64_t i = 0; i < 509; ++i) {
      ASSERT_EQ(rig.buffers[chip][i], rig.expected[i])
          << "chunks=" << chunks << " chip=" << chip << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, PipelinedCorrectness,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(Pipelined, WithModelParallelStride) {
  Rig rig(8, 4, /*elems=*/128, 78);
  GradientSummationConfig config;
  config.elems = 128;
  config.model_parallel_stride = 2;
  PipelinedTwoDGradientSummation(rig.network, config, 4, rig.ptrs);
  // Every member of a model-parallel peer group must end with the same sums.
  for (int chip = 0; chip < rig.topo.num_chips(); ++chip) {
    const int parity = rig.topo.CoordOf(chip).x % 2;
    for (int other = chip + 1; other < rig.topo.num_chips(); ++other) {
      if (rig.topo.CoordOf(other).x % 2 != parity) continue;
      for (std::int64_t i = 0; i < 128; ++i) {
        ASSERT_EQ(rig.buffers[chip][i], rig.buffers[other][i]);
      }
    }
  }
}

// Every strided X ring of every slice carries its own trace label: slice
// index, row and model-parallel group.
TEST(Pipelined, StridedRingsHaveDistinctTraceLabels) {
  Rig rig(8, 4, 1, 1);
  GradientSummationConfig config;
  config.elems = 4096;
  config.model_parallel_stride = 2;
  // Mono rings: one spec per group, so each label names exactly one ring.
  config.collective.bidirectional = false;
  trace::TraceRecorder recorder;
  {
    trace::ScopedTrace scoped(&recorder);
    PipelinedTwoDGradientSummation(rig.network, config, 2);
  }
  std::map<std::string, int> x_rings;  // ring span name -> occurrences
  std::istringstream lines(recorder.ToJson());
  const std::regex x_ring_begin(R"re("ph":"b".*"name":"(X [^"]*)")re");
  for (std::string line; std::getline(lines, line);) {
    std::smatch match;
    if (std::regex_search(line, match, x_ring_begin)) ++x_rings[match[1]];
  }
  // 2 slices x 4 rows x 2 groups, each reduce-scattered and all-gathered.
  EXPECT_EQ(x_rings.size(), 2u * 4 * 2 * 2);
  for (const auto& [name, count] : x_rings) EXPECT_EQ(count, 1) << name;
  EXPECT_EQ(x_rings.count("X s0 y=0 g0 reduce-scatter"), 1u);
  EXPECT_EQ(x_rings.count("X s1 y=3 g1 all-gather"), 1u);
}

TEST(Pipelined, OverlapWinsWhenBandwidthBound) {
  // Big payload: the Y/X phases are serialization-dominated and overlapping
  // them helps.
  const std::int64_t elems = 1 << 23;
  GradientSummationConfig config;
  config.elems = elems;

  Rig sequential(16, 8, 1, 1);
  const SimTime seq =
      TwoDGradientSummation(sequential.network, config).total();

  Rig pipelined(16, 8, 1, 1);
  const SimTime pipe =
      PipelinedTwoDGradientSummation(pipelined.network, config, 4);
  EXPECT_LT(pipe, seq);
  EXPECT_GT(pipe, seq * 0.5);  // gains are bounded by the dominant Y phase
}

TEST(Pipelined, OverlapLosesWhenLatencyBound) {
  // Tiny payload: chunking multiplies the per-step latency/overhead terms
  // without meaningful overlap — the tradeoff that keeps the sequential
  // schedule the default.
  const std::int64_t elems = 1 << 14;
  GradientSummationConfig config;
  config.elems = elems;
  Rig sequential(16, 8, 1, 1);
  const SimTime seq =
      TwoDGradientSummation(sequential.network, config).total();
  Rig pipelined(16, 8, 1, 1);
  const SimTime pipe =
      PipelinedTwoDGradientSummation(pipelined.network, config, 8);
  EXPECT_GT(pipe, seq);
}

TEST(Pipelined, OneChunkApproximatesSequential) {
  const std::int64_t elems = 1 << 15;
  GradientSummationConfig config;
  config.elems = elems;
  Rig a(8, 8, 1, 1), b(8, 8, 1, 1);
  const SimTime seq = TwoDGradientSummation(a.network, config).total();
  const SimTime pipe = PipelinedTwoDGradientSummation(b.network, config, 1);
  EXPECT_NEAR(pipe, seq, seq * 0.05);
}

TEST(Pipelined, WeightUpdateHookRuns) {
  Rig rig(4, 4, 1, 1);
  GradientSummationConfig config;
  config.elems = 4096;
  int calls = 0;
  config.shard_update_seconds = [&](std::int64_t owned) {
    ++calls;
    return Micros(1.0) * static_cast<double>(owned);
  };
  PipelinedTwoDGradientSummation(rig.network, config, 4);
  // Hook runs once per chip per chunk.
  EXPECT_EQ(calls, 16 * 4);
}

}  // namespace
}  // namespace tpu::coll
