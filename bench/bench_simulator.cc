// Wall-clock performance of the simulator itself (google-benchmark): event
// throughput of the discrete-event core and end-to-end simulation rates for
// the collective schedules, so regressions in the simulator's own speed are
// visible.
//
// BM_EventQueueThroughput measures the bare queue (capture-less callbacks);
// BM_EventQueueThroughputCapturing is the realistic case — callbacks carry
// ring-collective-sized captures, which is where per-event allocation cost
// shows up. BM_PlannerSearch times a full FindBestPlan (closed-form ranking
// plus discrete-event re-pricing of the top k), and BM_ScalingSweep times a
// 4-point scaling sweep.
//
// --smoke (or TPU_BENCH_SMOKE=1) restricts the run to the cheap variant of
// each benchmark so CI can record a BENCH_SIMULATOR.json artifact in seconds.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "collectives/all_reduce.h"
#include "core/multipod.h"
#include "core/sweep.h"
#include "network/network.h"
#include "plan/planner.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace {

using namespace tpu;

void BM_EventQueueThroughput(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < events; ++i) {
      simulator.Schedule(static_cast<double>(i % 97) * 1e-6, [] {});
    }
    simulator.Run();
    benchmark::DoNotOptimize(simulator.now());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1 << 14)->Arg(1 << 17);

void BM_EventQueueThroughputCapturing(benchmark::State& state) {
  // Captures sized like a real completion callback (a few pointers, a range,
  // a tag): large enough to defeat std::function's small-object buffer, so
  // this variant exposes per-event allocation cost that the capture-less
  // benchmark hides.
  const int events = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  double payload[3] = {1.0, 2.0, 3.0};
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < events; ++i) {
      std::uint64_t* out = &sink;
      double* data = payload;
      const std::int64_t begin = i;
      const std::int64_t end = i + 3;
      const int tag = i % 5;
      simulator.Schedule(static_cast<double>(i % 97) * 1e-6,
                         [out, data, begin, end, tag] {
                           *out += static_cast<std::uint64_t>(
                               data[tag % 3] + static_cast<double>(end - begin));
                         });
    }
    simulator.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueThroughputCapturing)->Arg(1 << 14)->Arg(1 << 17);

void BM_TwoDSummationSimulation(benchmark::State& state) {
  const int pods = static_cast<int>(state.range(0));
  for (auto _ : state) {
    topo::MeshTopology topo(topo::TopologyConfig::Multipod(pods));
    sim::Simulator simulator;
    net::Network network(&topo, net::NetworkConfig{}, &simulator);
    coll::GradientSummationConfig config;
    config.elems = 25'600'000;
    const auto result = coll::TwoDGradientSummation(network, config);
    benchmark::DoNotOptimize(result.reduce_seconds);
    state.counters["sim_events"] =
        static_cast<double>(simulator.events_processed());
    state.counters["sim_ms"] = ToMillis(result.total());
  }
  state.SetLabel("chips=" + std::to_string(pods * 1024));
}
BENCHMARK(BM_TwoDSummationSimulation)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FunctionalAllReduce(benchmark::State& state) {
  // Data-carrying collective on a small mesh: the price of verification.
  const std::int64_t elems = state.range(0);
  for (auto _ : state) {
    topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, true));
    sim::Simulator simulator;
    net::Network network(&topo, net::NetworkConfig{}, &simulator);
    std::vector<std::vector<float>> buffers(topo.num_chips(),
                                            std::vector<float>(elems, 1.0f));
    std::vector<float*> ptrs;
    for (auto& b : buffers) ptrs.push_back(b.data());
    coll::GradientSummationConfig config;
    config.elems = elems;
    coll::TwoDGradientSummation(network, config, ptrs);
    benchmark::DoNotOptimize(buffers[0][0]);
  }
  state.SetItemsProcessed(state.iterations() * elems * 16);
}
BENCHMARK(BM_FunctionalAllReduce)->Arg(1 << 12)->Arg(1 << 16)->Unit(benchmark::kMillisecond);

void BM_PlannerSearch(benchmark::State& state) {
  // Full plan search on a pod slice: closed-form ranking of every candidate,
  // then exact discrete-event re-pricing of the top k. No cache, so each
  // iteration pays the whole search — this is the latency a mid-training
  // replan would see.
  const int chips = static_cast<int>(state.range(0));
  const topo::MeshTopology topo(core::TopologyForChips(chips));
  for (auto _ : state) {
    plan::PlanRequest request;
    request.elems = 4'000'000;
    request.des_top_k = 3;
    const auto result =
        plan::FindBestPlan(topo, net::NetworkConfig{}, request);
    benchmark::DoNotOptimize(result.predicted_seconds);
    state.counters["sim_ms"] = ToMillis(result.predicted_seconds);
  }
  state.SetLabel("chips=" + std::to_string(chips));
}
BENCHMARK(BM_PlannerSearch)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_ScalingSweep(benchmark::State& state) {
  // 4-point ResNet scaling sweep, run point after point.
  for (auto _ : state) {
    core::SweepConfig config;
    config.benchmark = models::Benchmark::kResNet50;
    config.chip_counts = {16, 32, 64, 128};
    config.batch_for = [](int chips) { return 256LL * chips; };
    const auto points = core::RunScalingSweep(config);
    benchmark::DoNotOptimize(points.back().step.step());
    state.counters["sim_ms"] = ToMillis(points.back().step.step());
  }
}
// The argument is unused; it keeps the row's name, BM_ScalingSweep/1, which
// the committed smoke baseline records.
BENCHMARK(BM_ScalingSweep)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Init();  // parses --smoke/--trace/--metrics before benchmark flags
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    // bench_util's flags are not google-benchmark flags; strip them.
    if (std::strncmp(argv[i], "--smoke", 7) == 0 ||
        std::strncmp(argv[i], "--trace=", 8) == 0 ||
        std::strncmp(argv[i], "--metrics", 9) == 0 ||
        std::strncmp(argv[i], "--json=", 7) == 0) {
      continue;
    }
    args.push_back(argv[i]);
  }
  // Smoke mode: one cheap variant per benchmark, short repetitions — enough
  // for CI to spot order-of-magnitude regressions in seconds.
  std::string filter =
      "--benchmark_filter=BM_EventQueueThroughput(Capturing)?/16384|"
      "BM_TwoDSummationSimulation/1|BM_FunctionalAllReduce/4096|"
      "BM_PlannerSearch/64|BM_ScalingSweep";
  std::string min_time = "--benchmark_min_time=0.05";
  if (bench::Smoke()) {
    args.push_back(filter.data());
    args.push_back(min_time.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
