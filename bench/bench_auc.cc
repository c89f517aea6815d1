// Section 4.6: the custom AUC implementation. The paper replaced a ~60 s
// Python metric with a ~2 s C++ one (multithreaded sorting + loop fusion)
// over 90M samples. This is a *wall-clock* benchmark (google-benchmark):
// naive library-shaped implementation vs the multithreaded fused one, plus
// the full 90M-sample measurement printed once.
//
// --smoke (or TPU_BENCH_SMOKE=1) runs only the 1M-sample variants, briefly,
// and the headline measurement on 1M samples.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "metrics/auc.h"

namespace {

using namespace tpu;

struct Dataset {
  std::vector<float> scores;
  std::vector<std::uint8_t> labels;
};

Dataset MakeDataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.scores.resize(n);
  data.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = rng.NextDouble() < 0.25;  // pCTR-like imbalance
    data.labels[i] = positive;
    data.scores[i] =
        static_cast<float>(rng.NextGaussian() + (positive ? 0.7 : 0.0));
  }
  return data;
}

void BM_AucNaive(benchmark::State& state) {
  const Dataset data = MakeDataset(state.range(0), 11);
  double auc = 0;
  for (auto _ : state) {
    auc = metrics::AucNaive(data.scores, data.labels);
    benchmark::DoNotOptimize(auc);
  }
  state.counters["auc"] = auc;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_AucFast(benchmark::State& state) {
  const Dataset data = MakeDataset(state.range(0), 11);
  ThreadPool pool(std::thread::hardware_concurrency());
  double auc = 0;
  for (auto _ : state) {
    auc = metrics::AucFast(data.scores, data.labels, pool);
    benchmark::DoNotOptimize(auc);
  }
  state.counters["auc"] = auc;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_AucNaive)->Arg(1 << 20)->Arg(1 << 23)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AucFast)->Arg(1 << 20)->Arg(1 << 23)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Init();  // rejects unknown flags, parses --smoke
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
  std::string filter = "--benchmark_filter=BM_Auc(Naive|Fast)/1048576";
  std::string min_time = "--benchmark_min_time=0.05";
  if (bench::Smoke()) {
    args.push_back(filter.data());
    args.push_back(min_time.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The paper's headline measurement: one 90M-sample AUC.
  const std::size_t samples = bench::Smoke() ? 1'000'000 : 90'000'000;
  std::printf("\n%zuM-sample AUC (Section 4.6; paper, at 90M: ~60 s library "
              "vs ~2 s custom C++):\n",
              samples / 1'000'000);
  std::printf("  hardware threads available: %u (parallel speedup requires "
              ">1)\n", std::thread::hardware_concurrency());
  const Dataset data = MakeDataset(samples, 17);
  ThreadPool pool(std::thread::hardware_concurrency());
  const auto t0 = std::chrono::steady_clock::now();
  const double fast = metrics::AucFast(data.scores, data.labels, pool);
  const auto t1 = std::chrono::steady_clock::now();
  const double naive = metrics::AucNaive(data.scores, data.labels);
  const auto t2 = std::chrono::steady_clock::now();
  const double fast_s = std::chrono::duration<double>(t1 - t0).count();
  const double naive_s = std::chrono::duration<double>(t2 - t1).count();
  std::printf("  fast (multithreaded, fused): %.2f s  auc=%.6f\n", fast_s,
              fast);
  std::printf("  naive (single-thread, staged): %.2f s  auc=%.6f\n", naive_s,
              naive);
  std::printf("  speedup: %.1fx, results agree to %.1e\n",
              naive_s / fast_s, std::abs(fast - naive));
  return 0;
}
