// Section 3.5 experiments: host input-pipeline scaling.
//   * ResNet-50: JPEG-decode load imbalance vs the uncompressed-image cache,
//     across host counts and prefetch depths;
//   * BERT: shuffle-stage order and buffer size vs batch bias / coverage
//     (the run-to-run convergence-variance mechanism);
//   * DLRM: batch-granularity parsing, PCIe feature stacking, multi-step
//     on-device eval.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "input/dlrm_input.h"
#include "input/host_pipeline.h"
#include "input/sharded_dataset.h"

int main() {
  using namespace tpu;
  // --smoke (CI): 64 and 256 hosts over 20 steps, and shuffle buffers up to
  // 1000.
  const bool smoke = bench::Smoke();
  const int steps = smoke ? 20 : 100;
  const std::vector<int> host_counts =
      smoke ? std::vector<int>{64, 256} : std::vector<int>{64, 256, 1024};
  const int prefetch_hosts = host_counts.back();
  const std::vector<std::size_t> buffers =
      smoke ? std::vector<std::size_t>{100, 1000}
            : std::vector<std::size_t>{100, 1000, 10000};

  bench::Header("ResNet-50 host pipeline: decode tail vs uncompressed cache",
                "Kumar et al., MLSys 2021, Section 3.5");
  bench::Row("%6s %9s | %12s %12s", "hosts", "cache", "stall frac",
             "worst batch(ms)");
  for (int hosts : host_counts) {
    for (bool cache : {false, true}) {
      input::HostPipelineConfig config;
      config.num_hosts = hosts;
      config.steps = steps;
      config.per_host_batch = 16;
      config.device_step = Millis(2.0);
      config.uncompressed_cache = cache;
      const auto stats = input::SimulateHostPipeline(config, 2026);
      bench::Row("%6d %9s | %11.1f%% %12.2f", hosts,
                 cache ? "uncompr" : "jpeg", 100.0 * stats.stall_fraction,
                 ToMillis(stats.worst_batch_seconds));
    }
  }

  std::printf("\nPrefetch depth (%d hosts, uncompressed cache):\n",
              prefetch_hosts);
  bench::Row("%9s | %12s", "prefetch", "stall frac");
  for (int prefetch : {1, 4, 16, 64}) {
    input::HostPipelineConfig config;
    config.num_hosts = prefetch_hosts;
    config.steps = steps;
    config.per_host_batch = 16;
    config.device_step = Millis(2.0);
    config.uncompressed_cache = true;
    config.prefetch_capacity = prefetch;
    const auto stats = input::SimulateHostPipeline(config, 2027);
    bench::Row("%9d | %11.1f%%", prefetch, 100.0 * stats.stall_fraction);
  }

  bench::Header("BERT shuffling: 500 files on 128 hosts",
                "Kumar et al., MLSys 2021, Sections 3.5 / 4.1");
  bench::Row("%-16s %8s | %9s %10s", "stage order", "buffer", "coverage",
             "batch bias");
  for (auto [order, name] :
       {std::pair{input::StageOrder::kShuffleThenRepeat, "shuffle->repeat"},
        std::pair{input::StageOrder::kRepeatThenShuffle,
                  "repeat->shuffle"}}) {
    for (std::size_t buffer : buffers) {
      input::BertShuffleConfig config;  // 500 files, 128 hosts
      config.order = order;
      config.shuffle_buffer_size = buffer;
      const auto stats = input::MeasureBertShuffle(config, 3, 7);
      bench::Row("%-16s %8zu | %9.3f %10.2f", name, buffer,
                 stats.sequence_coverage, stats.batch_bias_ratio);
    }
  }
  std::printf("(bias ~1.0 = as unbiased as true uniform sampling; large\n"
              " values reproduce the run-to-run variance of small buffers)\n");

  bench::Header("DLRM input optimizations",
                "Kumar et al., MLSys 2021, Sections 3.5 / 4.6");
  input::DlrmInputConfig dlrm;
  bench::Row("parse per step:   per-sample %8.3f ms   batch-granularity %8.3f ms (%.1fx)",
             ToMillis(input::DlrmParseSeconds(dlrm, false)),
             ToMillis(input::DlrmParseSeconds(dlrm, true)),
             input::DlrmParseSeconds(dlrm, false) /
                 input::DlrmParseSeconds(dlrm, true));
  bench::Row("PCIe per step:    separate   %8.3f ms   stacked          %8.3f ms (%.1fx)",
             ToMillis(input::DlrmPcieSeconds(dlrm, false)),
             ToMillis(input::DlrmPcieSeconds(dlrm, true)),
             input::DlrmPcieSeconds(dlrm, false) /
                 input::DlrmPcieSeconds(dlrm, true));
  const SimTime eval_1 = input::DlrmEvalSeconds(1400, 1, Micros(400), Millis(2));
  const SimTime eval_100 =
      input::DlrmEvalSeconds(1400, 100, Micros(400), Millis(2));
  bench::Row("eval (1400 steps): 1 step/round-trip %6.2f s   100/round-trip %6.2f s (%.1fx)",
             eval_1, eval_100, eval_1 / eval_100);
  return 0;
}
