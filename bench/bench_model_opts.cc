// Sections 4.5 / 4.6 model-level optimizations:
//   * MaskRCNN: ROIAlign gather as one-hot matmul (MXU) vs non-contiguous
//     gather (memory system) — "linear speedups when increasing the number
//     of model parallelism partitions";
//   * MaskRCNN: partitioning support for top-k (Amdahl bottleneck removal);
//   * DLRM: replicate-small / partition-large embedding placement.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "hlo/cost_model.h"
#include "hlo/hlo.h"
#include "hlo/passes.h"
#include "spmd/spmd.h"

int main() {
  using namespace tpu;
  hlo::TpuCoreModel core;
  // --smoke (CI): the smallest ROI count and two partition counts.
  const bool smoke = bench::Smoke();
  const std::vector<tensor::Index> roi_counts =
      smoke ? std::vector<tensor::Index>{256}
            : std::vector<tensor::Index>{256, 1024, 4096};
  const std::vector<int> partitions =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};

  bench::Header("ROIAlign gather: one-hot matmul vs non-contiguous gather",
                "Kumar et al., MLSys 2021, Section 4.5");
  bench::Row("%6s %6s | %14s %14s %9s", "rois", "parts", "gather(us)",
             "onehot(us)", "speedup");
  const tensor::Index table = 2048, width = 256;
  for (tensor::Index rois : roi_counts) {
    for (int parts : partitions) {
      // Non-contiguous gather does not partition (no XLA support pre-paper):
      // it runs fully replicated regardless of parts.
      const SimTime gather_time = core.SecondsFor(
          hlo::NonContiguousGatherCost(rois, width, 2));
      // One-hot matmul row-shards across the partitions.
      hlo::HloModule m("roialign");
      const auto onehot = m.Parameter({rois, table}, "onehot");
      const auto data = m.Parameter({table, width}, "data");
      m.OneHotGather(onehot, data);
      const auto pm = spmd::Partition(
          m, {spmd::Sharding::Tiled(0), spmd::Sharding::Replicated()}, parts);
      const auto cost = spmd::CostOfPartitioned(pm, core);
      bench::Row("%6lld %6d | %14.2f %14.2f %8.1fx",
                 static_cast<long long>(rois), parts,
                 ToMicros(gather_time), ToMicros(cost.compute_seconds),
                 gather_time / cost.compute_seconds);
    }
  }

  bench::Header("Top-k partitioning (Amdahl bottleneck removal)",
                "Kumar et al., MLSys 2021, Section 4.5");
  bench::Row("%6s | %14s %14s", "parts", "topk(us)", "vs replicated");
  {
    const tensor::Index rows = 8192, candidates = 4096;
    hlo::HloModule m("topk");
    const auto scores = m.Parameter({rows, candidates}, "scores");
    m.TopK(scores, 16);
    const auto replicated_cost = spmd::CostOfPartitioned(
        spmd::Partition(m, {spmd::Sharding::Replicated()}, 1), core);
    for (int parts : partitions) {
      const auto cost = spmd::CostOfPartitioned(
          spmd::Partition(m, {spmd::Sharding::Tiled(0)}, parts), core);
      bench::Row("%6d | %14.2f %13.1fx", parts,
                 ToMicros(cost.compute_seconds),
                 replicated_cost.compute_seconds / cost.compute_seconds);
    }
  }

  bench::Header("BERT compiler optimizations (scale placement + fusion)",
                "Kumar et al., MLSys 2021, Section 4.1");
  {
    // A BERT-ish layer at per-core shapes (batch 2 x seq 64 rows): small
    // matmuls, an attention scale on the big activation side, and a pile of
    // layernorm-style elementwise ops — exactly the regime where issue
    // overhead and misplaced scalar work dominate (Section 4.1).
    hlo::HloModule m("bert_layer");
    const auto x = m.Parameter({128, 1024}, "x");
    const auto wq = m.Parameter({1024, 64}, "wq");
    const auto w2 = m.Parameter({1024, 1024}, "w2");
    const auto q = m.Dot(x, wq);
    // 1/sqrt(d) attention scale applied to the large expanded activation —
    // the misplacement the rewrite fixes (it belongs on the 64x1024 weight).
    const auto expanded = m.Scale(
        m.Dot(q, m.Parameter({64, 1024}, "up")), 0.125f);
    auto cur = m.Dot(m.Tanh(m.Dot(expanded, w2)), w2);
    for (int i = 0; i < 8; ++i) {
      cur = m.Scale(m.Tanh(cur), 1.0f + 0.001f * i);  // layernorm-ish chain
    }
    hlo::TpuCoreModel core;
    core.op_overhead = Micros(1.0);
    int rewrites = 0;
    const hlo::HloModule rescaled =
        hlo::MoveScalesToSmallerSide(m, &rewrites);
    const auto fusion = hlo::AnalyzeElementwiseFusion(rescaled);
    const SimTime baseline = hlo::CostOfModule(m, core).seconds;
    const SimTime optimized = hlo::FusedModuleSeconds(rescaled, core);
    bench::Row("  scale rewrites applied:        %d", rewrites);
    bench::Row("  kernels after fusion:          %d -> %d",
               fusion.original_kernels, fusion.fused_kernels);
    bench::Row("  layer time: %.3f ms -> %.3f ms (%.2fx)",
               ToMillis(baseline), ToMillis(optimized),
               baseline / optimized);
  }

  bench::Header("DLRM embedding placement: replicate small, partition large",
                "Kumar et al., MLSys 2021, Section 4.6");
  // 26 Criteo tables: a few huge, many tiny. Placement policy: replicate a
  // table if it fits comfortably, partition otherwise; report HBM per chip.
  {
    const std::int64_t dim = 128;
    const std::int64_t rows[] = {40'000'000, 40'000'000, 30'000'000,
                                 20'000'000, 10'000'000, 5'000'000,
                                 1'000'000,  100'000,    10'000};
    const int num_chips = 256;
    const double hbm_per_chip = 32.0 * (1 << 30);
    double replicate_all = 0, partition_all = 0, policy = 0;
    for (std::int64_t r : rows) {
      const double bytes = static_cast<double>(r) * dim * 4;
      replicate_all += bytes;
      partition_all += bytes / num_chips;
      // Policy: replicate under 64 MiB (cheap lookups, no all-to-all),
      // partition the rest.
      policy += bytes < 64.0 * (1 << 20) ? bytes : bytes / num_chips;
    }
    bench::Row("%-22s %10.2f GiB/chip %s", "replicate everything",
               replicate_all / (1 << 30),
               replicate_all > hbm_per_chip ? "(DOES NOT FIT 32 GiB)" : "");
    bench::Row("%-22s %10.2f GiB/chip", "partition everything",
               partition_all / (1 << 30));
    bench::Row("%-22s %10.2f GiB/chip (small tables lookup locally)",
               "paper policy", policy / (1 << 30));
  }
  return 0;
}
