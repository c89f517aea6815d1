// Section 3.2 ablation: weight-update sharding.
// The paper measured the replicated LAMB update at ~18% of the BERT step
// time on 512 chips; sharding distributes it across the replicas. This bench
// reproduces the share with and without sharding, per optimizer.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/multipod.h"
#include "models/model_specs.h"
#include "optim/optimizer.h"

int main() {
  using namespace tpu;
  // --smoke (CI): BERT on 128 chips and SSD on 256 instead of 512 and 2048.
  const bool smoke = bench::Smoke();
  const int bert_chips = smoke ? 128 : 512;
  const int ssd_chips = smoke ? 256 : 2048;
  char title[64];
  std::snprintf(title, sizeof(title),
                "Weight-update sharding ablation (BERT, %d chips)", bert_chips);
  bench::Header(title,
                "Kumar et al., MLSys 2021, Section 3.2 (paper: ~18% of step)");
  bench::Row("%-14s %-10s | %10s %10s %10s %9s", "optimizer", "scheme",
             "update(ms)", "step(ms)", "speedup", "upd share");

  const auto& bert = models::GetModelSpec(models::Benchmark::kBert);
  const std::int64_t batch = 4096;

  struct Opt {
    const char* name;
    std::unique_ptr<optim::Optimizer> optimizer;
  };
  Opt optimizers[] = {{"momentum-sgd", optim::MakeMomentumSgd({})},
                      {"lars", optim::MakeLars({})},
                      {"lamb", optim::MakeLamb({})}};

  for (Opt& opt : optimizers) {
    core::SystemOptions replicated_opts;
    replicated_opts.weight_update_sharding = false;
    core::SystemOptions sharded_opts;
    sharded_opts.weight_update_sharding = true;

    core::MultipodSystem replicated(bert_chips, replicated_opts);
    core::MultipodSystem sharded(bert_chips, sharded_opts);
    const auto slow =
        replicated.SimulateStep(bert, batch, 1, opt.optimizer.get());
    const auto fast = sharded.SimulateStep(bert, batch, 1, opt.optimizer.get());

    bench::Row("%-14s %-10s | %10.3f %10.3f %10s %8.1f%%", opt.name,
               "replicated", ToMillis(slow.weight_update),
               ToMillis(slow.step()), "-",
               100.0 * slow.weight_update / slow.step());
    bench::Row("%-14s %-10s | %10.3f %10.3f %9.2fx %8.1f%%", opt.name,
               "sharded", ToMillis(fast.weight_update), ToMillis(fast.step()),
               slow.step() / fast.step(),
               100.0 * fast.weight_update / fast.step());
  }

  // SSD's SPMD + weight-update-sharding interaction (Section 4.4: ~10%
  // speedup even under model parallelism).
  std::printf("\nSSD with 8-way model parallelism (Section 4.4):\n");
  const auto& ssd = models::GetModelSpec(models::Benchmark::kSsd);
  const auto sgd = optim::MakeMomentumSgd({});
  core::SystemOptions on, off;
  off.weight_update_sharding = false;
  core::MultipodSystem with(ssd_chips, on), without(ssd_chips, off);
  const auto fast = with.SimulateStep(ssd, 4096, 8, sgd.get());
  const auto slow = without.SimulateStep(ssd, 4096, 8, sgd.get());
  bench::Row("  WUS on:  step %.3f ms   WUS off: step %.3f ms   speedup %.2fx",
             ToMillis(fast.step()), ToMillis(slow.step()),
             slow.step() / fast.step());
  return 0;
}
