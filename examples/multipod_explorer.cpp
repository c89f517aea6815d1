// Command-line what-if tool over the multipod simulator: pick a benchmark,
// machine size, batch, model-parallel width and framework, and get the step
// breakdown + end-to-end estimate. The tool a capacity planner would use.
//
//   ./build/examples/multipod_explorer bert 1024 16384 1 jax
//   ./build/examples/multipod_explorer transformer 4096 2048 4 tf
//   ./build/examples/multipod_explorer            (prints usage + a default)
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "core/multipod.h"
#include "frameworks/runtime_model.h"
#include "models/model_specs.h"

namespace {

using namespace tpu;

constexpr char kUsage[] =
    "usage: %s <benchmark> <chips> <global_batch> <mp_cores> <tf|jax>\n"
    "  benchmarks: bert resnet50 transformer ssd maskrcnn dlrm\n"
    "  chips: a power of two from 4, or a whole number of 1024-chip pods,\n"
    "         up to 16384\n";

// 16 pods, four times the paper's largest machine. Beyond it the simulated
// step takes minutes and gigabytes.
constexpr long long kMaxChips = 16 * 1024;

// Rejects a bad argument: names it, prints usage, and exits non-zero.
[[noreturn]] void Reject(const char* program, const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::fprintf(stderr, kUsage, program);
  std::exit(1);
}

std::optional<models::Benchmark> ParseBenchmark(const std::string& name) {
  for (models::Benchmark b : models::AllBenchmarks()) {
    std::string lower = models::BenchmarkName(b);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    std::string key = lower;
    key.erase(std::remove(key.begin(), key.end(), '-'), key.end());
    if (name == lower || name == key) return b;
  }
  return std::nullopt;
}

std::optional<frameworks::Framework> ParseFramework(const std::string& name) {
  if (name == "tf") return frameworks::Framework::kTensorFlow;
  if (name == "jax") return frameworks::Framework::kJax;
  return std::nullopt;
}

// A whole decimal number in [1, max] with nothing trailing it.
bool ParsePositive(const char* text, long long max, long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  if (value < 1 || value > max) return false;
  *out = value;
  return true;
}

bool IsPowerOfTwo(long long n) { return n > 0 && (n & (n - 1)) == 0; }

void Run(core::MultipodSystem& system, models::Benchmark benchmark,
         std::int64_t batch, int mp, frameworks::Framework framework) {
  const models::ModelSpec& spec = models::GetModelSpec(benchmark);
  std::printf("machine:    %s\n", system.topology().ToString().c_str());
  std::printf("benchmark:  %s  (batch %lld, %d-way model parallel, %s)\n",
              spec.name.c_str(), static_cast<long long>(batch), mp,
              frameworks::FrameworkName(framework));

  const auto result = system.SimulateTraining(benchmark, batch, mp, framework);
  std::printf("\nper-step breakdown:\n");
  std::printf("  compute        %9.3f ms\n", ToMillis(result.step.compute));
  std::printf("  all-reduce     %9.3f ms (%.1f%% of step)\n",
              ToMillis(result.step.allreduce),
              100.0 * result.step.allreduce_fraction());
  std::printf("  weight update  %9.3f ms\n",
              ToMillis(result.step.weight_update));
  if (result.step.embedding_comm > 0) {
    std::printf("  embedding a2a  %9.3f ms\n",
                ToMillis(result.step.embedding_comm));
  }
  std::printf("  step           %9.3f ms\n", ToMillis(result.step.step()));

  std::printf("\nrun:\n");
  std::printf("  steps to converge  %lld (%.1f epochs)\n",
              static_cast<long long>(result.steps), result.epochs);
  std::printf("  train              %9.1f s\n", result.train_seconds);
  std::printf("  eval               %9.1f s\n", result.eval_seconds);
  std::printf("  end-to-end         %9.2f min\n", result.minutes());

  const auto init = frameworks::EstimateInitTime(framework, benchmark,
                                                 system.num_chips());
  std::printf("  init (outside MLPerf clock) %6.0f s\n", init.total());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    std::printf(kUsage, argv[0]);
    std::printf("running the default: bert 4096 8192 1 jax\n\n");
    core::MultipodSystem system(4096);
    Run(system, models::Benchmark::kBert, 8192, 1,
        frameworks::Framework::kJax);
    return 0;
  }
  const char* program = argv[0];
  if (argc != 6) Reject(program, "expected 5 arguments");

  const std::optional<models::Benchmark> benchmark = ParseBenchmark(argv[1]);
  if (!benchmark) {
    Reject(program, std::string("unknown benchmark '") + argv[1] + "'");
  }
  const models::ModelSpec& spec = models::GetModelSpec(*benchmark);

  long long chips = 0;
  if (!ParsePositive(argv[2], kMaxChips, &chips) || chips < 4 ||
      (chips % 1024 != 0 && !IsPowerOfTwo(chips))) {
    Reject(program, std::string("bad chip count '") + argv[2] + "'");
  }

  long long mp = 0;
  if (!ParsePositive(argv[4], spec.max_model_parallel_cores, &mp) ||
      !IsPowerOfTwo(mp)) {
    Reject(program, std::string("bad mp_cores '") + argv[4] + "': " +
                        spec.name + " takes a power of two from 1 to " +
                        std::to_string(spec.max_model_parallel_cores));
  }
  // Model-parallel groups sit on mp/2 neighbouring chips along X.
  core::MultipodSystem system(static_cast<int>(chips));
  const long long chips_per_group = std::max<long long>(1, mp / 2);
  if (system.topology().size_x() % chips_per_group != 0) {
    Reject(program, "mp_cores " + std::to_string(mp) + " does not tile the " +
                        system.topology().ToString() + " machine");
  }

  // One example per replica at least; no more than the model converges at.
  const long long replicas = system.num_cores() / mp;
  long long batch = 0;
  if (!ParsePositive(argv[3], spec.max_global_batch, &batch) ||
      batch < replicas) {
    Reject(program, std::string("bad global_batch '") + argv[3] + "': " +
                        spec.name + " on " + std::to_string(chips) +
                        " chips at mp " + std::to_string(mp) + " needs >= " +
                        std::to_string(replicas) +
                        " (one example per replica) and <= " +
                        std::to_string(spec.max_global_batch) +
                        " (largest converging batch)");
  }

  const std::optional<frameworks::Framework> framework =
      ParseFramework(argv[5]);
  if (!framework) {
    Reject(program, std::string("unknown framework '") + argv[5] + "'");
  }
  Run(system, *benchmark, batch, static_cast<int>(mp), *framework);
  return 0;
}
