// Shared helpers for the reproduction benches. Each bench binary regenerates
// one table or figure of the paper: it runs the simulation for every row /
// series point and prints them in the paper's format, with the published
// value alongside where the paper gives one (EXPERIMENTS.md records the
// comparison).
//
// Every bench also understands three observability flags, parsed from
// /proc/self/cmdline (benches keep their argument-less main()) with
// environment-variable fallbacks:
//   --trace=PATH    (TPU_BENCH_TRACE=PATH)    write a Chrome trace to PATH
//   --metrics       (TPU_BENCH_METRICS=1)     dump the metrics registry on
//   --metrics=PATH  (TPU_BENCH_METRICS=PATH)  exit (text to stderr, or JSON
//                                             to PATH)
//   --smoke         (TPU_BENCH_SMOKE=1)       reduced-scale run (benches opt
//                                             in via bench::Smoke())
//   --json=PATH     (TPU_BENCH_JSON=PATH)     machine-readable results to
//                                             PATH (benches opt in via
//                                             bench::JsonPath())
//   --telemetry[=PATH] (TPU_BENCH_TELEMETRY)  install a telemetry session
//                                             (continuous sampling + anomaly
//                                             watchdogs + flight recorder);
//                                             JSON to PATH, default
//                                             telemetry.json
//   --jobs-trace=PATH (TPU_BENCH_JOBS_TRACE)  replay a cluster job trace
//                                             (benches opt in via
//                                             bench::JobsTracePath())
// Header() installs the process-global recorder/registry; files are written
// by an atexit hook so benches need no per-bench changes.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::bench {
namespace internal {

struct ObservabilityEnv {
  trace::TraceRecorder recorder;
  trace::MetricsRegistry metrics;
  telemetry::TelemetrySession telemetry;
  std::string trace_path;
  std::string metrics_path;  // empty with metrics_on: text dump to stderr
  std::string json_path;
  std::string telemetry_path;
  std::string jobs_trace_path;
  bool metrics_on = false;
  bool telemetry_on = false;
  bool smoke = false;
  bool initialized = false;
};

inline ObservabilityEnv& Env() {
  static ObservabilityEnv env;
  return env;
}

inline std::vector<std::string> CommandLineArgs() {
  std::vector<std::string> args;
  if (std::FILE* f = std::fopen("/proc/self/cmdline", "rb")) {
    std::string raw;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) raw.append(buf, n);
    std::fclose(f);
    std::size_t begin = 0;
    while (begin < raw.size()) {
      const std::size_t end = raw.find('\0', begin);
      const std::size_t stop = end == std::string::npos ? raw.size() : end;
      if (stop > begin) args.emplace_back(raw.substr(begin, stop - begin));
      begin = stop + 1;
    }
  }
  return args;
}

inline void FlushObservability() {
  ObservabilityEnv& env = Env();
  if (!env.trace_path.empty() && env.recorder.event_count() > 0) {
    if (env.recorder.WriteFile(env.trace_path)) {
      std::fprintf(stderr, "trace: %zu events -> %s\n",
                   env.recorder.event_count(), env.trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n",
                   env.trace_path.c_str());
    }
  }
  if (env.telemetry_on) {
    // Session-lifetime telemetry.* counters land in the same registry dump
    // the metrics flag writes (exactly once, here, so per-scenario metric
    // snapshots taken during the run stay telemetry-free).
    if (env.metrics_on) env.telemetry.ExportMetrics(env.metrics);
    std::ofstream out(env.telemetry_path);
    env.telemetry.WriteJson(out);
    std::fprintf(stderr, "telemetry -> %s\n", env.telemetry_path.c_str());
  }
  if (env.metrics_on && !env.metrics.empty()) {
    if (env.metrics_path.empty()) {
      std::ostringstream out;
      env.metrics.WriteText(out);
      std::fprintf(stderr, "\n--- metrics ---\n%s", out.str().c_str());
    } else {
      std::ofstream out(env.metrics_path);
      env.metrics.WriteJson(out);
      std::fprintf(stderr, "metrics -> %s\n", env.metrics_path.c_str());
    }
  }
}

// Parses the flags once and installs the recorder/registry/session in the
// main thread's run context. Benches that never pass a flag pay nothing: the
// sinks stay null.
inline void InitObservability() {
  ObservabilityEnv& env = Env();
  if (env.initialized) return;
  env.initialized = true;

  std::vector<std::string> args = CommandLineArgs();
  // Reject unknown --flags from the real command line before folding in the
  // environment fallbacks: a typo like --traces=out.json silently running
  // the full un-traced bench wastes a long sweep. "--benchmark*" passes
  // through for binaries that also link a benchmark framework.
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) continue;
    const bool known = arg.rfind("--trace=", 0) == 0 || arg == "--metrics" ||
                       arg.rfind("--metrics=", 0) == 0 || arg == "--smoke" ||
                       arg.rfind("--json=", 0) == 0 || arg == "--telemetry" ||
                       arg.rfind("--telemetry=", 0) == 0 ||
                       arg.rfind("--jobs-trace=", 0) == 0 ||
                       arg.rfind("--benchmark", 0) == 0;
    if (!known) {
      std::fprintf(stderr,
                   "error: unknown flag '%s'\n"
                   "supported flags:\n"
                   "  --trace=PATH    write a Chrome trace to PATH\n"
                   "  --metrics       dump the metrics registry to stderr\n"
                   "  --metrics=PATH  dump the metrics registry as JSON\n"
                   "  --smoke         reduced-scale run\n"
                   "  --json=PATH     machine-readable results to PATH\n"
                   "  --telemetry[=PATH]  continuous sampling + watchdogs + "
                   "flight recorder, JSON to PATH\n"
                   "  --jobs-trace=PATH  replay a cluster job trace from "
                   "PATH\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  if (const char* v = std::getenv("TPU_BENCH_TRACE")) {
    args.push_back(std::string("--trace=") + v);
  }
  if (const char* v = std::getenv("TPU_BENCH_METRICS")) {
    args.push_back(std::string(v) == "1" ? "--metrics"
                                         : std::string("--metrics=") + v);
  }
  if (const char* v = std::getenv("TPU_BENCH_SMOKE")) {
    if (std::string(v) == "1") args.push_back("--smoke");
  }
  if (const char* v = std::getenv("TPU_BENCH_JSON")) {
    args.push_back(std::string("--json=") + v);
  }
  if (const char* v = std::getenv("TPU_BENCH_TELEMETRY")) {
    args.push_back(std::string(v) == "1" ? "--telemetry"
                                         : std::string("--telemetry=") + v);
  }
  if (const char* v = std::getenv("TPU_BENCH_JOBS_TRACE")) {
    args.push_back(std::string("--jobs-trace=") + v);
  }
  for (const std::string& arg : args) {
    if (arg.rfind("--trace=", 0) == 0) {
      env.trace_path = arg.substr(8);
    } else if (arg == "--metrics") {
      env.metrics_on = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      env.metrics_on = true;
      env.metrics_path = arg.substr(10);
    } else if (arg == "--smoke") {
      env.smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      env.json_path = arg.substr(7);
    } else if (arg == "--telemetry") {
      env.telemetry_on = true;
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      env.telemetry_on = true;
      env.telemetry_path = arg.substr(12);
    } else if (arg.rfind("--jobs-trace=", 0) == 0) {
      env.jobs_trace_path = arg.substr(13);
    }
  }
  if (env.telemetry_on && env.telemetry_path.empty()) {
    env.telemetry_path = "telemetry.json";
  }

  sim::RunContext& context = sim::CurrentRunContext();
  if (!env.trace_path.empty()) context.trace = &env.recorder;
  if (env.metrics_on) context.metrics = &env.metrics;
  if (env.telemetry_on) context.telemetry = &env.telemetry;
  if (!env.trace_path.empty() || env.metrics_on || env.telemetry_on) {
    std::atexit(FlushObservability);
  }
}

}  // namespace internal

// Parses the observability flags and installs the recorder/registry without
// printing anything — for binaries (examples) that don't use Header().
inline void Init() { internal::InitObservability(); }

// True when the bench was invoked with --smoke (or TPU_BENCH_SMOKE=1):
// benches with expensive sweeps substitute a seconds-scale configuration.
inline bool Smoke() {
  internal::InitObservability();
  return internal::Env().smoke;
}

// Destination of --json=PATH (or TPU_BENCH_JSON=PATH); empty when the flag
// was not passed. Benches that support machine-readable output write their
// simulated (wall-clock-free, bit-reproducible) results there — the file
// tools/bench_compare.py diffs against the committed baseline.
inline const std::string& JsonPath() {
  internal::InitObservability();
  return internal::Env().json_path;
}

// Destination of --jobs-trace=PATH (or TPU_BENCH_JOBS_TRACE=PATH); empty
// when the flag was not passed. Cluster benches replay the job stream from
// this trace file (cluster::LoadJobsTrace) instead of their generated
// Poisson workload.
inline const std::string& JobsTracePath() {
  internal::InitObservability();
  return internal::Env().jobs_trace_path;
}

inline void Header(const std::string& title, const std::string& paper_ref) {
  internal::InitObservability();
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("%s\n", std::string(72, '-').c_str());
}

inline void Row(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stdout, format, args);
  va_end(args);
  std::printf("\n");
}

// The chip scales swept in the paper's scaling figures. --smoke trims the
// sweep to the sub-second scales so CI can exercise every figure bench.
inline std::vector<int> ScalingChips() {
  if (Smoke()) return {16, 32, 64, 128};
  return {16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
}

// ResNet-50 global batch at each scale: per-chip batch falls from 256 at 16
// chips to 16 at 4096 chips (Figure 6's caption), i.e. 1024 * sqrt(chips).
inline std::int64_t ResNetBatch(int chips) {
  std::int64_t batch = 1;
  while (batch * batch < 1024LL * 1024 * chips) batch *= 2;
  return std::min<std::int64_t>(65536, std::max<std::int64_t>(4096, batch));
}

// BERT per-chip batch: 48 at 16 chips down to 2 at 4096 (Figure 8 caption).
inline std::int64_t BertPerChipBatch(int chips) {
  if (chips <= 16) return 48;
  if (chips <= 32) return 32;
  if (chips <= 64) return 24;
  if (chips <= 128) return 16;
  if (chips <= 256) return 12;
  if (chips <= 512) return 8;
  if (chips <= 1024) return 6;
  if (chips <= 2048) return 4;
  return 2;
}

}  // namespace tpu::bench
