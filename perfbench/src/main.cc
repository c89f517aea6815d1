// perfbench: runs one workload of the simulator benchmark and prints one
// JSON object on stdout.
//
//   perfbench --workload NAME --seed N --seconds S --mode setup|run|trace
//             [--size full|smoke] [--spans PATH]
//
// setup  builds the workload's inputs (and runs its warm-up op), reports
//        setup_s and exits; run.py starts several such processes.
// run    derives every op's result once through its layer-by-layer route,
//        untimed, then repeats the ops' public calls for S seconds, timing
//        each and checking each result against that route.
// trace  alternates a traced round (the layer-by-layer route under spans)
//        with a timed round for S seconds and reports the per-layer
//        metrics; spans go to PATH.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// This process's resident high-water mark. VmHWM belongs to the address
// space exec created; getrusage's ru_maxrss would also keep the launching
// process's peak across the exec.
double PeakRssMb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return kib / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ",";
    out += Quote(name) + ":" + Num(value);
  }
  return out + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  std::string mode;
  Size size = Size::kFull;
  std::string spans_path;
};

bool ParseUnsigned(const char* text, std::uint64_t* value) {
  if (*text == '\0') return false;
  std::uint64_t result = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (result > (UINT64_MAX - digit) / 10) return false;
    result = result * 10 + digit;
  }
  *value = result;
  return true;
}

// Returns an error message, or "" when `args` is complete and valid.
std::string ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return "missing value for " + flag;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &args->seed)) {
        return std::string("--seed must be a non-negative integer, got '") +
               value + "'";
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      std::uint64_t seconds = 0;
      if (!ParseUnsigned(value, &seconds) || seconds < 1 || seconds > 600) {
        return std::string("--seconds must be an integer in [1, 600], got '") +
               value + "'";
      }
      args->seconds = static_cast<double>(seconds);
    } else if (flag == "--mode") {
      args->mode = value;
      if (args->mode != "setup" && args->mode != "run" &&
          args->mode != "trace") {
        return "--mode must be setup, run or trace";
      }
    } else if (flag == "--size") {
      if (std::strcmp(value, "full") == 0) {
        args->size = Size::kFull;
      } else if (std::strcmp(value, "smoke") == 0) {
        args->size = Size::kSmoke;
      } else {
        return "--size must be full or smoke";
      }
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return "unknown argument " + flag;
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args->workload) == names.end()) {
    std::string known;
    for (const std::string& name : names) known += " " + name;
    return "--workload must be one of" + known;
  }
  if (!have_seed) return "--seed is required";
  if (args->mode.empty()) return "--mode is required";
  if (args->mode != "setup" && args->seconds <= 0) {
    return "--seconds is required";
  }
  return "";
}

// The timed ops, one round each; checks every result against `expected`.
struct TimedRounds {
  std::vector<std::vector<double>> seconds;  // [op][round]
  std::vector<int> failed;                   // [op]
  std::vector<std::string> problems;
  std::vector<double> round_wall;
  std::vector<double> round_cpu;
  int attempted = 0;

  explicit TimedRounds(std::size_t ops) : seconds(ops), failed(ops, 0) {}

  void Round(const std::vector<Op>& ops,
             const std::vector<std::uint64_t>& expected) {
    const double wall0 = WallNow();
    const double cpu0 = CpuNow();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const double start = WallNow();
      const Outcome outcome = ops[i].run();
      seconds[i].push_back(WallNow() - start);
      ++attempted;
      if (!outcome.problem.empty() || Digest(outcome) != expected[i]) {
        ++failed[i];
        problems.push_back(ops[i].name + ": " +
                           (outcome.problem.empty()
                                ? "result differs from the layer-by-layer route"
                                : outcome.problem));
      }
    }
    round_wall.push_back(WallNow() - wall0);
    round_cpu.push_back(CpuNow() - cpu0);
  }
};

// Per-layer metrics from the traced rounds, per round.
std::map<std::string, double> LayerMetrics(const Tracer& tracer, int rounds) {
  const std::map<std::string, double>& counts = tracer.counts();
  const auto count = [&counts](const std::string& name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double r = rounds;
  const auto ms = [&tracer, r](const std::string& span) {
    return tracer.TotalMs(span) / r;
  };

  // Over the ops that ran a `base` span: base minus the `minus` spans of
  // the same op, in ms per round.
  const auto within_ops = [&tracer, r](const std::string& base,
                                       std::vector<std::string> minus) {
    std::map<int, double> seconds;
    for (const Tracer::Record& span : tracer.spans()) {
      if (span.name == base) seconds[span.op] += span.seconds();
    }
    for (const Tracer::Record& span : tracer.spans()) {
      if (seconds.count(span.op) != 0 &&
          std::find(minus.begin(), minus.end(), span.name) != minus.end()) {
        seconds[span.op] -= span.seconds();
      }
    }
    double total = 0;
    for (const auto& [op, value] : seconds) total += value;
    return total * 1e3 / r;
  };

  const double sim_ms = ms("collectives.summation") + ms("plan.execute");
  std::map<std::string, double> m;
  m["topology.build_ms"] = ms("topology.build");
  m["sim.events"] = count("sim.events") / r;
  m["sim.ns_per_event"] = ratio(sim_ms * 1e6, count("sim.events") / r);
  m["sim.peak_queue_depth"] = count("sim.peak_queue_depth");
  m["sim.pool_hit_ratio"] = ratio(count("sim.pool_hits"), count("sim.pool_allocs"));
  m["sim.queue_refills"] = count("sim.queue_refills") / r;
  m["network.build_ms"] = ms("network.build");
  m["network.builds"] = count("network.builds") / r;
  m["network.messages"] = count("network.messages") / r;
  m["network.bytes"] = count("network.bytes") / r;
  m["collectives.summation_ms"] = ms("collectives.summation");
  m["core.step_ms"] = ms("core.step");
  // The step minus the direct summation and network build that reproduce
  // its collective.
  m["core.step_self_ms"] =
      within_ops("core.step", {"collectives.summation", "network.build"});
  m["plan.search_ms"] = ms("plan.search");
  m["plan.lower_ms"] = ms("plan.lower");
  m["plan.estimate_ms"] = ms("plan.estimate");
  m["plan.reprice_ms"] = ms("plan.reprice");
  m["plan.candidates"] = count("plan.candidates") / r;
  m["plan.evaluated"] = count("plan.evaluated") / r;
  m["plan.replan_ms"] = ms("plan.replan");
  m["plan.cache_hit_ratio"] =
      ratio(count("plan.cache_hits"), count("plan.cache_lookups"));
  m["recover.training_ms"] = ms("recover.training");
  m["recover.decisions"] = count("recover.decisions") / r;
  m["recover.faults_applied"] = count("recover.faults_applied") / r;
  m["recover.probes"] = count("recover.probes") / r;
  m["fault.detections"] = count("fault.detections") / r;
  m["cluster.setup_ms"] = ms("cluster.setup");
  m["cluster.run_ms"] = ms("cluster.run");
  m["cluster.sim_events"] = count("cluster.sim_events") / r;
  m["cluster.ns_per_event"] =
      ratio(ms("cluster.run") * 1e6, count("cluster.sim_events") / r);
  m["cluster.jobs_completed"] = count("cluster.jobs_completed") / r;
  m["cluster.preemptions"] = count("cluster.preemptions") / r;
  m["cluster.faults_injected"] = count("cluster.faults_injected") / r;
  // The observed step minus the same step unobserved.
  m["trace.observer_ms"] = within_ops("core.step_observed", {"core.step"});
  m["trace.recorder_events"] = count("trace.recorder_events") / r;
  m["trace.export_ms"] = ms("trace.export");
  m["telemetry.ticks"] = count("telemetry.ticks") / r;
  m["telemetry.export_ms"] = ms("telemetry.export");
  return m;
}

void PrintOps(std::FILE* out, const std::vector<Op>& ops,
              const std::vector<std::uint64_t>& digests,
              const TimedRounds& timed) {
  std::fprintf(out, "\"ops\":[");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::fprintf(out, "%s{\"name\":%s,\"seeded\":%s,\"digest\":\"%s\","
                      "\"min_s\":%s,\"runs\":%zu,\"failed\":%d,"
                      "\"samples_s\":[",
                 i == 0 ? "" : ",", Quote(ops[i].name).c_str(),
                 ops[i].seeded ? "true" : "false", Hex(digests[i]).c_str(),
                 Num(*std::min_element(timed.seconds[i].begin(),
                                       timed.seconds[i].end()))
                     .c_str(),
                 timed.seconds[i].size(), timed.failed[i]);
    for (std::size_t r = 0; r < timed.seconds[i].size(); ++r) {
      std::fprintf(out, "%s%.6f", r == 0 ? "" : ",", timed.seconds[i][r]);
    }
    std::fprintf(out, "]}");
  }
  std::fprintf(out, "],\"problems\":[");
  for (std::size_t i = 0; i < timed.problems.size() && i < 20; ++i) {
    std::fprintf(out, "%s%s", i == 0 ? "" : ",",
                 Quote(timed.problems[i]).c_str());
  }
  std::fprintf(out, "],\"attempted\":%d", timed.attempted);
}

int Main(int argc, char** argv) {
  const double t0 = WallNow();
  Args args;
  const std::string error = ParseArgs(argc, argv, &args);
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  const std::vector<Op> ops = SetUpWorkload(args.workload, args.seed, args.size);
  const double setup_s = WallNow() - t0;
  if (args.mode == "setup") {
    std::printf("{\"setup_s\":%s}\n", Num(setup_s).c_str());
    return 0;
  }

  // Every timed run of an op must reproduce, bit-for-bit, the op's
  // layer-by-layer route: run once untimed, or in trace mode once per traced
  // round under spans (and then also repeat itself).
  Tracer tracer;
  std::vector<std::uint64_t> expected;
  std::vector<bool> route_failed(ops.size(), false);
  std::vector<std::string> route_problems;
  const auto direct_round = [&](Tracer* spans) {
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (spans != nullptr) spans->BeginOp(ops[i].name);
      const Outcome outcome = ops[i].direct(spans);
      if (spans != nullptr) spans->EndOp();
      digests.push_back(Digest(outcome));
      std::string problem = outcome.problem;
      if (problem.empty() && !expected.empty() && digests[i] != expected[i]) {
        problem = "layer-by-layer route is not repeatable";
      }
      if (!problem.empty()) {
        route_failed[i] = true;
        route_problems.push_back(ops[i].name + ": " + problem);
      }
    }
    if (expected.empty()) expected = digests;
  };

  TimedRounds timed(ops.size());
  std::vector<double> traced_wall;
  if (args.mode == "run") direct_round(nullptr);
  const double start = WallNow();
  do {
    if (args.mode == "trace") {
      const double round_start = WallNow();
      direct_round(&tracer);
      traced_wall.push_back(WallNow() - round_start);
    }
    timed.Round(ops, expected);
  } while (WallNow() - start < args.seconds);
  // A broken layer-by-layer route fails every run of its op.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (route_failed[i]) {
      timed.failed[i] = static_cast<int>(timed.seconds[i].size());
    }
  }
  timed.problems.insert(timed.problems.begin(), route_problems.begin(),
                        route_problems.end());
  if (!args.spans_path.empty() && !tracer.WriteJsonLines(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_path.c_str());
    return 1;
  }

  std::printf("{\"workload\":%s,\"seed\":%" PRIu64 ",\"compiler\":%s,"
              "\"build_type\":%s,\"setup_s\":%s,",
              Quote(args.workload).c_str(), args.seed,
              Quote(PERFBENCH_COMPILER).c_str(),
              Quote(PERFBENCH_BUILD_TYPE).c_str(), Num(setup_s).c_str());
  PrintOps(stdout, ops, expected, timed);
  std::printf(",\"peak_rss_mb\":%s,\"rounds\":%zu",
              Num(PeakRssMb()).c_str(), timed.round_wall.size());
  if (args.mode == "trace") {
    const int rounds = static_cast<int>(traced_wall.size());
    std::map<std::string, double> layers = LayerMetrics(tracer, rounds);
    layers["host.cpu_s"] = Median(timed.round_cpu);
    layers["host.tracing_overhead_s"] =
        Median(traced_wall) - Median(timed.round_wall);
    std::map<std::string, double> self_ms = tracer.SelfMs();
    for (auto& [name, ms] : self_ms) ms /= rounds;
    std::printf(",\"layers\":%s,\"self_ms\":%s", JsonObject(layers).c_str(),
                JsonObject(self_ms).c_str());
  }
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
