// The benchmark's four workloads, each a list of ops on the simulator's
// public API.
//
// Every op has two routes to the same simulated result:
//   * run()    — the end-to-end public call the timed run measures, and
//   * direct() — the same result assembled from each layer's public
//                function, with a Span around every layer call and counts
//                read from the Simulator/Network/PlanCache objects it owns.
// The two must agree bit-for-bit. direct(nullptr) is the untimed cross-check
// of a timed run; direct(&tracer) is the traced run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Outcome {
  std::vector<double> values;  // simulated outputs, compared bit-for-bit
  std::string text;            // simulated JSON exports, digested too
  std::string problem;         // first broken invariant; empty when sound

  void Add(double value) { values.push_back(value); }
  void Fail(const std::string& why) {
    if (problem.empty()) problem = why;
  }
};

// FNV-1a over the bit patterns of `values` and the bytes of `text`.
std::uint64_t Digest(const Outcome& outcome);

struct Op {
  std::string name;
  bool seeded = false;  // inputs depend on --seed
  std::function<Outcome()> run;
  std::function<Outcome(Tracer*)> direct;
};

// Input sizes: kFull is the benchmark, kSmoke a seconds-long variant for
// the benchmark's own test.
enum class Size { kFull, kSmoke };

const std::vector<std::string>& WorkloadNames();

// Builds the workload's inputs from `seed` (topologies, systems, fault
// schedules, degraded link sets, job streams) and runs one untimed warm-up
// op at the workload's smallest size. Everything here counts as set-up.
std::vector<Op> SetUpWorkload(const std::string& workload, std::uint64_t seed,
                              Size size);

}  // namespace perfbench
