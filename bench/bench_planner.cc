// The collective planner: searched schedules vs the paper's fixed 2-D rings.
//
// Three experiments:
//   1. Healthy scaling sweep (BERT-scale payload): at every scale the search
//      must rediscover the paper's ring 2-D [Y->X] bidirectional bf16
//      schedule, and on the 4-pod 128x32 multipod its discrete-event time
//      must be bit-identical to the fixed TwoDGradientSummation. Both run
//      PaperPlan through the one lowering and stage runner, so this checks
//      the wrapper's result mapping. Asserted, not just printed (CI greps
//      the plan dump for the golden name).
//   2. Degraded mesh: one dead Y-torus link mid-mesh stalls every 2-D
//      schedule. The monitored execution detects the stall via its phase
//      deadline, re-plans under the observed link health, and the flat snake
//      ring (which never turns mid-mesh) finishes in milliseconds while the
//      fixed schedule is stuck for simulated hours.
//   3. Chunk-pipelined search: raising max_chunks lets the planner weigh
//      pipelined variants of the canonical shape.
//
// TPU_BENCH_PLAN_DUMP=PATH writes the chosen golden plan and the full ranked
// candidate list to PATH (the CI artifact). --json=PATH writes the purely
// simulated results (no wall clock) as JSON: identical builds produce
// byte-identical files, which is what tools/bench_compare.py diffs against
// the committed baseline as a bit-exactness gate.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "collectives/all_reduce.h"
#include "core/multipod.h"
#include "fault/health_monitor.h"
#include "network/network.h"
#include "plan/cost.h"
#include "plan/generator.h"
#include "plan/planner.h"
#include "plan/schedule.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace {

constexpr std::int64_t kBertElems = 340 * 1000 * 1000;  // ~340M parameters

// %.17g: doubles round-trip exactly, so the JSON is a bit-exactness probe.
std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double FixedScheduleMs(const tpu::topo::MeshTopology& topo,
                       std::int64_t elems) {
  tpu::sim::Simulator simulator;
  tpu::net::Network network(&topo, tpu::net::NetworkConfig{}, &simulator);
  tpu::coll::GradientSummationConfig config;
  config.elems = elems;
  config.collective.bfloat16_wire = true;
  return tpu::ToMillis(
      tpu::coll::TwoDGradientSummation(network, config).total());
}

}  // namespace

int main() {
  using namespace tpu;
  bench::Header("Collective planner — searched schedules vs fixed 2-D rings",
                "planner extension of the Section 3.3 schedule");
  const bool smoke = bench::Smoke();
  const char* kGolden = "ring-2d[Y->X] bidir bf16";
  int failures = 0;
  std::ostringstream json_healthy, json_degraded, json_chunked;

  // 1. Healthy sweep: the search must converge on the paper's schedule.
  bench::Row("%5s | %-26s %10s %10s %6s | %10s", "chips", "chosen plan",
             "plan_ms", "est_ms", "cands", "fixed_ms");
  const std::vector<int> scales =
      smoke ? std::vector<int>{256, 4096}
            : std::vector<int>{256, 512, 1024, 2048, 4096};
  for (const int chips : scales) {
    const topo::MeshTopology topo(core::TopologyForChips(chips));
    plan::PlanRequest request;
    request.elems = kBertElems;
    request.des_top_k = 2;
    const plan::PlannerResult best =
        plan::FindBestPlan(topo, net::NetworkConfig{}, request);
    const double fixed_ms = FixedScheduleMs(topo, request.elems);
    bench::Row("%5d | %-26s %10.4f %10.4f %6d | %10.4f", chips,
               best.plan.name().c_str(), ToMillis(best.predicted_seconds),
               ToMillis(best.estimated_seconds), best.candidates, fixed_ms);
    if (json_healthy.tellp() > 0) json_healthy << ",";
    json_healthy << "{\"chips\":" << chips << ",\"plan\":\""
                 << best.plan.name() << "\",\"predicted_ms\":"
                 << Num(ToMillis(best.predicted_seconds))
                 << ",\"estimated_ms\":"
                 << Num(ToMillis(best.estimated_seconds))
                 << ",\"candidates\":" << best.candidates
                 << ",\"fixed_ms\":" << Num(fixed_ms) << "}";
    if (best.plan.name() != kGolden) {
      std::fprintf(stderr, "FAIL: %d chips chose '%s', want '%s'\n", chips,
                   best.plan.name().c_str(), kGolden);
      ++failures;
    }
    if (chips == 4096) {
      // The acceptance check: on the healthy 128x32 multipod the planned
      // time must be the bitwise same number as the fixed schedule's.
      if (ToMillis(best.predicted_seconds) != fixed_ms) {
        std::fprintf(stderr,
                     "FAIL: 4096-chip planned time %.9f ms != fixed %.9f ms\n",
                     ToMillis(best.predicted_seconds), fixed_ms);
        ++failures;
      }
      if (const char* path = std::getenv("TPU_BENCH_PLAN_DUMP")) {
        std::ofstream out(path);
        out << "topology: " << topo.size_x() << "x" << topo.size_y() << "\n"
            << "elems: " << request.elems << "\n"
            << "plan: " << best.plan.name() << "\n"
            << "predicted_ms: " << ToMillis(best.predicted_seconds) << "\n"
            << "fixed_ms: " << fixed_ms << "\n"
            << "candidates (closed-form estimate):\n";
        for (const plan::CollectivePlan& candidate :
             plan::GeneratePlans(topo, request)) {
          const plan::LoweredPlan lowered =
              plan::LowerPlan(topo, candidate, request.elems);
          out << "  " << candidate.name() << ": "
              << ToMillis(plan::EstimatePlanSeconds(topo, net::NetworkConfig{},
                                                    {}, lowered))
              << " ms\n";
        }
        std::fprintf(stderr, "plan dump -> %s\n", path);
      }
    }
  }

  // 2. Degraded mesh: a dead Y link mid-column on a 16x8 slice. Every 2-D
  // schedule routes a column ring through it; only the flat snake survives.
  bench::Header("Degraded mesh — replanning around a dead Y link (16x8)",
                "fault-driven replanning");
  const topo::TopologyConfig slice = topo::TopologyConfig::Slice(16, 8, true);
  for (const bool with_planner : {false, true}) {
    topo::MeshTopology topo(slice);
    sim::Simulator simulator;
    net::Network network(&topo, net::NetworkConfig{}, &simulator);
    network.FailLink(topo.LinkBetween(topo.ChipAt({5, 3}), topo.ChipAt({5, 4})));
    network.FailLink(topo.LinkBetween(topo.ChipAt({5, 4}), topo.ChipAt({5, 3})));

    plan::PlanRequest request;
    request.elems = 1 << 22;
    if (!with_planner) {
      // The fixed schedule just waits out the stall.
      coll::GradientSummationConfig config;
      config.elems = request.elems;
      config.collective.bfloat16_wire = true;
      const SimTime stalled =
          coll::TwoDGradientSummation(network, config).total();
      bench::Row("fixed 2-D rings      : %12.1f s (stalled on the dead link)",
                 stalled);
      json_degraded << "\"fixed_s\":" << Num(stalled);
      continue;
    }
    fault::HealthMonitor monitor;
    plan::PlanCache cache;
    const plan::MitigatedSummation outcome = plan::ExecuteWithReplanning(
        network, request, plan::PaperPlan(request), monitor, &cache);
    bench::Row("planned, monitored   : detected at %.4f s, replanned to %s",
               outcome.detected_at, outcome.replan.plan.name().c_str());
    bench::Row("                       retry %.4f s vs first attempt %.1f s",
               outcome.second.total(), outcome.first.total());
    json_degraded << ",\"detected_at_s\":" << Num(outcome.detected_at)
                  << ",\"replan\":\"" << outcome.replan.plan.name()
                  << "\",\"first_s\":" << Num(outcome.first.total())
                  << ",\"retry_s\":" << Num(outcome.second.total());
    if (!outcome.replanned ||
        outcome.second.total() >= outcome.first.total()) {
      std::fprintf(stderr, "FAIL: replanned schedule did not beat the fixed "
                           "one on the degraded mesh\n");
      ++failures;
    }
  }

  // 3. Chunk-pipelined candidates on a 512-chip slice.
  bench::Header("Chunk-pipelined search — max_chunks sweep (32x16)",
                "pipelined variant of the Section 3.3 schedule");
  bench::Row("%10s | %-30s %10s", "max_chunks", "chosen plan", "plan_ms");
  const topo::MeshTopology pod(core::TopologyForChips(512));
  for (const int max_chunks : {1, 4, 8}) {
    plan::PlanRequest request;
    request.elems = smoke ? (1 << 22) : kBertElems;
    request.max_chunks = max_chunks;
    const plan::PlannerResult best =
        plan::FindBestPlan(pod, net::NetworkConfig{}, request);
    bench::Row("%10d | %-30s %10.4f", max_chunks, best.plan.name().c_str(),
               ToMillis(best.predicted_seconds));
    if (json_chunked.tellp() > 0) json_chunked << ",";
    json_chunked << "{\"max_chunks\":" << max_chunks << ",\"plan\":\""
                 << best.plan.name() << "\",\"predicted_ms\":"
                 << Num(ToMillis(best.predicted_seconds)) << "}";
  }

  // --json: only simulated quantities, so identical builds produce
  // byte-identical files (the bench_compare.py bit-exactness gate).
  if (!bench::JsonPath().empty()) {
    std::ofstream out(bench::JsonPath());
    out << "{\"smoke\":" << (smoke ? "true" : "false") << ",\"healthy\":["
        << json_healthy.str() << "],\"degraded\":{" << json_degraded.str()
        << "},\"chunked\":[" << json_chunked.str() << "]}\n";
    std::fprintf(stderr, "planner json -> %s\n", bench::JsonPath().c_str());
  }

  if (failures > 0) {
    std::fprintf(stderr, "%d planner check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall planner checks passed\n");
  return 0;
}
