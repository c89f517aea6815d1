// Section 3.3 ablation: the optimized global summation.
//   * 2-D (Y-ring reduce-scatter -> X -> broadcast back) vs a single 1-D
//     snake ring over the whole mesh,
//   * bfloat16 vs float32 gradient payloads,
//   * bidirectional vs unidirectional rings,
//   * X-vs-Y traffic asymmetry ("32 times less data along X").
// All timings are simulated interconnect time from the discrete-event model.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "collectives/all_reduce.h"
#include "network/network.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace {

using namespace tpu;

struct RunResult {
  SimTime seconds;
  net::TrafficStats traffic;
};

RunResult RunSummation(int pods, std::int64_t elems, bool two_d, bool bf16,
                       bool bidirectional) {
  topo::MeshTopology topo(topo::TopologyConfig::Multipod(pods));
  sim::Simulator simulator;
  net::Network network(&topo, net::NetworkConfig{}, &simulator);
  coll::GradientSummationConfig config;
  config.elems = elems;
  config.collective.bfloat16_wire = bf16;
  config.collective.bidirectional = bidirectional;
  RunResult result;
  result.seconds = two_d
                       ? coll::TwoDGradientSummation(network, config).total()
                       : coll::OneDGradientSummation(network, config);
  result.traffic = network.traffic();
  return result;
}

}  // namespace

int main() {
  using namespace tpu;
  // --smoke (CI): a 1M-gradient payload on one pod, every section still run.
  const bool smoke = bench::Smoke();
  // ResNet-50 gradients.
  const std::int64_t elems = smoke ? 1'000'000 : 25'600'000;
  const std::vector<int> pod_counts =
      smoke ? std::vector<int>{1} : std::vector<int>{1, 2, 4};
  // The scale of every section after the first.
  const int max_pods = pod_counts.back();

  char title[64];
  std::snprintf(title, sizeof(title),
                "Global summation ablation (%.1fM gradients)",
                static_cast<double>(elems) / 1e6);
  bench::Header(title, "Kumar et al., MLSys 2021, Section 3.3");
  bench::Row("%6s %6s %6s %6s | %12s", "pods", "algo", "dtype", "bidir",
             "sim time(ms)");
  for (int pods : pod_counts) {
    for (bool two_d : {false, true}) {
      const auto result = RunSummation(pods, elems, two_d, true, true);
      bench::Row("%6d %6s %6s %6s | %12.3f", pods, two_d ? "2-D" : "1-D",
                 "bf16", "yes", ToMillis(result.seconds));
    }
  }

  std::printf("\nChunk-pipelined schedule (%d pods, 2-D, bf16): overlapping the\n"
              "Y and X phases across payload slices:\n",
              max_pods);
  bench::Row("%8s | %12s", "chunks", "sim time(ms)");
  for (int chunks : {1, 2, 4, 8}) {
    topo::MeshTopology topo(topo::TopologyConfig::Multipod(max_pods));
    sim::Simulator simulator;
    net::Network network(&topo, net::NetworkConfig{}, &simulator);
    coll::GradientSummationConfig config;
    config.elems = elems;
    const SimTime t =
        coll::PipelinedTwoDGradientSummation(network, config, chunks).total();
    bench::Row("%8d | %12.3f", chunks, ToMillis(t));
  }

  std::printf("\nPayload precision and ring direction (%d pods, 2-D):\n",
              max_pods);
  bench::Row("%6s %6s | %12s", "dtype", "bidir", "sim time(ms)");
  for (bool bf16 : {false, true}) {
    for (bool bidirectional : {false, true}) {
      const auto result =
          RunSummation(max_pods, elems, true, bf16, bidirectional);
      bench::Row("%6s %6s | %12.3f", bf16 ? "bf16" : "f32",
                 bidirectional ? "yes" : "no", ToMillis(result.seconds));
    }
  }

  std::printf("\nTraffic asymmetry (%d pods, 2-D, bf16): Section 3.3 says the\n"
              "X dimension carries 32x less payload than Y:\n",
              max_pods);
  const auto traffic = RunSummation(max_pods, elems, true, true, true).traffic;
  const double y_bytes = static_cast<double>(traffic.mesh_y_bytes +
                                             traffic.wrap_y_bytes);
  const double x_bytes = static_cast<double>(traffic.mesh_x_bytes +
                                             traffic.cross_pod_x_bytes);
  bench::Row("  Y-link bytes: %.3e   X-link bytes: %.3e   ratio: %.1f",
             y_bytes, x_bytes, y_bytes / x_bytes);
  bench::Row("  (X rings are folded on the mesh dimension — each ring edge is"
             " 2 hops —\n   so the per-ring-edge payload ratio is %.1f,"
             " matching the paper's 32x)",
             2.0 * y_bytes / x_bytes);
  return 0;
}
