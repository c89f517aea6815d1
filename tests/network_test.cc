#include <gtest/gtest.h>

#include "network/network.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace tpu::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : topo_(topo::TopologyConfig::Slice(8, 8, /*wrap_y=*/true)),
        network_(&topo_, MakeConfig(), &simulator_) {}

  static NetworkConfig MakeConfig() {
    NetworkConfig config;
    config.mesh_x = {GBps(10.0), Micros(1.0)};
    config.mesh_y = {GBps(10.0), Micros(1.0)};
    config.wrap_y = {GBps(10.0), Micros(1.0)};
    config.cross_pod_x = {GBps(10.0), Micros(5.0)};
    config.message_overhead = Micros(2.0);
    return config;
  }

  topo::MeshTopology topo_;
  sim::Simulator simulator_;
  Network network_;
};

TEST_F(NetworkTest, SingleHopTiming) {
  SimTime done_at = -1;
  network_.Send(topo_.ChipAt({0, 0}), topo_.ChipAt({1, 0}), 10000,
                [&] { done_at = simulator_.now(); });
  simulator_.Run();
  // overhead (2us) + serialize (10000 B / 10 GB/s = 1us) + latency (1us).
  EXPECT_NEAR(done_at, Micros(4.0), 1e-12);
}

TEST_F(NetworkTest, MultiHopStoreAndForward) {
  SimTime done_at = -1;
  network_.Send(topo_.ChipAt({0, 0}), topo_.ChipAt({3, 0}), 10000,
                [&] { done_at = simulator_.now(); });
  simulator_.Run();
  // overhead + 3 x (serialize + latency) = 2 + 3 * 2 = 8us.
  EXPECT_NEAR(done_at, Micros(8.0), 1e-12);
}

TEST_F(NetworkTest, ContendingMessagesSerializeOnSharedLink) {
  SimTime first = -1, second = -1;
  const auto a = topo_.ChipAt({0, 0});
  const auto b = topo_.ChipAt({1, 0});
  network_.Send(a, b, 10000, [&] { first = simulator_.now(); });
  network_.Send(a, b, 10000, [&] { second = simulator_.now(); });
  simulator_.Run();
  EXPECT_NEAR(first, Micros(4.0), 1e-12);
  // Second message queues behind the first's serialization (1us).
  EXPECT_NEAR(second, Micros(5.0), 1e-12);
}

TEST_F(NetworkTest, OppositeDirectionsDoNotContend) {
  SimTime ab = -1, ba = -1;
  const auto a = topo_.ChipAt({0, 0});
  const auto b = topo_.ChipAt({1, 0});
  network_.Send(a, b, 10000, [&] { ab = simulator_.now(); });
  network_.Send(b, a, 10000, [&] { ba = simulator_.now(); });
  simulator_.Run();
  EXPECT_NEAR(ab, Micros(4.0), 1e-12);
  EXPECT_NEAR(ba, Micros(4.0), 1e-12);  // full duplex
}

TEST_F(NetworkTest, ZeroByteMessageStillPaysLatency) {
  SimTime done_at = -1;
  network_.Send(topo_.ChipAt({0, 0}), topo_.ChipAt({1, 0}), 0,
                [&] { done_at = simulator_.now(); });
  simulator_.Run();
  EXPECT_NEAR(done_at, Micros(3.0), 1e-12);  // overhead + latency
}

TEST_F(NetworkTest, SelfSendCostsOnlyOverhead) {
  SimTime done_at = -1;
  network_.Send(5, 5, 1 << 20, [&] { done_at = simulator_.now(); });
  simulator_.Run();
  EXPECT_NEAR(done_at, Micros(2.0), 1e-12);
}

TEST_F(NetworkTest, TrafficAccountingByLinkType) {
  network_.Send(topo_.ChipAt({0, 0}), topo_.ChipAt({2, 0}), 1000, [] {});
  network_.Send(topo_.ChipAt({0, 0}), topo_.ChipAt({0, 7}), 1000, [] {});
  simulator_.Run();
  // First: 2 X hops. Second: 1 Y wrap hop (shortcut).
  EXPECT_EQ(network_.traffic().mesh_x_bytes, 2000);
  EXPECT_EQ(network_.traffic().wrap_y_bytes, 1000);
  EXPECT_EQ(network_.traffic().mesh_y_bytes, 0);
  EXPECT_EQ(network_.traffic().messages, 2);
  EXPECT_EQ(network_.traffic().total_bytes(), 3000);
}

TEST_F(NetworkTest, EstimateArrivalMatchesIdleSend) {
  const auto a = topo_.ChipAt({0, 0});
  const auto b = topo_.ChipAt({3, 0});
  const SimTime estimate = network_.EstimateArrival(a, b, 10000);
  SimTime done_at = -1;
  network_.Send(a, b, 10000, [&] { done_at = simulator_.now(); });
  simulator_.Run();
  EXPECT_NEAR(estimate, done_at, 1e-12);
}

TEST(NetworkCrossPod, CrossPodLatencyIsHigher) {
  topo::MeshTopology topo(topo::TopologyConfig::Multipod(2));
  sim::Simulator simulator;
  NetworkConfig config;
  Network network(&topo, config, &simulator);

  // Within-pod hop 30->31 vs cross-pod hop 31->32 on the same row.
  SimTime within = -1, cross = -1;
  network.Send(topo.ChipAt({30, 0}), topo.ChipAt({31, 0}), 1000,
               [&] { within = simulator.now(); });
  simulator.Run();
  const SimTime t0 = simulator.now();
  network.Send(topo.ChipAt({31, 0}), topo.ChipAt({32, 0}), 1000,
               [&] { cross = simulator.now(); });
  simulator.Run();
  EXPECT_GT(cross - t0, within);
  EXPECT_GT(network.traffic().cross_pod_x_bytes, 0);
}

TEST(NetworkUtilization, ReportsBusyFraction) {
  topo::MeshTopology topo(topo::TopologyConfig::Slice(2, 2, false));
  sim::Simulator simulator;
  NetworkConfig config;
  config.mesh_x = {GBps(1.0), 0.0};
  config.message_overhead = 0.0;
  Network network(&topo, config, &simulator);
  // 1 GB at 1 GB/s = 1s busy on one link.
  network.Send(0, 1, 1'000'000'000, [] {});
  simulator.Run();
  EXPECT_NEAR(network.MaxLinkUtilization(), 1.0, 1e-9);
}

}  // namespace
}  // namespace tpu::net
