#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "network/network.h"
#include "sim/event_observer.h"
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

// Records every completion seq and message record the network reports.
class MessageLog : public sim::EventObserver {
 public:
  void OnSchedule(std::uint64_t, std::int64_t, SimTime, SimTime) override {}
  void OnFire(std::uint64_t, SimTime) override {}
  void OnMessage(std::uint64_t seq, sim::MessageRecord record) override {
    messages.emplace_back(seq, std::move(record));
  }
  std::vector<std::pair<std::uint64_t, sim::MessageRecord>> messages;
};

void ExpectSameTraffic(const TrafficStats& a, const TrafficStats& b) {
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.mesh_x_bytes, b.mesh_x_bytes);
  EXPECT_EQ(a.mesh_y_bytes, b.mesh_y_bytes);
  EXPECT_EQ(a.wrap_y_bytes, b.wrap_y_bytes);
  EXPECT_EQ(a.cross_pod_x_bytes, b.cross_pod_x_bytes);
}

// Every completion seq and message record, field by field.
void ExpectSameMessages(const MessageLog& a, const MessageLog& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    const auto& [seq_a, rec_a] = a.messages[i];
    const auto& [seq_b, rec_b] = b.messages[i];
    EXPECT_EQ(seq_a, seq_b);
    EXPECT_EQ(rec_a.from, rec_b.from);
    EXPECT_EQ(rec_a.to, rec_b.to);
    EXPECT_EQ(rec_a.bytes, rec_b.bytes);
    EXPECT_EQ(rec_a.overhead, rec_b.overhead);
    ASSERT_EQ(rec_a.hops.size(), rec_b.hops.size());
    for (std::size_t h = 0; h < rec_a.hops.size(); ++h) {
      const sim::MessageHopRecord& x = rec_a.hops[h];
      const sim::MessageHopRecord& y = rec_b.hops[h];
      EXPECT_EQ(x.link, y.link);
      EXPECT_EQ(x.pod, y.pod);
      EXPECT_STREQ(x.type_name, y.type_name);
      EXPECT_EQ(x.queue, y.queue);
      EXPECT_EQ(x.serialize, y.serialize);
      EXPECT_EQ(x.healthy_serialize, y.healthy_serialize);
      EXPECT_EQ(x.latency, y.latency);
      EXPECT_EQ(x.start, y.start);
    }
  }
}

// One network driven through Send or through SendAlong on routes resolved
// up front; everything observable must match.
struct SendRig {
  explicit SendRig(const topo::MeshTopology* topo)
      : network(topo, NetworkConfig{}, &simulator) {}

  void Run(bool along) {
    const topo::MeshTopology& topo = network.topology();
    const std::vector<std::pair<topo::ChipId, topo::ChipId>> pairs = {
        {topo.ChipAt({0, 0}), topo.ChipAt({3, 2})},
        {topo.ChipAt({1, 0}), topo.ChipAt({3, 0})},
        {topo.ChipAt({3, 2}), topo.ChipAt({0, 0})},
        {topo.ChipAt({2, 1}), topo.ChipAt({2, 1})},  // self-send
        {topo.ChipAt({0, 3}), topo.ChipAt({0, 0})},  // Y wrap
    };
    std::vector<const Network::CachedRoute*> routes;
    for (const auto& [from, to] : pairs) {
      routes.push_back(&network.RouteFor(from, to));
    }
    // Degrade one link and fail another that the routes above cross.
    network.DegradeLink(topo.LinkBetween(topo.ChipAt({1, 0}),
                                         topo.ChipAt({2, 0})), 3.0);
    network.FailLink(topo.LinkBetween(topo.ChipAt({3, 1}),
                                      topo.ChipAt({3, 2})));
    sim::ScopedEventObserver scope(&log);
    for (int round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const Bytes bytes = 1000 * static_cast<Bytes>(i + 1) + round;
        auto record = [this] { arrivals.push_back(simulator.now()); };
        if (along) {
          network.SendAlong(*routes[i], bytes, record);
        } else {
          network.Send(pairs[i].first, pairs[i].second, bytes, record);
        }
      }
      simulator.Run();
    }
  }

  sim::Simulator simulator;
  Network network;
  MessageLog log;
  std::vector<SimTime> arrivals;
};

TEST(NetworkSendAlong, MatchesSendOnHealthyDegradedAndFailedLinks) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, true));
  SendRig sent(&topo), along(&topo);
  sent.Run(/*along=*/false);
  along.Run(/*along=*/true);

  EXPECT_EQ(sent.arrivals, along.arrivals);
  EXPECT_EQ(sent.simulator.events_processed(),
            along.simulator.events_processed());
  ExpectSameTraffic(sent.network.traffic(), along.network.traffic());
  for (const topo::Link& link : topo.links()) {
    EXPECT_EQ(sent.network.LinkUtilization(link.id),
              along.network.LinkUtilization(link.id));
  }
  // The failed link really stalled something, and the degraded one slowed
  // something, so all three link states were exercised.
  EXPECT_GT(sent.simulator.now(), Network::kFailedLinkStall);

  ASSERT_EQ(sent.log.messages.size(), 15u);
  ExpectSameMessages(sent.log, along.log);
  bool degraded_hop = false;
  for (const auto& [seq, record] : sent.log.messages) {
    for (const sim::MessageHopRecord& hop : record.hops) {
      if (hop.serialize == 3.0 * hop.healthy_serialize) degraded_hop = true;
    }
  }
  EXPECT_TRUE(degraded_hop);
}

// One network driven through SendWave, or through a SendAlong loop over the
// same messages: every chip messages its +X and then its +Y neighbour, most
// messages the same size, so runs of them arrive at the same instant.
struct WaveRig {
  explicit WaveRig(const topo::MeshTopology* topo)
      : network(topo, NetworkConfig{}, &simulator) {}

  void Run(bool wave, bool observed) {
    const topo::MeshTopology& topo = network.topology();
    std::vector<const Network::CachedRoute*> routes;
    for (const bool along_y : {false, true}) {
      for (topo::ChipId chip = 0; chip < topo.num_chips(); ++chip) {
        topo::Coord to = topo.CoordOf(chip);
        if (along_y) {
          to.y = (to.y + 1) % topo.size_y();
        } else {
          to.x = (to.x + 1) % topo.size_x();
        }
        routes.push_back(&network.RouteFor(chip, topo.ChipAt(to)));
      }
    }
    network.DegradeLink(topo.LinkBetween(topo.ChipAt({1, 0}),
                                         topo.ChipAt({2, 0})), 3.0);
    network.FailLink(topo.LinkBetween(topo.ChipAt({3, 1}),
                                      topo.ChipAt({3, 2})));
    std::optional<sim::ScopedEventObserver> scope;
    if (observed) scope.emplace(&log);
    for (int round = 0; round < 3; ++round) {
      const auto message_at = [&routes, round](int i) {
        return Network::WaveMessage{routes[i],
                                    i % 7 == 6 ? 4000 : 1000 + round};
      };
      const auto record = [this] { arrivals.push_back(simulator.now()); };
      const int count = static_cast<int>(routes.size());
      if (wave) {
        network.SendWave(count, message_at, record);
      } else {
        for (int i = 0; i < count; ++i) {
          const Network::WaveMessage message = message_at(i);
          network.SendAlong(*message.route, message.bytes, record);
        }
      }
      // The seq after the wave's: the wave took exactly one per message.
      next_seqs.push_back(simulator.Schedule(0.0, [] {}));
      simulator.Run();
    }
  }

  sim::Simulator simulator;
  Network network;
  MessageLog log;
  std::vector<SimTime> arrivals;
  std::vector<std::uint64_t> next_seqs;
};

TEST(NetworkSendWave, MatchesASendAlongLoopOnHealthyDegradedAndFailedLinks) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, true));
  for (const bool observed : {false, true}) {
    SCOPED_TRACE(observed ? "observed" : "unobserved");
    WaveRig wave(&topo), loop(&topo);
    wave.Run(/*wave=*/true, observed);
    loop.Run(/*wave=*/false, observed);

    EXPECT_EQ(wave.arrivals, loop.arrivals);
    EXPECT_EQ(wave.next_seqs, loop.next_seqs);
    EXPECT_EQ(wave.simulator.events_processed(),
              loop.simulator.events_processed());
    EXPECT_EQ(wave.simulator.events_scheduled(),
              loop.simulator.events_scheduled());
    EXPECT_EQ(wave.simulator.peak_queue_depth(),
              loop.simulator.peak_queue_depth());
    EXPECT_EQ(wave.simulator.callbacks_inline(),
              loop.simulator.callbacks_inline());
    ExpectSameTraffic(wave.network.traffic(), loop.network.traffic());
    for (const topo::Link& link : topo.links()) {
      EXPECT_EQ(wave.network.LinkUtilization(link.id),
                loop.network.LinkUtilization(link.id));
    }
    // Same-instant runs formed, and the failed link stalled a message.
    EXPECT_EQ(wave.arrivals.size(), 3u * 32u);
    EXPECT_NE(std::adjacent_find(wave.arrivals.begin(), wave.arrivals.end()),
              wave.arrivals.end());
    EXPECT_GT(wave.simulator.now(), Network::kFailedLinkStall);

    ASSERT_EQ(wave.log.messages.size(), observed ? 3u * 32u : 0u);
    ExpectSameMessages(wave.log, loop.log);
  }
}

TEST(NetworkRouteFor, ReferencesStayValidAsTheCacheGrows) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 16, true));
  sim::Simulator simulator;
  Network network(&topo, NetworkConfig{}, &simulator);
  const Network::CachedRoute& first = network.RouteFor(0, 17);
  const std::vector<Network::CachedHop> hops = first.hops;
  ASSERT_EQ(hops.size(), 2u);
  // 65536 further routes, one per ordered chip pair.
  for (topo::ChipId from = 0; from < topo.num_chips(); ++from) {
    for (topo::ChipId to = 0; to < topo.num_chips(); ++to) {
      const Network::CachedRoute& route = network.RouteFor(from, to);
      ASSERT_EQ(route.from, from);
      ASSERT_EQ(route.to, to);
    }
  }
  EXPECT_EQ(&network.RouteFor(0, 17), &first);
  EXPECT_EQ(first.from, 0);
  EXPECT_EQ(first.to, 17);
  ASSERT_EQ(first.hops.size(), hops.size());
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(first.hops[i].link, hops[i].link);
    EXPECT_EQ(first.hops[i].latency, hops[i].latency);
    EXPECT_EQ(first.hops[i].bandwidth, hops[i].bandwidth);
  }
  // Sends over the early reference still work.
  SimTime done_at = -1;
  network.SendAlong(first, 1000, [&] { done_at = simulator.now(); });
  simulator.Run();
  EXPECT_GT(done_at, 0.0);
}

}  // namespace
}  // namespace tpu::net
