#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "topology/topology.h"

namespace tpu::topo {
namespace {

TEST(TopologyConfig, MultipodDimensions) {
  const TopologyConfig config = TopologyConfig::Multipod(4);
  EXPECT_EQ(config.size_x(), 128);
  EXPECT_EQ(config.size_y(), 32);
  EXPECT_EQ(config.num_chips(), 4096);
}

TEST(MeshTopology, PaperMultipodShape) {
  const MeshTopology topo(TopologyConfig::Multipod(4));
  EXPECT_EQ(topo.num_chips(), 4096);
  EXPECT_EQ(topo.num_cores(), 8192);
  EXPECT_EQ(topo.num_hosts(), 1024);  // 4 chips per host
}

TEST(MeshTopology, ChipCoordinateRoundTrip) {
  const MeshTopology topo(TopologyConfig::Slice(8, 4, true));
  for (int chip = 0; chip < topo.num_chips(); ++chip) {
    EXPECT_EQ(topo.ChipAt(topo.CoordOf(chip)), chip);
  }
}

TEST(MeshTopology, SparseRoutingFitsTable) {
  const MeshTopology topo(TopologyConfig::Multipod(4));
  // 128 + 32 - 2 = 158 entries, well under the 1024-entry TPU-v3 table.
  EXPECT_EQ(topo.MaxRoutingEntriesUsed(), 158);
  EXPECT_LE(topo.MaxRoutingEntriesUsed(), 1024);
  const auto visible = topo.VisibleChips(topo.ChipAt({5, 5}));
  EXPECT_EQ(static_cast<int>(visible.size()), 158);
}

TEST(MeshTopology, CrossPodLinksAtPodBoundaries) {
  const MeshTopology topo(TopologyConfig::Multipod(4));
  int cross_pod = 0;
  for (const Link& link : topo.links()) {
    if (link.type == LinkType::kCrossPodX) ++cross_pod;
  }
  // 3 pod boundaries x 32 rows x 2 directions.
  EXPECT_EQ(cross_pod, 3 * 32 * 2);
  EXPECT_TRUE(topo.IsCrossPodBoundary(31));
  EXPECT_TRUE(topo.IsCrossPodBoundary(63));
  EXPECT_FALSE(topo.IsCrossPodBoundary(30));
  EXPECT_FALSE(topo.IsCrossPodBoundary(127));  // machine edge, no link
}

TEST(MeshTopology, YWrapLinksPresentOnlyWithTorus) {
  const MeshTopology torus(TopologyConfig::Slice(4, 8, /*wrap_y=*/true));
  const MeshTopology mesh(TopologyConfig::Slice(4, 8, /*wrap_y=*/false));
  auto count_wrap = [](const MeshTopology& t) {
    int n = 0;
    for (const Link& link : t.links()) {
      if (link.type == LinkType::kWrapY) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_wrap(torus), 4 * 2);  // one wrap per column, both directions
  EXPECT_EQ(count_wrap(mesh), 0);
}

TEST(MeshTopology, RouteIsDimensionOrderedAndConnected) {
  const MeshTopology topo(TopologyConfig::Multipod(2));
  const ChipId from = topo.ChipAt({3, 7});
  const ChipId to = topo.ChipAt({40, 2});
  const auto path = topo.Route(from, to);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), from);
  EXPECT_EQ(path.back(), to);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(topo.AreNeighbors(path[i], path[i + 1]))
        << "hop " << i << ": " << path[i] << "->" << path[i + 1];
  }
  // X travels first: the y coordinate must stay 7 until x reaches 40.
  bool seen_y_move = false;
  for (ChipId chip : path) {
    const Coord c = topo.CoordOf(chip);
    if (c.y != 7) seen_y_move = true;
    if (seen_y_move) {
      EXPECT_EQ(c.x, 40);
    }
  }
}

TEST(MeshTopology, RouteUsesYWrapShortcut) {
  const MeshTopology topo(TopologyConfig::Slice(4, 8, /*wrap_y=*/true));
  // y=0 -> y=7 should be one wrap hop, not 7 mesh hops.
  const auto path = topo.Route(topo.ChipAt({0, 0}), topo.ChipAt({0, 7}));
  EXPECT_EQ(path.size(), 2u);
}

TEST(MeshTopology, RouteWithoutWrapGoesTheLongWay) {
  const MeshTopology topo(TopologyConfig::Slice(4, 8, /*wrap_y=*/false));
  const auto path = topo.Route(topo.ChipAt({0, 0}), topo.ChipAt({0, 7}));
  EXPECT_EQ(path.size(), 8u);
}

// The pre-ForEachRouteLink route walk: step coordinates X then Y, taking
// the shorter direction on a torus, and look each hop's link up by
// neighbour.
std::vector<LinkId> ReferenceRouteLinks(const MeshTopology& topo, ChipId from,
                                        ChipId to) {
  auto steps = [](int a, int b, int size, bool wrap) {
    std::vector<int> out;
    if (a == b) return out;
    int direction = b > a ? 1 : -1;
    if (wrap) {
      direction = (b - a + size) % size <= (a - b + size) % size ? 1 : -1;
    }
    for (int cur = a; cur != b;) {
      cur = (cur + direction + size) % size;
      out.push_back(cur);
    }
    return out;
  };
  const Coord a = topo.CoordOf(from);
  const Coord b = topo.CoordOf(to);
  std::vector<ChipId> path{from};
  for (const int x : steps(a.x, b.x, topo.size_x(), topo.config().wrap_x)) {
    path.push_back(topo.ChipAt({x, a.y}));
  }
  for (const int y : steps(a.y, b.y, topo.size_y(), topo.config().wrap_y)) {
    path.push_back(topo.ChipAt({b.x, y}));
  }
  std::vector<LinkId> links;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    links.push_back(topo.LinkBetween(path[i], path[i + 1]));
  }
  return links;
}

TEST(MeshTopology, ForEachRouteLinkVisitsTheRouteInOrder) {
  TopologyConfig wrap_x = TopologyConfig::Slice(5, 3, true);
  wrap_x.wrap_x = true;
  // A 2-long torus dimension has no wrap links: its "wrap" step must take
  // the mesh link back.
  for (const TopologyConfig& config :
       {TopologyConfig::Slice(8, 8, true), TopologyConfig::Slice(6, 5, false),
        TopologyConfig::Slice(4, 2, true), TopologyConfig::Slice(2, 3, true),
        TopologyConfig::Multipod(2), wrap_x}) {
    const MeshTopology topo(config);
    SCOPED_TRACE(topo.ToString());
    const int stride = std::max(1, topo.num_chips() / 48);
    for (ChipId from = 0; from < topo.num_chips(); from += stride) {
      for (ChipId to = 0; to < topo.num_chips(); ++to) {
        std::vector<LinkId> visited;
        topo.ForEachRouteLink(from, to,
                              [&](LinkId id) { visited.push_back(id); });
        const std::vector<LinkId> expected =
            ReferenceRouteLinks(topo, from, to);
        ASSERT_EQ(visited, expected) << from << "->" << to;
        ASSERT_EQ(topo.RouteLinks(from, to), expected);
        const std::vector<ChipId> path = topo.Route(from, to);
        ASSERT_EQ(path.size(), expected.size() + 1);
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(topo.link(expected[i]).to, path[i + 1]);
        }
      }
    }
  }
}

TEST(MeshTopology, SelfRouteIsSingleton) {
  const MeshTopology topo(TopologyConfig::Slice(4, 4, true));
  EXPECT_EQ(topo.Route(5, 5).size(), 1u);
  EXPECT_TRUE(topo.RouteLinks(5, 5).empty());
}

TEST(MeshTopology, YRingIsNaturalOnTorus) {
  const MeshTopology topo(TopologyConfig::Slice(4, 8, /*wrap_y=*/true));
  const auto ring = topo.RingAlong(Dim::kY, topo.ChipAt({2, 3}));
  ASSERT_EQ(ring.size(), 8u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(topo.CoordOf(ring[i]).y, static_cast<int>(i));
    EXPECT_EQ(topo.CoordOf(ring[i]).x, 2);
  }
  // Consecutive ring positions (including the wrap edge) are neighbors.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_TRUE(topo.AreNeighbors(ring[i], ring[(i + 1) % ring.size()]));
  }
}

TEST(MeshTopology, XRingIsFoldedOnMesh) {
  const MeshTopology topo(TopologyConfig::Slice(8, 4, true));
  const auto ring = topo.RingAlong(Dim::kX, topo.ChipAt({0, 1}));
  ASSERT_EQ(ring.size(), 8u);
  // Folded order: 0,2,4,6,7,5,3,1.
  std::vector<int> xs;
  for (ChipId chip : ring) xs.push_back(topo.CoordOf(chip).x);
  EXPECT_EQ(xs, (std::vector<int>{0, 2, 4, 6, 7, 5, 3, 1}));
  // Every chip on the line appears exactly once.
  std::set<int> unique(xs.begin(), xs.end());
  EXPECT_EQ(unique.size(), 8u);
  // Consecutive positions are at most 2 physical hops apart (folding).
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const int a = xs[i], b = xs[(i + 1) % ring.size()];
    EXPECT_LE(std::abs(a - b), 2);
  }
}

class FoldedRingProperty : public ::testing::TestWithParam<int> {};

TEST_P(FoldedRingProperty, CoversLineOnceWithBoundedHops) {
  const int size_x = GetParam();
  const MeshTopology topo(TopologyConfig::Slice(size_x, 2, false));
  const auto ring = topo.RingAlong(Dim::kX, topo.ChipAt({0, 0}));
  ASSERT_EQ(static_cast<int>(ring.size()), size_x);
  std::set<ChipId> unique(ring.begin(), ring.end());
  EXPECT_EQ(static_cast<int>(unique.size()), size_x);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const int a = topo.CoordOf(ring[i]).x;
    const int b = topo.CoordOf(ring[(i + 1) % ring.size()]).x;
    EXPECT_LE(std::abs(a - b), 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FoldedRingProperty,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 16, 31, 32, 128));

TEST(MeshTopology, StridedRingHopsOverModelPeers) {
  const MeshTopology topo(TopologyConfig::Slice(16, 4, true));
  // Stride 4 (transformer model parallelism): ring over x = 1, 5, 9, 13.
  const auto ring = topo.StridedRingAlong(Dim::kX, topo.ChipAt({5, 2}), 4);
  std::set<int> xs;
  for (ChipId chip : ring) {
    EXPECT_EQ(topo.CoordOf(chip).y, 2);
    xs.insert(topo.CoordOf(chip).x);
  }
  EXPECT_EQ(xs, (std::set<int>{1, 5, 9, 13}));
}

TEST(MeshTopology, StridedRingsPartitionTheLine) {
  const MeshTopology topo(TopologyConfig::Slice(16, 2, true));
  std::set<ChipId> all;
  for (int offset = 0; offset < 4; ++offset) {
    for (ChipId chip :
         topo.StridedRingAlong(Dim::kX, topo.ChipAt({offset, 0}), 4)) {
      EXPECT_TRUE(all.insert(chip).second) << "chip in two strided rings";
    }
  }
  EXPECT_EQ(static_cast<int>(all.size()), 16);
}

TEST(MeshTopology, HostsPartitionChips) {
  const MeshTopology topo(TopologyConfig::Slice(8, 4, true));
  EXPECT_EQ(topo.num_hosts(), 8);
  std::set<ChipId> seen;
  for (HostId host = 0; host < topo.num_hosts(); ++host) {
    for (ChipId chip : topo.ChipsOfHost(host)) {
      EXPECT_EQ(topo.HostOf(chip), host);
      EXPECT_TRUE(seen.insert(chip).second);
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), topo.num_chips());
}

TEST(MeshTopology, LinkBetweenFindsBothDirections) {
  const MeshTopology topo(TopologyConfig::Slice(4, 4, true));
  const ChipId a = topo.ChipAt({1, 1});
  const ChipId b = topo.ChipAt({2, 1});
  const Link& ab = topo.link(topo.LinkBetween(a, b));
  const Link& ba = topo.link(topo.LinkBetween(b, a));
  EXPECT_EQ(ab.from, a);
  EXPECT_EQ(ab.to, b);
  EXPECT_EQ(ba.from, b);
  EXPECT_EQ(ba.to, a);
}

TEST(SubmeshRect, AreaAndPerimeterHandleEmptyRects) {
  const SubmeshRect rect{2, 3, 4, 2};
  EXPECT_EQ(rect.area(), 8);
  EXPECT_EQ(rect.perimeter(), 12);
  EXPECT_FALSE(rect.empty());

  const SubmeshRect zero;
  EXPECT_EQ(zero.area(), 0);
  EXPECT_EQ(zero.perimeter(), 0);
  EXPECT_TRUE(zero.empty());

  const SubmeshRect negative{0, 0, -3, 4};
  EXPECT_EQ(negative.area(), 0);
  EXPECT_EQ(negative.perimeter(), 0);
  EXPECT_TRUE(negative.empty());
}

TEST(SubmeshRect, ContainsRectRequiresFullEnclosure) {
  const SubmeshRect outer{0, 0, 8, 8};
  EXPECT_TRUE(outer.Contains(SubmeshRect{0, 0, 8, 8}));
  EXPECT_TRUE(outer.Contains(SubmeshRect{2, 2, 4, 4}));
  EXPECT_FALSE(outer.Contains(SubmeshRect{6, 6, 4, 4}));  // spills over
  EXPECT_FALSE(outer.Contains(SubmeshRect{-1, 0, 4, 4}));
  // An empty rect is contained nowhere.
  EXPECT_FALSE(outer.Contains(SubmeshRect{3, 3, 0, 0}));
  EXPECT_TRUE(outer.Contains(Coord{7, 7}));
  EXPECT_FALSE(outer.Contains(Coord{8, 7}));
}

TEST(SubmeshRect, IntersectsSharesAChipNotJustAnEdge) {
  const SubmeshRect a{0, 0, 4, 4};
  EXPECT_TRUE(a.Intersects(SubmeshRect{3, 3, 4, 4}));  // one shared chip
  EXPECT_TRUE(a.Intersects(a));
  // Touching edges are adjacency, not overlap — adjacent slices co-exist.
  EXPECT_FALSE(a.Intersects(SubmeshRect{4, 0, 4, 4}));
  EXPECT_FALSE(a.Intersects(SubmeshRect{0, 4, 4, 4}));
  EXPECT_FALSE(a.Intersects(SubmeshRect{5, 5, 2, 2}));
  // Empty rects intersect nothing, not even themselves.
  const SubmeshRect zero{1, 1, 0, 0};
  EXPECT_FALSE(a.Intersects(zero));
  EXPECT_FALSE(zero.Intersects(a));
  EXPECT_FALSE(zero.Intersects(zero));
}

TEST(MeshTopology, ToStringMentionsShape) {
  const MeshTopology topo(TopologyConfig::Multipod(4));
  const std::string s = topo.ToString();
  EXPECT_NE(s.find("128x32"), std::string::npos);
  EXPECT_NE(s.find("4096"), std::string::npos);
}

}  // namespace
}  // namespace tpu::topo
