#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "topology/simple.hpp"
#include "topology/transit_stub.hpp"
#include "util/rng.hpp"

namespace vdm::net {
namespace {

TEST(Router, LineTopologyDistances) {
  const Graph g = topo::make_line(5, 0.010);
  const double d = g.link(0).delay;  // 0.010 on the delay grid
  Router r(g);
  EXPECT_DOUBLE_EQ(r.delay(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.delay(0, 4), 4 * d);
  EXPECT_DOUBLE_EQ(r.delay(4, 0), 4 * d);
  EXPECT_DOUBLE_EQ(r.delay(1, 3), 2 * d);
}

TEST(Router, LinePathLinksInOrder) {
  const Graph g = topo::make_line(4, 0.010);
  Router r(g);
  const auto path = r.path(0, 3);
  ASSERT_EQ(path.size(), 3u);
  // Links were added in order 0-1, 1-2, 2-3.
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 1u);
  EXPECT_EQ(path[2], 2u);
}

TEST(Router, SelfPathIsEmpty) {
  const Graph g = topo::make_line(3);
  Router r(g);
  EXPECT_TRUE(r.path(1, 1).empty());
}

TEST(Router, RingTakesShorterArc) {
  const Graph g = topo::make_ring(6, 0.010);
  const double d = g.link(0).delay;
  Router r(g);
  EXPECT_DOUBLE_EQ(r.delay(0, 2), 2 * d);  // not 4 hops the long way
  EXPECT_EQ(r.path(0, 2).size(), 2u);
  EXPECT_DOUBLE_EQ(r.delay(0, 5), d);  // wrap-around link
  EXPECT_EQ(r.path(0, 5).size(), 1u);
}

TEST(Router, PicksLowerDelayOverFewerHops) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 2, 0.100);               // direct but slow
  const LinkId first = g.add_link(0, 1, 0.010);
  const LinkId second = g.add_link(1, 2, 0.010);  // two fast hops
  Router r(g);
  EXPECT_DOUBLE_EQ(r.delay(0, 2), g.link(first).delay + g.link(second).delay);
  EXPECT_EQ(r.path(0, 2).size(), 2u);
}

TEST(Router, ParallelLinksUseCheapest) {
  Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 0.050);
  const LinkId fast = g.add_link(0, 1, 0.010);
  Router r(g);
  EXPECT_DOUBLE_EQ(r.delay(0, 1), g.link(fast).delay);
  ASSERT_EQ(r.path(0, 1).size(), 1u);
  EXPECT_EQ(r.path(0, 1)[0], fast);
}

TEST(Router, UnreachableIsInfinite) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 0.010);
  Router r(g);
  EXPECT_TRUE(std::isinf(r.delay(0, 2)));
  EXPECT_TRUE(r.path(0, 2).empty());
}

TEST(Router, PathLossCompounds) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 0.010, 0.1);
  g.add_link(1, 2, 0.010, 0.2);
  Router r(g);
  EXPECT_NEAR(r.path_loss(0, 2), 1.0 - 0.9 * 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(r.path_loss(1, 1), 0.0);
}

TEST(Router, CacheInvalidatesOnGraphMutation) {
  Graph g;
  g.add_nodes(2);
  const LinkId slow = g.add_link(0, 1, 0.050);
  Router r(g);
  EXPECT_DOUBLE_EQ(r.delay(0, 1), g.link(slow).delay);
  // Bump the version with a faster parallel link.
  const LinkId fast = g.add_link(0, 1, 0.010);
  EXPECT_DOUBLE_EQ(r.delay(0, 1), g.link(fast).delay);
}

TEST(Router, GridDistancesAreManhattan) {
  const Graph g = topo::make_grid(4, 4, 0.010);
  Router r(g);
  // (0,0) -> (3,3): 6 hops of 10ms.
  EXPECT_NEAR(r.delay(0, 15), 6 * g.link(0).delay, 1e-12);
  EXPECT_EQ(r.path(0, 15).size(), 6u);
}

TEST(Router, SymmetricDistancesOnRandomTopology) {
  util::Rng rng(42);
  topo::TransitStubParams params;
  params.transit_domains = 2;
  params.routers_per_transit = 3;
  params.stub_domains_per_transit_router = 2;
  params.routers_per_stub = 3;
  const auto topo = topo::make_transit_stub(params, rng);
  Router r(topo.graph);
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = a + 1; b < 10; ++b) {
      EXPECT_NEAR(r.delay(a, b), r.delay(b, a), 1e-12);
    }
  }
}

TEST(Router, TriangleInequalityHoldsForShortestPaths) {
  util::Rng rng(7);
  topo::TransitStubParams params;
  params.transit_domains = 2;
  params.routers_per_transit = 2;
  params.stub_domains_per_transit_router = 2;
  params.routers_per_stub = 2;
  const auto topo = topo::make_transit_stub(params, rng);
  Router r(topo.graph);
  const auto n = static_cast<NodeId>(topo.graph.num_nodes());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      for (NodeId c = 0; c < n; ++c) {
        EXPECT_LE(r.delay(a, c), r.delay(a, b) + r.delay(b, c) + 1e-12);
      }
    }
  }
}

TEST(Router, PathDelaysSumToDistance) {
  util::Rng rng(11);
  topo::TransitStubParams params;
  params.transit_domains = 2;
  params.routers_per_transit = 3;
  params.stub_domains_per_transit_router = 1;
  params.routers_per_stub = 4;
  const auto topo = topo::make_transit_stub(params, rng);
  Router r(topo.graph);
  const auto n = static_cast<NodeId>(topo.graph.num_nodes());
  for (NodeId a = 0; a < n; a += 3) {
    for (NodeId b = 0; b < n; b += 5) {
      double sum = 0.0;
      for (const LinkId l : r.path(a, b)) sum += topo.graph.link(l).delay;
      EXPECT_NEAR(sum, r.delay(a, b), 1e-12);
    }
  }
}

TEST(Router, CountsOneTreePerSourceUntilClearCache) {
  // Transit vertices 1 - 2 - 3: both links are bridges, and vertex 2 is on
  // the heavier side of each, so vertices 1 and 3 are one-vertex regions.
  const Graph g = topo::make_line(5, 0.010);
  const double d = g.link(0).delay;
  Router r(g);
  EXPECT_EQ(r.trees_computed(), 0u);
  EXPECT_EQ(r.vertices_settled(), 0u);
  EXPECT_DOUBLE_EQ(r.delay(0, 4), 4 * d);
  EXPECT_DOUBLE_EQ(r.delay(0, 2), 2 * d);  // the same source's trees
  // Leaf 0 reads the tree of vertex 1, at the other end of its one link;
  // that tree covers vertex 1 alone, so reads past it cross the bridge
  // into the tree of vertex 2, which covers all three.
  EXPECT_EQ(r.trees_computed(), 2u);
  EXPECT_EQ(r.vertices_settled(), 1u + 3u);
  EXPECT_EQ(r.path(1, 4).size(), 3u);
  EXPECT_EQ(r.trees_computed(), 2u);
  r.clear_cache();
  EXPECT_EQ(r.trees_computed(), 0u);
  EXPECT_EQ(r.vertices_settled(), 0u);
  EXPECT_DOUBLE_EQ(r.delay(0, 4), 4 * d);
  EXPECT_EQ(r.trees_computed(), 2u);
}

TEST(Router, ClearCacheStillCorrect) {
  const Graph g = topo::make_line(5, 0.010);
  const double d = g.link(0).delay;
  Router r(g);
  EXPECT_DOUBLE_EQ(r.delay(0, 4), 4 * d);
  r.clear_cache();
  EXPECT_DOUBLE_EQ(r.delay(0, 4), 4 * d);
}

}  // namespace
}  // namespace vdm::net
