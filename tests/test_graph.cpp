#include "net/graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace vdm::net {
namespace {

/// The delay grid computed independently of Graph: the nearest multiple of
/// 2^-30 s under the default round-to-nearest-even mode.
double on_grid(double d) { return std::nearbyint(d * 0x1p30) * 0x1p-30; }

/// The message of the InvariantError that `add` throws, or "" if none.
template <typename Fn>
std::string rejection(Fn&& add) {
  try {
    add();
  } catch (const util::InvariantError& e) {
    return e.what();
  }
  return "";
}

TEST(Graph, AddNodesReturnsDenseIds) {
  Graph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.add_nodes(3), 2u);
  EXPECT_EQ(g.num_nodes(), 5u);
}

TEST(Graph, AddNodesRejectsZero) {
  Graph g;
  EXPECT_THROW(g.add_nodes(0), util::InvariantError);
}

TEST(Graph, AddLinkStoresEndpointsAndWeights) {
  Graph g;
  g.add_nodes(2);
  const LinkId l = g.add_link(0, 1, 0.015, 0.01);
  const Link& link = g.link(l);
  EXPECT_EQ(link.a, 0u);
  EXPECT_EQ(link.b, 1u);
  EXPECT_DOUBLE_EQ(link.delay, on_grid(0.015));
  EXPECT_DOUBLE_EQ(link.loss, 0.01);
  EXPECT_EQ(link.other(0), 1u);
  EXPECT_EQ(link.other(1), 0u);
}

TEST(Graph, RejectsInvalidLinks) {
  Graph g;
  g.add_nodes(2);
  EXPECT_THROW(g.add_link(0, 0, 0.01), util::InvariantError);  // self-loop
  EXPECT_THROW(g.add_link(0, 2, 0.01), util::InvariantError);  // missing node
  EXPECT_THROW(g.add_link(0, 1, 0.0), util::InvariantError);   // zero delay
  EXPECT_THROW(g.add_link(0, 1, 0.01, 1.0), util::InvariantError);  // loss == 1
  EXPECT_THROW(g.add_link(0, 1, 0.01, -0.1), util::InvariantError);
}

TEST(Graph, ArcsListBothDirections) {
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 0.010);
  g.add_link(1, 2, 0.020);
  EXPECT_EQ(g.arcs(0).size(), 1u);
  EXPECT_EQ(g.arcs(1).size(), 2u);
  EXPECT_EQ(g.arcs(2).size(), 1u);
  EXPECT_EQ(g.arcs(0)[0].to, 1u);
  EXPECT_DOUBLE_EQ(g.arcs(0)[0].delay, g.link(0).delay);
}

TEST(Graph, AddLinkRejectsNonFiniteDelaysNamingTheDelay) {
  Graph g;
  g.add_nodes(2);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {inf, -inf, std::numeric_limits<double>::quiet_NaN()}) {
    const std::string why = rejection([&] { g.add_link(0, 1, bad); });
    EXPECT_NE(why.find("delay"), std::string::npos) << bad << ": '" << why << "'";
  }
  EXPECT_EQ(g.num_links(), 0u);
}

TEST(Graph, AddLinkRejectsASummedDelayOf2To22Seconds) {
  Graph g;
  g.add_nodes(3);
  EXPECT_NE(rejection([&] { g.add_link(0, 1, 0x1p22); }).find("delay"),
            std::string::npos);
  EXPECT_NE(rejection([&] { g.add_link(0, 1, 1e300); }).find("delay"),
            std::string::npos);
  g.add_link(0, 1, 0x1p21);
  g.add_link(1, 2, 0x1p21 - 0x1p-29);  // the sum is two steps short of 2^22
  // 1.6 steps would keep the unrounded sum below the bound, but they are
  // stored as two, which reach it.
  const std::string why = rejection([&] { g.add_link(0, 2, 0x1p-30 * 1.6); });
  EXPECT_NE(why.find("delay"), std::string::npos) << why;
  g.add_link(0, 2, 0x1p-30);  // one step short
  EXPECT_NE(rejection([&] { g.add_link(0, 2, 1e-12); }), "");
  EXPECT_EQ(g.num_links(), 3u);
  // clear() empties the sum with the links.
  g.clear();
  g.add_nodes(2);
  EXPECT_NO_THROW(g.add_link(0, 1, 0x1p21));
}

TEST(Graph, AddLinkStoresASubStepDelayAsOneStep) {
  Graph g;
  g.add_nodes(2);
  for (const double tiny : {1e-300, 1e-12, 0x1p-31, 0x1p-30 * 1.4}) {
    const LinkId l = g.add_link(0, 1, tiny);
    EXPECT_EQ(g.link(l).delay, Graph::kDelayStep) << tiny;
  }
  EXPECT_EQ(g.link(g.add_link(0, 1, 0x1p-30 * 1.6)).delay, 0x1p-29);
}

TEST(Graph, EveryStoredDelayIsTheNearestMultipleOfTheStep) {
  util::Rng rng(23);
  Graph g;
  g.add_nodes(2);
  for (int i = 0; i < 2000; ++i) {
    // Delays from ~1 ns to ~100 s, log-uniform.
    const double d = std::exp(rng.uniform(std::log(1e-9), std::log(100.0)));
    const double stored = g.link(g.add_link(0, 1, d)).delay;
    const double steps = stored * 0x1p30;
    EXPECT_EQ(steps, std::floor(steps)) << d;
    EXPECT_EQ(stored, std::max(on_grid(d), Graph::kDelayStep)) << d;
    EXPECT_LE(std::abs(stored - d), 0x1p-31) << d;
  }
}

/// Connectivity by breadth-first search over the arcs: the oracle for the
/// union-find.
bool bfs_connected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  std::vector<char> seen(g.num_nodes(), 0);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = 1;
  std::size_t reached = 1;
  while (!q.empty()) {
    const NodeId n = q.front();
    q.pop();
    for (const Graph::Arc& arc : g.arcs(n)) {
      if (!seen[arc.to]) {
        seen[arc.to] = 1;
        ++reached;
        q.push(arc.to);
      }
    }
  }
  return reached == g.num_nodes();
}

TEST(Graph, ConnectedMatchesBreadthFirstSearchOnRandomMultigraphs) {
  // Sparse to dense multigraphs with parallel links and isolated vertices;
  // one parent buffer serves every check, as a generator's scratch does.
  util::Rng rng(29);
  std::vector<NodeId> parent;
  int connected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Graph g;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 24));
    g.add_nodes(n);
    const auto links = rng.uniform_int(0, static_cast<std::int64_t>(2 * n));
    for (std::int64_t i = 0; i < links && n > 1; ++i) {
      const auto a = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto b = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
      g.add_link(a, b < a ? b : b + 1, 0.001);
    }
    const bool want = bfs_connected(g);
    EXPECT_EQ(g.connected(parent), want) << "trial " << trial;
    EXPECT_EQ(g.connected(), want) << "trial " << trial;
    connected += want ? 1 : 0;
  }
  // Both answers come up often enough to mean something.
  EXPECT_GT(connected, 40);
  EXPECT_LT(connected, 360);
}

TEST(UnionFind, CountsSetsAndReusesTheParentBuffer) {
  std::vector<NodeId> parent;
  {
    UnionFind sets(parent, 5);
    EXPECT_EQ(sets.sets(), 5u);
    EXPECT_TRUE(sets.unite(0, 1));
    EXPECT_TRUE(sets.unite(3, 4));
    EXPECT_FALSE(sets.unite(1, 0));
    EXPECT_EQ(sets.find(0), sets.find(1));
    EXPECT_NE(sets.find(0), sets.find(3));
    EXPECT_EQ(sets.sets(), 3u);
  }
  const NodeId* data = parent.data();
  UnionFind again(parent, 4);  // back to singletons, capacity kept
  EXPECT_EQ(again.sets(), 4u);
  EXPECT_EQ(parent.data(), data);
  EXPECT_NE(again.find(0), again.find(1));
}

TEST(Graph, ParallelLinksAllowed) {
  Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 0.010);
  g.add_link(0, 1, 0.020);
  EXPECT_EQ(g.num_links(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Graph, AdjacencyRebuildsAfterMutation) {
  Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 0.010);
  EXPECT_EQ(g.arcs(0).size(), 1u);  // builds CSR
  const NodeId c = g.add_node();
  g.add_link(1, c, 0.010);
  EXPECT_EQ(g.arcs(1).size(), 2u);  // rebuilt
}

TEST(Graph, ConnectedDetection) {
  Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, 0.01);
  g.add_link(2, 3, 0.01);
  EXPECT_FALSE(g.connected());
  g.add_link(1, 2, 0.01);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, TrivialGraphsAreConnected) {
  Graph g;
  EXPECT_TRUE(g.connected());  // empty
  g.add_node();
  EXPECT_TRUE(g.connected());  // singleton
}

TEST(Graph, VersionBumpsOnMutation) {
  Graph g;
  const auto v0 = g.version();
  g.add_node();
  const auto v1 = g.version();
  EXPECT_GT(v1, v0);
  g.add_node();
  g.add_link(0, 1, 0.01);
  EXPECT_GT(g.version(), v1);
}

TEST(Graph, ArcsRejectOutOfRange) {
  Graph g;
  g.add_node();
  EXPECT_THROW(g.arcs(5), util::InvariantError);
}

}  // namespace
}  // namespace vdm::net
