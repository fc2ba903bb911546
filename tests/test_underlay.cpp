#include "net/graph_underlay.hpp"
#include "net/matrix_underlay.hpp"

#include <gtest/gtest.h>

#include <set>

#include "topology/simple.hpp"
#include "topology/transit_stub.hpp"
#include "util/require.hpp"

namespace vdm::net {
namespace {

GraphUnderlay line_underlay() {
  // Routers 0-1-2; hosts 3 (on router 0) and 4 (on router 2).
  Graph g = topo::make_line(3, 0.010);
  const NodeId h1 = g.add_node();
  const NodeId h2 = g.add_node();
  g.add_link(h1, 0, 0.001);
  g.add_link(h2, 2, 0.002);
  return GraphUnderlay(std::move(g), {h1, h2});
}

TEST(GraphUnderlay, DelayAndRtt) {
  const GraphUnderlay u = line_underlay();
  EXPECT_EQ(u.num_hosts(), 2u);
  double sum = 0.0;  // the stored delays of its four links
  for (const net::Link& l : u.graph().links()) sum += l.delay;
  EXPECT_NEAR(u.delay(0, 1), sum, 1e-12);
  EXPECT_NEAR(u.rtt(0, 1), 2 * sum, 1e-12);
}

TEST(GraphUnderlay, PathTraversesAccessAndCoreLinks) {
  const GraphUnderlay u = line_underlay();
  EXPECT_EQ(u.path(0, 1).size(), 4u);  // access + 2 core + access
  EXPECT_TRUE(u.path(0, 0).empty());
}

TEST(GraphUnderlay, LinkDelayLookup) {
  const GraphUnderlay u = line_underlay();
  double sum = 0.0;
  for (const LinkId l : u.path(0, 1)) sum += u.link_delay(l);
  EXPECT_NEAR(sum, u.delay(0, 1), 1e-12);
}

TEST(GraphUnderlay, LossCompoundsOverPath) {
  Graph g = topo::make_line(2, 0.010, 0.1);
  const NodeId h1 = g.add_node();
  const NodeId h2 = g.add_node();
  g.add_link(h1, 0, 0.001, 0.05);
  g.add_link(h2, 1, 0.001, 0.0);
  const GraphUnderlay u(std::move(g), {h1, h2});
  EXPECT_NEAR(u.loss(0, 1), 1.0 - 0.95 * 0.9 * 1.0, 1e-12);
}

TEST(GraphUnderlay, ZeroLossFollowsTheLinkLosses) {
  topo::TransitStubParams tp;
  tp.transit_domains = 2;
  tp.routers_per_transit = 2;
  tp.stub_domains_per_transit_router = 2;
  tp.routers_per_stub = 3;
  topo::HostAttachment hp;
  hp.num_hosts = 20;
  util::Rng rng(9);
  GraphUnderlay lossless = topo::make_transit_stub_underlay(tp, hp, rng);
  EXPECT_TRUE(lossless.zero_loss());
  EXPECT_EQ(lossless.loss(0, 1), 0.0);
  tp.loss_max = 0.02;
  const GraphUnderlay lossy = topo::make_transit_stub_underlay(tp, hp, rng);
  EXPECT_FALSE(lossy.zero_loss());

  // rebind() recomputes it for the topology it seats, either way.
  Graph g;
  std::vector<NodeId> hosts;
  lossless.release(g, hosts);
  g.clear();
  const NodeId r = g.add_node();
  const NodeId h1 = g.add_node();
  const NodeId h2 = g.add_node();
  g.add_link(h1, r, 0.001, 0.0);
  g.add_link(h2, r, 0.001, 0.01);
  lossless.rebind(std::move(g), {h1, h2});
  EXPECT_FALSE(lossless.zero_loss());
  EXPECT_GT(lossless.loss(0, 1), 0.0);
  lossless.release(g, hosts);
  g.clear();
  g.add_nodes(3);
  g.add_link(1, 0, 0.001, 0.0);
  g.add_link(2, 0, 0.001, 0.0);
  lossless.rebind(std::move(g), {1, 2});
  EXPECT_TRUE(lossless.zero_loss());
}

TEST(GraphUnderlay, RejectsEmptyHostList) {
  Graph g = topo::make_line(2);
  EXPECT_THROW(GraphUnderlay(std::move(g), {}), util::InvariantError);
}

TEST(GraphUnderlay, RejectsOutOfRangeHostVertex) {
  Graph g = topo::make_line(2);
  EXPECT_THROW(GraphUnderlay(std::move(g), {7}), util::InvariantError);
}

// ------------------------------------------------------------- Matrix

MatrixUnderlay small_matrix() {
  // 3 hosts; delays 0-1: 10ms, 0-2: 20ms, 1-2: 35ms (triangle violation
  // relative to 0 as relay: 10+20 < 35 — allowed, as on the real Internet).
  std::vector<double> d{0.000, 0.010, 0.020,
                        0.010, 0.000, 0.035,
                        0.020, 0.035, 0.000};
  std::vector<double> l{0.00, 0.01, 0.02,
                        0.01, 0.00, 0.03,
                        0.02, 0.03, 0.00};
  return MatrixUnderlay(3, std::move(d), std::move(l));
}

TEST(MatrixUnderlay, DelayAndLossLookup) {
  const MatrixUnderlay u = small_matrix();
  EXPECT_EQ(u.num_hosts(), 3u);
  EXPECT_DOUBLE_EQ(u.delay(0, 1), 0.010);
  EXPECT_DOUBLE_EQ(u.delay(1, 2), 0.035);
  EXPECT_DOUBLE_EQ(u.loss(1, 2), 0.03);
  EXPECT_DOUBLE_EQ(u.rtt(0, 2), 0.040);
}

TEST(MatrixUnderlay, EmptyLossMeansZero) {
  std::vector<double> d{0.0, 0.01, 0.01, 0.0};
  const MatrixUnderlay u(2, std::move(d));
  EXPECT_DOUBLE_EQ(u.loss(0, 1), 0.0);
}

TEST(MatrixUnderlay, PairLinkIsBijective) {
  const MatrixUnderlay u = small_matrix();
  std::set<LinkId> ids;
  for (HostId a = 0; a < 3; ++a) {
    for (HostId b = a + 1; b < 3; ++b) {
      const LinkId id = u.pair_link(a, b);
      EXPECT_EQ(id, u.pair_link(b, a));  // unordered
      ids.insert(id);
      EXPECT_LT(id, u.num_links());
    }
  }
  EXPECT_EQ(ids.size(), u.num_links());
}

TEST(MatrixUnderlay, LinkDelayInvertsPairLink) {
  const MatrixUnderlay u = small_matrix();
  for (HostId a = 0; a < 3; ++a) {
    for (HostId b = a + 1; b < 3; ++b) {
      EXPECT_DOUBLE_EQ(u.link_delay(u.pair_link(a, b)), u.delay(a, b));
    }
  }
  EXPECT_THROW(u.link_delay(u.num_links()), util::InvariantError);
}

TEST(MatrixUnderlay, PathIsOnePseudoLink) {
  const MatrixUnderlay u = small_matrix();
  const auto p = u.path(0, 2);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], u.pair_link(0, 2));
  EXPECT_TRUE(u.path(1, 1).empty());
}

TEST(MatrixUnderlay, ValidatesShape) {
  EXPECT_THROW(MatrixUnderlay(2, {0.0, 1.0}), util::InvariantError);  // wrong size
  EXPECT_THROW(MatrixUnderlay(2, {0.5, 0.01, 0.01, 0.0}), util::InvariantError);  // diag
  EXPECT_THROW(MatrixUnderlay(2, {0.0, 0.01, 0.02, 0.0}), util::InvariantError);  // asym
  EXPECT_THROW(MatrixUnderlay(2, {0.0, -0.01, -0.01, 0.0}), util::InvariantError);  // neg
}

TEST(MatrixUnderlay, LargerPairLinkBijection) {
  const std::size_t n = 17;
  std::vector<double> d(n * n, 0.001);
  for (std::size_t i = 0; i < n; ++i) d[i * n + i] = 0.0;
  const MatrixUnderlay u(n, std::move(d));
  std::set<LinkId> ids;
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = a + 1; b < n; ++b) ids.insert(u.pair_link(a, b));
  }
  EXPECT_EQ(ids.size(), n * (n - 1) / 2);
  EXPECT_EQ(*ids.rbegin(), static_cast<LinkId>(n * (n - 1) / 2 - 1));
}

}  // namespace
}  // namespace vdm::net
