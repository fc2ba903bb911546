#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/routing.hpp"
#include "topology/simple.hpp"
#include "topology/transit_stub.hpp"
#include "topology/waxman.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace vdm::topo {
namespace {

// ---------------------------------------------------------- simple shapes

TEST(Simple, LineShape) {
  const net::Graph g = make_line(5, 0.01);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_links(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_TRUE(g.connected());
}

TEST(Simple, RingShape) {
  const net::Graph g = make_ring(6);
  EXPECT_EQ(g.num_links(), 6u);
  for (net::NodeId i = 0; i < 6; ++i) EXPECT_EQ(g.degree(i), 2u);
}

TEST(Simple, RingRequiresThreeNodes) {
  EXPECT_THROW(make_ring(2), util::InvariantError);
}

TEST(Simple, StarShape) {
  const net::Graph g = make_star(7);
  EXPECT_EQ(g.num_links(), 6u);
  EXPECT_EQ(g.degree(0), 6u);
  for (net::NodeId i = 1; i < 7; ++i) EXPECT_EQ(g.degree(i), 1u);
}

TEST(Simple, GridShape) {
  const net::Graph g = make_grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  // Edges: 3*3 horizontal + 2*4 vertical = 17.
  EXPECT_EQ(g.num_links(), 17u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(5), 4u);   // interior (row 1, col 1)
}

TEST(Simple, CompleteShape) {
  const net::Graph g = make_complete(5);
  EXPECT_EQ(g.num_links(), 10u);
  for (net::NodeId i = 0; i < 5; ++i) EXPECT_EQ(g.degree(i), 4u);
}

// ---------------------------------------------------------- transit-stub

TEST(TransitStub, DefaultParamsMatchPaperScale) {
  const TransitStubParams p;
  EXPECT_EQ(p.num_routers(), 792u);  // the paper's GT-ITM topology size
}

TEST(TransitStub, GeneratesRequestedStructure) {
  util::Rng rng(1);
  TransitStubParams p;
  p.transit_domains = 3;
  p.routers_per_transit = 4;
  p.stub_domains_per_transit_router = 2;
  p.routers_per_stub = 5;
  const TransitStubTopology t = make_transit_stub(p, rng);
  EXPECT_EQ(t.transit_routers.size(), 12u);
  EXPECT_EQ(t.stub_routers.size(), 12u * 2 * 5);
  EXPECT_EQ(t.graph.num_nodes(), p.num_routers());
  EXPECT_TRUE(t.graph.connected());
}

TEST(TransitStub, StubDomainIndexingConsistent) {
  util::Rng rng(2);
  TransitStubParams p;
  p.transit_domains = 2;
  p.routers_per_transit = 2;
  p.stub_domains_per_transit_router = 3;
  p.routers_per_stub = 4;
  const TransitStubTopology t = make_transit_stub(p, rng);
  ASSERT_EQ(t.stub_domain_of.size(), t.graph.num_nodes());
  for (const net::NodeId v : t.transit_routers) {
    EXPECT_EQ(t.stub_domain_of[v], ~0u);
  }
  std::uint32_t max_domain = 0;
  for (const net::NodeId v : t.stub_routers) {
    ASSERT_NE(t.stub_domain_of[v], ~0u);
    max_domain = std::max(max_domain, t.stub_domain_of[v]);
  }
  EXPECT_EQ(max_domain + 1, 2u * 2 * 3);  // total stub domains
}

TEST(TransitStub, DelayClassesRespectRanges) {
  util::Rng rng(3);
  TransitStubParams p;
  p.transit_domains = 2;
  p.routers_per_transit = 3;
  p.stub_domains_per_transit_router = 2;
  p.routers_per_stub = 3;
  const TransitStubTopology t = make_transit_stub(p, rng);
  for (const net::Link& l : t.graph.links()) {
    EXPECT_GE(l.delay, p.stub_stub_delay_min);
    EXPECT_LE(l.delay, p.transit_transit_delay_max);
    EXPECT_DOUBLE_EQ(l.loss, 0.0);
  }
}

TEST(TransitStub, LossRangeApplied) {
  util::Rng rng(4);
  TransitStubParams p;
  p.transit_domains = 2;
  p.routers_per_transit = 2;
  p.stub_domains_per_transit_router = 1;
  p.routers_per_stub = 3;
  p.loss_min = 0.0;
  p.loss_max = 0.02;
  const TransitStubTopology t = make_transit_stub(p, rng);
  bool any_loss = false;
  for (const net::Link& l : t.graph.links()) {
    EXPECT_GE(l.loss, 0.0);
    EXPECT_LE(l.loss, 0.02);
    any_loss = any_loss || l.loss > 0.0;
  }
  EXPECT_TRUE(any_loss);
}

TEST(TransitStub, DeterministicForSameSeed) {
  TransitStubParams p;
  p.transit_domains = 2;
  p.routers_per_transit = 2;
  p.stub_domains_per_transit_router = 2;
  p.routers_per_stub = 2;
  util::Rng r1(5), r2(5);
  const TransitStubTopology a = make_transit_stub(p, r1);
  const TransitStubTopology b = make_transit_stub(p, r2);
  ASSERT_EQ(a.graph.num_links(), b.graph.num_links());
  for (net::LinkId l = 0; l < a.graph.num_links(); ++l) {
    EXPECT_EQ(a.graph.link(l).a, b.graph.link(l).a);
    EXPECT_EQ(a.graph.link(l).b, b.graph.link(l).b);
    EXPECT_DOUBLE_EQ(a.graph.link(l).delay, b.graph.link(l).delay);
  }
}

TEST(TransitStub, AttachHostsCreatesAccessLinks) {
  util::Rng rng(6);
  TransitStubParams p;
  p.transit_domains = 2;
  p.routers_per_transit = 2;
  p.stub_domains_per_transit_router = 2;
  p.routers_per_stub = 3;
  HostAttachment h;
  h.num_hosts = 10;
  const net::GraphUnderlay u = make_transit_stub_underlay(p, h, rng);
  EXPECT_EQ(u.num_hosts(), 10u);
  EXPECT_EQ(u.graph().num_nodes(), p.num_routers() + 10);
  // Every host hangs off exactly one access link.
  for (net::HostId host = 0; host < 10; ++host) {
    EXPECT_EQ(u.graph().degree(u.host_vertex(host)), 1u);
  }
}

TEST(TransitStub, HostPairsReachable) {
  util::Rng rng(7);
  TransitStubParams p;
  p.transit_domains = 2;
  p.routers_per_transit = 2;
  p.stub_domains_per_transit_router = 1;
  p.routers_per_stub = 2;
  HostAttachment h;
  h.num_hosts = 6;
  const net::GraphUnderlay u = make_transit_stub_underlay(p, h, rng);
  for (net::HostId a = 0; a < 6; ++a) {
    for (net::HostId b = 0; b < 6; ++b) {
      if (a == b) continue;
      EXPECT_GT(u.delay(a, b), 0.0);
      EXPECT_LT(u.delay(a, b), 1.0);  // finite, sane
    }
  }
}

// ---------------------------------------------------------------- Waxman

TEST(Waxman, ConnectedAndSized) {
  util::Rng rng(8);
  WaxmanParams p;
  p.num_routers = 60;
  const WaxmanTopology t = make_waxman(p, rng);
  EXPECT_EQ(t.graph.num_nodes(), 60u);
  EXPECT_EQ(t.coords.size(), 60u);
  EXPECT_TRUE(t.graph.connected());
}

TEST(Waxman, CoordsInUnitSquare) {
  util::Rng rng(9);
  WaxmanParams p;
  p.num_routers = 40;
  const WaxmanTopology t = make_waxman(p, rng);
  for (const auto& [x, y] : t.coords) {
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    EXPECT_GE(y, 0.0);
    EXPECT_LT(y, 1.0);
  }
}

TEST(Waxman, DelayProportionalToDistance) {
  util::Rng rng(10);
  WaxmanParams p;
  p.num_routers = 40;
  const WaxmanTopology t = make_waxman(p, rng);
  for (const net::Link& l : t.graph.links()) {
    const auto& ca = t.coords[l.a];
    const auto& cb = t.coords[l.b];
    const double d = std::hypot(ca.first - cb.first, ca.second - cb.second);
    // Stored on the graph's 2^-30 s delay grid.
    const double want = std::nearbyint(std::max(p.min_delay, d * p.delay_per_unit) * 0x1p30) * 0x1p-30;
    EXPECT_NEAR(l.delay, want, 1e-12);
  }
}

TEST(Waxman, HigherAlphaMeansMoreLinks) {
  WaxmanParams sparse, dense;
  sparse.num_routers = dense.num_routers = 80;
  sparse.alpha = 0.05;
  dense.alpha = 0.5;
  util::Rng r1(11), r2(11);
  const auto a = make_waxman(sparse, r1);
  const auto b = make_waxman(dense, r2);
  EXPECT_LT(a.graph.num_links(), b.graph.num_links());
}

TEST(Waxman, RejectsDegenerateParams) {
  util::Rng rng(12);
  WaxmanParams p;
  p.num_routers = 1;
  EXPECT_THROW(make_waxman(p, rng), util::InvariantError);
  p.num_routers = 10;
  p.alpha = 0.0;
  EXPECT_THROW(make_waxman(p, rng), util::InvariantError);
}

}  // namespace
}  // namespace vdm::topo
