// Property tests for the zero-allocation routing fast path: the dense
// Router tree memo, the visitor API, and the GraphUnderlay host-pair memo
// must all agree with a plain reference Dijkstra — on random Waxman and
// transit-stub graphs, again after Graph version bumps clear every tree,
// and after rebind() seats a topology of another size.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "metrics/tree_metrics.hpp"
#include "net/graph_underlay.hpp"
#include "net/matrix_underlay.hpp"
#include "net/routing.hpp"
#include "overlay/membership.hpp"
#include "topology/transit_stub.hpp"
#include "topology/waxman.hpp"
#include "util/rng.hpp"

namespace vdm::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Textbook Dijkstra, structured like the pre-optimization Router: the
/// oracle the fast path must reproduce.
struct RefSssp {
  std::vector<double> dist;
  std::vector<LinkId> parent_link;
  std::vector<NodeId> parent_node;
};

RefSssp reference_dijkstra(const Graph& g, NodeId src) {
  const std::size_t n = g.num_nodes();
  RefSssp ref;
  ref.dist.assign(n, kInf);
  ref.parent_link.assign(n, kInvalidLink);
  ref.parent_node.assign(n, kInvalidNode);
  ref.dist[src] = 0.0;
  using QEntry = std::pair<double, NodeId>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > ref.dist[u]) continue;
    for (const Graph::Arc& arc : g.arcs(u)) {
      const double nd = d + arc.delay;
      if (nd < ref.dist[arc.to]) {
        ref.dist[arc.to] = nd;
        ref.parent_link[arc.to] = arc.link;
        ref.parent_node[arc.to] = u;
        pq.emplace(nd, arc.to);
      }
    }
  }
  return ref;
}

/// Loss along the reference parent chain, multiplied dst -> src exactly like
/// Router::path_loss, so agreement is byte-for-byte when the trees coincide.
double reference_loss(const Graph& g, const RefSssp& ref, NodeId src, NodeId dst) {
  double deliver = 1.0;
  for (NodeId at = dst; at != src; at = ref.parent_node[at]) {
    deliver *= 1.0 - g.link(ref.parent_link[at]).loss;
  }
  return 1.0 - deliver;
}

/// Full agreement check between Router fast path and the reference on a
/// sample of node pairs.
void expect_matches_reference(const Graph& g, const Router& r,
                              std::size_t pair_stride) {
  const auto n = static_cast<NodeId>(g.num_nodes());
  for (NodeId a = 0; a < n; a += static_cast<NodeId>(pair_stride)) {
    const RefSssp ref = reference_dijkstra(g, a);
    for (NodeId b = 0; b < n; b += 3) {
      if (a == b) continue;
      EXPECT_DOUBLE_EQ(r.delay(a, b), ref.dist[b]) << "src=" << a << " dst=" << b;
      if (ref.dist[b] == kInf) {
        EXPECT_TRUE(r.path(a, b).empty());
        EXPECT_EQ(r.path_loss(a, b), 0.0);
        continue;
      }
      EXPECT_DOUBLE_EQ(r.path_loss(a, b), reference_loss(g, ref, a, b));

      // path() must be the reference chain in forward order.
      const std::vector<LinkId> path = r.path(a, b);
      std::vector<LinkId> ref_path;
      for (NodeId at = b; at != a; at = ref.parent_node[at]) {
        ref_path.push_back(ref.parent_link[at]);
      }
      std::reverse(ref_path.begin(), ref_path.end());
      EXPECT_EQ(path, ref_path);

      // The visitor sees exactly the same sequence without allocating.
      std::vector<LinkId> visited;
      r.for_each_link(a, b, [&visited](LinkId l) { visited.push_back(l); });
      EXPECT_EQ(visited, path);
    }
  }
}

Graph waxman_graph(std::uint64_t seed, double loss_max) {
  util::Rng rng(seed);
  topo::WaxmanParams wp;
  wp.num_routers = 60;
  wp.loss_max = loss_max;
  return topo::make_waxman(wp, rng).graph;
}

TEST(RoutingFastPath, MatchesReferenceOnWaxman) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const Graph g = waxman_graph(seed, 0.02);
    Router r(g);
    expect_matches_reference(g, r, 7);
  }
}

TEST(RoutingFastPath, MatchesReferenceOnTransitStub) {
  util::Rng rng(21);
  topo::TransitStubParams params;
  params.transit_domains = 2;
  params.routers_per_transit = 3;
  params.stub_domains_per_transit_router = 2;
  params.routers_per_stub = 4;
  params.loss_max = 0.02;
  const auto topo = topo::make_transit_stub(params, rng);
  Router r(topo.graph);
  expect_matches_reference(topo.graph, r, 5);
}

TEST(RoutingFastPath, SurvivesGraphVersionBumps) {
  util::Rng rng(31);
  Graph g = waxman_graph(31, 0.01);
  Router r(g);
  expect_matches_reference(g, r, 11);

  // Structural mutation: new links invalidate every cached tree.
  for (int round = 0; round < 3; ++round) {
    const auto n = static_cast<NodeId>(g.num_nodes());
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (a == b) b = (b + 1) % n;
    g.add_link(a, b, rng.uniform(0.001, 0.005), 0.005);
    expect_matches_reference(g, r, 11);
  }
}

/// Bitwise equality: unlike ==, a NaN that leaked out of a memo fails it.
bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// Every host pair of `u`, read in both orientations, equals a fresh
/// Router's delay and loss on the low -> high vertices, bit for bit.
void expect_pairs_match_router(const GraphUnderlay& u) {
  const Router fresh(u.graph());
  for (HostId lo = 0; lo < u.num_hosts(); ++lo) {
    for (HostId hi = lo + 1; hi < u.num_hosts(); ++hi) {
      const NodeId vl = u.host_vertex(lo);
      const NodeId vh = u.host_vertex(hi);
      const double delay = fresh.delay(vl, vh);
      const double loss = fresh.path_loss(vl, vh);
      EXPECT_TRUE(same_bits(u.delay(lo, hi), delay)) << lo << "-" << hi;
      EXPECT_TRUE(same_bits(u.delay(hi, lo), delay)) << lo << "-" << hi;
      EXPECT_TRUE(same_bits(u.loss(hi, lo), loss)) << lo << "-" << hi;
      EXPECT_TRUE(same_bits(u.loss(lo, hi), loss)) << lo << "-" << hi;
    }
  }
}

topo::TransitStubParams lossy_transit_stub() {
  topo::TransitStubParams tp;
  tp.transit_domains = 2;
  tp.routers_per_transit = 2;
  tp.stub_domains_per_transit_router = 2;
  tp.routers_per_stub = 3;
  tp.loss_max = 0.02;
  return tp;
}

/// Builds a lossy transit-stub topology with `num_hosts` hosts into `ts` and
/// `hosts`, the arena way run_once does.
void build_into(topo::TransitStubTopology& ts, std::vector<NodeId>& hosts,
                std::uint64_t seed, std::size_t num_hosts) {
  util::Rng rng(seed);
  topo::make_transit_stub(lossy_transit_stub(), rng, ts);
  topo::HostAttachment hp;
  hp.num_hosts = num_hosts;
  topo::attach_hosts_into(ts.graph, ts.stub_routers, hp, rng, hosts);
}

GraphUnderlay lossy_underlay(std::uint64_t seed, std::size_t num_hosts) {
  util::Rng rng(seed);
  topo::HostAttachment hp;
  hp.num_hosts = num_hosts;
  return topo::make_transit_stub_underlay(lossy_transit_stub(), hp, rng);
}

/// Adds a link to an underlay's graph through the arena release/rebind
/// path — the only way a GraphUnderlay's topology changes once built.
void add_link_via_rebind(GraphUnderlay& u, NodeId a, NodeId b, double delay) {
  Graph g;
  std::vector<NodeId> hosts;
  u.release(g, hosts);
  g.add_link(a, b, delay);
  u.rebind(std::move(g), std::move(hosts));
}

TEST(RoutingFastPath, GraphUnderlayPairCacheMatchesRouter) {
  GraphUnderlay u = lossy_underlay(41, 24);
  const auto check_all_pairs = [&u] {
    // A fresh Router shares no memo with the underlay.
    expect_pairs_match_router(u);
    const Router fresh(u.graph());
    for (HostId a = 0; a < u.num_hosts(); ++a) {
      for (HostId b = 0; b < u.num_hosts(); ++b) {
        std::vector<LinkId> visited;
        u.for_each_path_link(a, b, [&visited](LinkId l) { visited.push_back(l); });
        EXPECT_EQ(visited, fresh.path(u.host_vertex(a), u.host_vertex(b)));
      }
    }
  };
  check_all_pairs();

  // Warm memo, then reseat a topology with one more link and require
  // recomputation.
  const NodeId v0 = u.host_vertex(0);
  const NodeId v1 = u.host_vertex(1);
  add_link_via_rebind(u, v0, v1, 0.0001);
  check_all_pairs();
  EXPECT_EQ(u.path(0, 1).size(), 1u);  // the new direct link must win
}

TEST(RoutingFastPath, PairCacheIsSymmetricOnUndirectedGraphs) {
  util::Rng rng(51);
  topo::TransitStubParams tp;
  tp.transit_domains = 2;
  tp.routers_per_transit = 2;
  tp.stub_domains_per_transit_router = 1;
  tp.routers_per_stub = 3;
  topo::HostAttachment hp;
  hp.num_hosts = 16;
  const GraphUnderlay u = topo::make_transit_stub_underlay(tp, hp, rng);
  for (HostId a = 0; a < u.num_hosts(); ++a) {
    for (HostId b = a + 1; b < u.num_hosts(); ++b) {
      EXPECT_EQ(u.delay(a, b), u.delay(b, a));
      EXPECT_EQ(u.loss(a, b), u.loss(b, a));
      EXPECT_EQ(u.path(a, b).size(), u.path(b, a).size());
    }
  }
}

TEST(RoutingFastPath, PairMemoFillsDelayAndLossOnTheirOwnReads) {
  // Two copies of one lossy topology: one reads every pair's loss before
  // any delay, the other every delay before any loss, each first read in
  // the high -> low orientation. Neither order may change a value.
  const GraphUnderlay loss_first = lossy_underlay(81, 20);
  const GraphUnderlay delay_first = lossy_underlay(81, 20);
  ASSERT_FALSE(loss_first.zero_loss());
  double loss_sum = 0.0;
  for (HostId lo = 0; lo < loss_first.num_hosts(); ++lo) {
    for (HostId hi = lo + 1; hi < loss_first.num_hosts(); ++hi) {
      loss_sum += loss_first.loss(hi, lo);
      EXPECT_TRUE(std::isfinite(delay_first.delay(hi, lo)));
    }
  }
  EXPECT_GT(loss_sum, 0.0);
  expect_pairs_match_router(loss_first);
  expect_pairs_match_router(delay_first);
}

TEST(RoutingFastPath, RebindReadsFreshPairsAtEveryHostCount) {
  topo::TransitStubTopology ts;
  std::vector<NodeId> hosts;
  build_into(ts, hosts, 91, 24);
  GraphUnderlay u(std::move(ts.graph), std::move(hosts));
  expect_pairs_match_router(u);  // fills every slot

  // Each reseat is a new seed: a stale tree or pair slot reads the old
  // topology's value. Fewer hosts shift every triangle row; more grow it.
  const auto reseat = [&](std::uint64_t seed, std::size_t num_hosts) {
    u.release(ts.graph, hosts);
    build_into(ts, hosts, seed, num_hosts);
    u.rebind(std::move(ts.graph), std::move(hosts));
    ASSERT_EQ(u.num_hosts(), num_hosts);
    expect_pairs_match_router(u);
  };
  reseat(92, 12);
  reseat(93, 30);
  const std::size_t warm = u.arena_capacity_bytes();
  reseat(93, 30);
  EXPECT_EQ(u.arena_capacity_bytes(), warm);
}

TEST(RoutingFastPath, UnreachablePairReadsInfiniteDelayAndZeroLoss) {
  // Two components: hosts 0 and 1 share one, host 2 sits in the other.
  Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, 0.010, 0.1);
  g.add_link(2, 3, 0.010, 0.1);
  const GraphUnderlay loss_first(g, {0, 1, 2});
  const GraphUnderlay delay_first(std::move(g), {0, 1, 2});
  const double inf = std::numeric_limits<double>::infinity();
  for (int read = 0; read < 2; ++read) {  // the fill, then the memo
    EXPECT_TRUE(same_bits(loss_first.loss(2, 0), 0.0));
    EXPECT_TRUE(same_bits(loss_first.delay(0, 2), inf));
    EXPECT_TRUE(same_bits(delay_first.delay(2, 0), inf));
    EXPECT_TRUE(same_bits(delay_first.loss(0, 2), 0.0));
  }
  EXPECT_TRUE(same_bits(loss_first.loss(0, 1), delay_first.loss(1, 0)));
  EXPECT_NEAR(loss_first.loss(0, 1), 0.1, 1e-15);
}

TEST(RoutingFastPath, MatrixUnderlayVisitorMatchesPath) {
  const std::size_t n = 7;
  std::vector<double> delay(n * n, 0.0);
  util::Rng rng(61);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      delay[a * n + b] = delay[b * n + a] = rng.uniform(0.001, 0.2);
    }
  }
  const MatrixUnderlay u(n, std::move(delay));
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = 0; b < n; ++b) {
      std::vector<LinkId> visited;
      u.for_each_path_link(a, b, [&visited](LinkId l) { visited.push_back(l); });
      EXPECT_EQ(visited, u.path(a, b));
      if (a != b) {
        // link_delay inverts pair_link for every pseudo-link.
        EXPECT_DOUBLE_EQ(u.link_delay(u.pair_link(a, b)), u.delay(a, b));
      }
    }
  }
}

TEST(RoutingFastPath, MeasureTreeScratchReuseIsExact) {
  util::Rng rng(71);
  topo::TransitStubParams tp;
  tp.transit_domains = 2;
  tp.routers_per_transit = 3;
  tp.stub_domains_per_transit_router = 2;
  tp.routers_per_stub = 3;
  tp.loss_max = 0.01;
  topo::HostAttachment hp;
  hp.num_hosts = 40;
  GraphUnderlay u = topo::make_transit_stub_underlay(tp, hp, rng);

  overlay::Membership tree(u.num_hosts());
  for (HostId h = 0; h < u.num_hosts(); ++h) tree.activate(h, 4);
  for (HostId h = 1; h < u.num_hosts(); ++h) {
    const HostId parent = static_cast<HostId>(rng.uniform_int(0, h - 1));
    tree.attach(h, parent, u.rtt(parent, h), /*allow_full=*/true);
  }

  const auto expect_same = [](const metrics::TreeMetrics& x,
                              const metrics::TreeMetrics& y) {
    EXPECT_EQ(x.members, y.members);
    EXPECT_EQ(x.stress_avg, y.stress_avg);
    EXPECT_EQ(x.stress_max, y.stress_max);
    EXPECT_EQ(x.links_used, y.links_used);
    EXPECT_EQ(x.stretch_avg, y.stretch_avg);
    EXPECT_EQ(x.stretch_min, y.stretch_min);
    EXPECT_EQ(x.stretch_max, y.stretch_max);
    EXPECT_EQ(x.stretch_leaf_avg, y.stretch_leaf_avg);
    EXPECT_EQ(x.hop_avg, y.hop_avg);
    EXPECT_EQ(x.hop_max, y.hop_max);
    EXPECT_EQ(x.hop_leaf_avg, y.hop_leaf_avg);
    EXPECT_EQ(x.network_usage, y.network_usage);
  };

  metrics::TreeMetricsScratch scratch;
  const metrics::TreeMetrics first = metrics::measure_tree(tree, 0, u, scratch);
  // Reusing the scratch (stale counters, stamped epochs) changes nothing.
  expect_same(first, metrics::measure_tree(tree, 0, u, scratch));
  // Neither does a throwaway scratch.
  expect_same(first, metrics::measure_tree(tree, 0, u));

  // After a topology change all three still agree with each other.
  add_link_via_rebind(u, u.host_vertex(0), u.host_vertex(5), 0.0001);
  const metrics::TreeMetrics after = metrics::measure_tree(tree, 0, u, scratch);
  expect_same(after, metrics::measure_tree(tree, 0, u, scratch));
  expect_same(after, metrics::measure_tree(tree, 0, u));
}

}  // namespace
}  // namespace vdm::net
