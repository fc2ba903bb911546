// Property tests for the zero-allocation routing fast path: the dense
// Router tree memo over transit vertices, reads through leaves' access
// links and across bridges into the next region's tree, the visitor API,
// and the GraphUnderlay host-pair loss memo must all agree bit for bit with
// a plain reference Dijkstra over every vertex — on random Waxman and
// transit-stub graphs with hosts attached, on small hand-built leaf and
// bridge cases, again after Graph version bumps clear every tree, and after
// rebind() seats a topology of another size or of equal version. The tree
// and settled-vertex counts are checked against a brute-force statement of
// the bridge rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <set>
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

/// Bitwise equality: unlike ==, a NaN that leaked out of a memo fails it.
/// Float Dijkstra distances do not depend on the heap's pop order, so the
/// reference's `dist` is an exact oracle.
bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// One read src -> dst against the reference tree of src, bit for bit:
/// delay, path_loss, path() and the for_each_link visitor.
void expect_read_matches_reference(const Graph& g, const Router& r,
                                   const RefSssp& ref, NodeId a, NodeId b) {
  EXPECT_TRUE(same_bits(r.delay(a, b), ref.dist[b])) << "src=" << a << " dst=" << b;
  std::vector<LinkId> visited;
  r.for_each_link(a, b, [&visited](LinkId l) { visited.push_back(l); });
  if (ref.dist[b] == kInf) {
    EXPECT_TRUE(r.path(a, b).empty());
    EXPECT_TRUE(visited.empty());
    EXPECT_TRUE(same_bits(r.path_loss(a, b), 0.0));
    return;
  }
  EXPECT_TRUE(same_bits(r.path_loss(a, b), reference_loss(g, ref, a, b)))
      << "src=" << a << " dst=" << b;

  // path() must be the reference chain in forward order, and the visitor
  // sees exactly the same sequence without allocating.
  std::vector<LinkId> ref_path;
  for (NodeId at = b; at != a; at = ref.parent_node[at]) {
    ref_path.push_back(ref.parent_link[at]);
  }
  std::reverse(ref_path.begin(), ref_path.end());
  EXPECT_EQ(r.path(a, b), ref_path) << "src=" << a << " dst=" << b;
  EXPECT_EQ(visited, ref_path) << "src=" << a << " dst=" << b;
}

/// Full agreement check between Router fast path and the reference on a
/// sample of ordered vertex pairs (every pair, self pairs included, with
/// both strides 1).
void expect_matches_reference(const Graph& g, const Router& r,
                              std::size_t src_stride, std::size_t dst_stride = 3) {
  const auto n = static_cast<NodeId>(g.num_nodes());
  for (NodeId a = 0; a < n; a += static_cast<NodeId>(src_stride)) {
    const RefSssp ref = reference_dijkstra(g, a);
    for (NodeId b = 0; b < n; b += static_cast<NodeId>(dst_stride)) {
      expect_read_matches_reference(g, r, ref, a, b);
    }
  }
}

/// Brute-force statement of the bridge rule. A bridge is a link between
/// two transit vertices (two or more links) whose removal splits their
/// component of the transit vertices; its region is its lighter side (on
/// an even split, the side without the component's lowest vertex). For
/// each transit vertex: the transit vertex count of its innermost region,
/// the smallest that holds it, or of its whole component when it is on the
/// heavier side of every bridge, and the far end of that region's bridge
/// (kInvalidNode for a whole component).
struct BridgeRegions {
  std::vector<std::size_t> size;  // by vertex; 0 for non-transit vertices
  std::vector<NodeId> gate;       // by vertex
};

BridgeRegions bridge_regions(const Graph& g) {
  const std::size_t n = g.num_nodes();
  const auto transit = [&g](NodeId v) { return g.degree(v) >= 2; };
  // The transit vertices reachable from `from` without link `cut`.
  const auto side = [&](NodeId from, LinkId cut) {
    std::vector<char> seen(n, 0);
    std::vector<NodeId> stack{from};
    seen[from] = 1;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const Graph::Arc& arc : g.arcs(v)) {
        if (arc.link == cut || !transit(arc.to) || seen[arc.to]) continue;
        seen[arc.to] = 1;
        stack.push_back(arc.to);
      }
    }
    return seen;
  };
  BridgeRegions out{std::vector<std::size_t>(n, 0),
                    std::vector<NodeId>(n, kInvalidNode)};
  for (NodeId v = 0; v < n; ++v) {
    if (!transit(v)) continue;
    const std::vector<char> comp = side(v, kInvalidLink);
    out.size[v] = static_cast<std::size_t>(std::count(comp.begin(), comp.end(), 1));
  }
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const Link& link = g.link(l);
    if (!transit(link.a) || !transit(link.b)) continue;
    const std::vector<char> a_side = side(link.a, l);
    if (a_side[link.b]) continue;  // a cycle (or a parallel link) joins them
    const std::vector<char> comp = side(link.a, kInvalidLink);
    std::size_t a_count = 0;
    std::size_t comp_count = 0;
    NodeId lowest = kInvalidNode;
    for (NodeId v = 0; v < n; ++v) {
      if (!comp[v]) continue;
      ++comp_count;
      if (a_side[v]) ++a_count;
      if (lowest == kInvalidNode) lowest = v;
    }
    const std::size_t b_count = comp_count - a_count;
    const bool a_is_region =
        a_count < b_count || (a_count == b_count && !a_side[lowest]);
    const std::size_t region = a_is_region ? a_count : b_count;
    for (NodeId v = 0; v < n; ++v) {
      if (!comp[v] || (a_side[v] != 0) != a_is_region || region >= out.size[v]) continue;
      out.size[v] = region;
      out.gate[v] = a_is_region ? link.b : link.a;
    }
  }
  return out;
}

/// Trees and settled vertices of a fresh Router after reads from `roots`
/// (tree roots: transit vertices, or a leaf's router) that reach past
/// every bridge: each root's tree, and those of the far ends of the
/// bridges out of each region on the way.
struct TreeWork {
  std::size_t trees = 0;
  std::size_t settled = 0;
};

TreeWork expected_work(const BridgeRegions& br, const std::vector<NodeId>& roots) {
  std::set<NodeId> computed;
  for (NodeId at : roots) {
    for (; at != kInvalidNode && computed.insert(at).second; at = br.gate[at]) {
    }
  }
  TreeWork work{computed.size(), 0};
  for (const NodeId v : computed) work.settled += br.size[v];
  return work;
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

/// Every host pair of `u`, read in both orientations, equals a fresh
/// Router's delay and loss on the low -> high vertices, bit for bit, and
/// every ordered pair's path and visitor equal the fresh Router's path.
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
  for (HostId a = 0; a < u.num_hosts(); ++a) {
    for (HostId b = 0; b < u.num_hosts(); ++b) {
      const std::vector<LinkId> path =
          fresh.path(u.host_vertex(a), u.host_vertex(b));
      std::vector<LinkId> visited;
      u.for_each_path_link(a, b, [&visited](LinkId l) { visited.push_back(l); });
      EXPECT_EQ(u.path(a, b), path) << a << "->" << b;
      EXPECT_EQ(visited, path) << a << "->" << b;
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
  // A fresh Router shares no memo with the underlay.
  GraphUnderlay u = lossy_underlay(41, 24);
  expect_pairs_match_router(u);

  // Warm memo, then reseat a topology with one more link and require
  // recomputation. The two hosts become transit vertices (two links each).
  const NodeId v0 = u.host_vertex(0);
  const NodeId v1 = u.host_vertex(1);
  add_link_via_rebind(u, v0, v1, 0.0001);
  expect_pairs_match_router(u);
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

TEST(RoutingFastPath, PairMemoHoldsLossesOnlyAndDelayReadsLeaveItUnfilled) {
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

  // Delay reads are router-tree reads: the pair table is still unsized, so
  // the first loss read (on a source whose tree is built) grows the arena
  // by exactly one 8-byte slot per host pair and nothing else.
  const std::size_t n = delay_first.num_hosts();
  const std::size_t after_delays = delay_first.arena_capacity_bytes();
  EXPECT_GT(delay_first.loss(1, 0), 0.0);
  EXPECT_EQ(delay_first.arena_capacity_bytes() - after_delays,
            n * (n - 1) / 2 * sizeof(double));

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

/// A router graph with hosts hung off `candidates` by attach_hosts_into,
/// the way run_once builds it, and a per-vertex host flag.
struct HostedGraph {
  Graph graph;
  std::vector<NodeId> hosts;
  std::vector<std::uint8_t> is_host;
};

HostedGraph hosted(Graph graph, const std::vector<NodeId>& candidates,
                   std::size_t num_hosts, double access_loss, util::Rng& rng) {
  HostedGraph h{std::move(graph), {}, {}};
  topo::HostAttachment hp;
  hp.num_hosts = num_hosts;
  hp.loss_max = access_loss;
  topo::attach_hosts_into(h.graph, candidates, hp, rng, h.hosts);
  h.is_host.assign(h.graph.num_nodes(), 0);
  for (const NodeId v : h.hosts) h.is_host[v] = 1;
  return h;
}

/// Every ordered vertex pair against the reference, requiring reachable
/// reads of each kind: host -> host, host -> router and router -> host.
/// Host sources read first: they share their access routers' trees, one
/// Dijkstra run per distinct router and one per far end of a bridge their
/// reads cross (bridge_regions()).
void expect_hosted_reads_match_reference(const HostedGraph& h) {
  const Router r(h.graph);
  const auto n = static_cast<NodeId>(h.graph.num_nodes());
  std::size_t reads[2][2] = {};  // [src is host][dst is host]
  const auto reads_from = [&](NodeId a) {
    const RefSssp ref = reference_dijkstra(h.graph, a);
    for (NodeId b = 0; b < n; ++b) {
      expect_read_matches_reference(h.graph, r, ref, a, b);
      if (a != b && ref.dist[b] != kInf) ++reads[h.is_host[a]][h.is_host[b]];
    }
  };
  std::vector<NodeId> access_routers;
  for (const NodeId a : h.hosts) {
    reads_from(a);
    access_routers.push_back(h.graph.arcs(a)[0].to);
  }
  const TreeWork work = expected_work(bridge_regions(h.graph), access_routers);
  std::sort(access_routers.begin(), access_routers.end());
  const auto distinct = static_cast<std::size_t>(
      std::unique(access_routers.begin(), access_routers.end()) - access_routers.begin());
  EXPECT_LT(distinct, h.hosts.size());  // some routers carry several hosts
  EXPECT_EQ(r.trees_computed(), work.trees);
  EXPECT_EQ(r.vertices_settled(), work.settled);
  for (NodeId a = 0; a < n; ++a) {
    if (!h.is_host[a]) reads_from(a);
  }
  EXPECT_GT(reads[1][1], 0u);
  EXPECT_GT(reads[1][0], 0u);
  EXPECT_GT(reads[0][1], 0u);
}

TEST(RoutingFastPath, HostReadsMatchReferenceBitwiseOnTransitStub) {
  util::Rng rng(101);
  topo::TransitStubTopology ts = topo::make_transit_stub(lossy_transit_stub(), rng);
  expect_hosted_reads_match_reference(
      hosted(std::move(ts.graph), ts.stub_routers, 30, 0.01, rng));
}

TEST(RoutingFastPath, HostReadsMatchReferenceBitwiseOnWaxman) {
  // Hosts land on every router, as run_once places them on Waxman graphs.
  util::Rng rng(102);
  topo::WaxmanParams wp;
  wp.num_routers = 40;
  wp.loss_max = 0.02;
  Graph g = topo::make_waxman(wp, rng).graph;
  std::vector<NodeId> routers(g.num_nodes());
  for (NodeId v = 0; v < routers.size(); ++v) routers[v] = v;
  expect_hosted_reads_match_reference(hosted(std::move(g), routers, 50, 0.0, rng));
}

/// delay(a, b) and delay(b, a) between host vertices, bit for bit: the
/// two reads sum the same links from opposite ends, so only exact sums
/// agree. Without the delay grid they part in the last bits.
void expect_host_delays_symmetric_bitwise(const HostedGraph& h) {
  const Router r(h.graph);
  std::size_t reachable = 0;
  for (const NodeId a : h.hosts) {
    for (const NodeId b : h.hosts) {
      EXPECT_TRUE(same_bits(r.delay(a, b), r.delay(b, a))) << a << " " << b;
      if (a != b && r.delay(a, b) < kInf) ++reachable;
    }
  }
  EXPECT_EQ(reachable, h.hosts.size() * (h.hosts.size() - 1));
}

TEST(RoutingFastPath, HostDelaysAreSymmetricBitwiseOnTransitStub) {
  util::Rng rng(103);
  topo::TransitStubTopology ts = topo::make_transit_stub(lossy_transit_stub(), rng);
  expect_host_delays_symmetric_bitwise(
      hosted(std::move(ts.graph), ts.stub_routers, 60, 0.01, rng));
}

TEST(RoutingFastPath, HostDelaysAreSymmetricBitwiseOnWaxman) {
  util::Rng rng(104);
  topo::WaxmanParams wp;
  wp.num_routers = 60;
  Graph g = topo::make_waxman(wp, rng).graph;
  std::vector<NodeId> routers(g.num_nodes());
  for (NodeId v = 0; v < routers.size(); ++v) routers[v] = v;
  expect_host_delays_symmetric_bitwise(hosted(std::move(g), routers, 60, 0.0, rng));
}

TEST(RoutingFastPath, LeafEdgeCasesMatchReferenceBitwise) {
  Graph g;
  g.add_nodes(9);
  // Routers 0 and 1, and router 2: degree 1, without hosts.
  g.add_link(0, 1, 0.011, 0.01);
  g.add_link(1, 2, 0.007, 0.02);
  // Hosts 3 and 4 on one router.
  const LinkId host3 = g.add_link(3, 0, 0.003, 0.001);
  const LinkId host4 = g.add_link(0, 4, 0.005, 0.002);
  // Host 5 with two parallel access links: a transit vertex.
  g.add_link(5, 1, 0.013, 0.003);
  const LinkId fast = g.add_link(1, 5, 0.009, 0.004);
  // Leaves 7 and 8 form a component of their own; 6 is isolated.
  const LinkId pair = g.add_link(7, 8, 0.004, 0.006);
  const Router r(g);
  expect_matches_reference(g, r, 1, 1);

  const auto stored = [&g](LinkId l) { return g.link(l).delay; };
  EXPECT_TRUE(same_bits(r.delay(7, 8), 0.0 + stored(pair)));
  EXPECT_TRUE(same_bits(r.delay(8, 7), 0.0 + stored(pair)));
  EXPECT_EQ(r.path(8, 7), std::vector<LinkId>{pair});
  EXPECT_TRUE(same_bits(r.delay(3, 4), (0.0 + stored(host3)) + stored(host4)));
  EXPECT_EQ(r.path(1, 5), std::vector<LinkId>{fast});
  EXPECT_EQ(r.delay(7, 0), kInf);
  EXPECT_EQ(r.delay(0, 8), kInf);
  EXPECT_EQ(r.delay(6, 3), kInf);
  EXPECT_EQ(r.delay(3, 6), kInf);
}

TEST(RoutingFastPath, TreesWithoutTransitVerticesStayMemoized) {
  // No vertex has two links: every tree holds only its spare slot, and a
  // computed tree must still read as current.
  Graph g;
  g.add_nodes(3);
  g.add_link(0, 1, 0.004, 0.1);
  const Router r(g);
  expect_matches_reference(g, r, 1, 1);
  EXPECT_EQ(r.trees_computed(), 3u);  // one per source
  expect_matches_reference(g, r, 1, 1);
  EXPECT_EQ(r.trees_computed(), 3u);
}

TEST(RoutingFastPath, RebindToAnEqualVersionGraphReindexesTransitVertices) {
  // Two fresh graphs built by the same sequence of mutations share a
  // version() but not their leaves, so only rebind()'s clear_cache() can
  // tell the router that its transit index is stale.
  const auto build = [](NodeId shift) {
    const auto v = [shift](NodeId i) { return (i + shift) % 8; };
    Graph g;
    g.add_nodes(8);
    g.add_link(v(0), v(1), 0.010, 0.01);  // routers v(0)..v(3) in a line
    g.add_link(v(1), v(2), 0.020, 0.02);
    g.add_link(v(2), v(3), 0.030, 0.03);
    g.add_link(v(4), v(1), 0.001, 0.001);  // hosts v(4)..v(6); v(7) isolated
    g.add_link(v(5), v(2), 0.002, 0.002);
    g.add_link(v(6), v(2), 0.003, 0.003);
    return g;
  };
  Graph first = build(0);
  Graph second = build(3);
  ASSERT_EQ(first.version(), second.version());

  GraphUnderlay u(std::move(first), {4, 5, 6, 0, 3, 7});
  expect_pairs_match_router(u);  // indexes the first graph
  Graph husk;
  std::vector<NodeId> hosts;
  u.release(husk, hosts);
  u.rebind(std::move(second), {7, 0, 1, 3, 6, 2});
  expect_pairs_match_router(u);
  // Links 3, 1 and 4: v(4) - v(1) - v(2) - v(5).
  const auto stored = [&u](LinkId l) { return u.graph().link(l).delay; };
  EXPECT_TRUE(same_bits(u.delay(0, 1), (0.0 + stored(3)) + stored(1) + stored(4)));
}

/// Hand-built router graph for the bridge cases: `links` between routers
/// 0 .. routers - 1, then one host per entry of `host_routers`, every delay
/// and loss drawn from `rng` (so no two paths tie).
HostedGraph bridge_case(std::size_t routers,
                        std::initializer_list<std::pair<NodeId, NodeId>> links,
                        std::initializer_list<NodeId> host_routers,
                        util::Rng& rng) {
  HostedGraph h;
  h.graph.add_nodes(routers);
  for (const auto& [a, b] : links) {
    h.graph.add_link(a, b, rng.uniform(0.001, 0.02), rng.uniform(0.0, 0.02));
  }
  for (const NodeId router : host_routers) {
    const NodeId host = h.graph.add_node();
    h.graph.add_link(host, router, rng.uniform(0.001, 0.005), rng.uniform(0.0, 0.01));
    h.hosts.push_back(host);
  }
  h.is_host.assign(h.graph.num_nodes(), 0);
  for (const NodeId v : h.hosts) h.is_host[v] = 1;
  return h;
}

/// Trees and settled vertices of a fresh Router after one read.
TreeWork first_read_work(const HostedGraph& h, NodeId src, NodeId dst) {
  const Router r(h.graph);
  r.delay(src, dst);
  return {r.trees_computed(), r.vertices_settled()};
}

void expect_work(const TreeWork& got, std::size_t trees, std::size_t settled) {
  EXPECT_EQ(got.trees, trees);
  EXPECT_EQ(got.settled, settled);
}

TEST(RoutingFastPath, BridgeRegionsChainAlongALine) {
  // Routers 0 .. 8 in a line with a host on each (two on router 0): every
  // router link is a bridge and router 4 is on the heavier side of each, so
  // the regions are {0}, {0, 1}, {0 .. 2}, {0 .. 3} (and their mirrors) and
  // a read from router 0's host to router 8's crosses four bridges.
  util::Rng rng(111);
  const HostedGraph h = bridge_case(
      9, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 0}, rng);
  expect_hosted_reads_match_reference(h);
  expect_work(first_read_work(h, h.hosts[0], 0), 1, 1);
  expect_work(first_read_work(h, h.hosts[0], h.hosts[8]), 5, 1 + 2 + 3 + 4 + 9);
  expect_work(first_read_work(h, h.hosts[7], h.hosts[1]), 4, 2 + 3 + 4 + 9);
}

TEST(RoutingFastPath, BridgeRegionsRootTheNumberingOnTheHeavierSide) {
  // A barbell: blob {0, 1, 2} (a triangle), the path 2 - 3 - 4 - 5, and
  // blob {5 .. 10} (a hexagon with a chord). The search starts at vertex 0,
  // in the smaller blob, and must move the numbering's root to the larger.
  util::Rng rng(112);
  const HostedGraph h = bridge_case(
      11,
      {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8},
       {8, 9}, {9, 10}, {10, 5}, {5, 8}},
      {0, 1, 3, 7, 10, 0}, rng);
  expect_hosted_reads_match_reference(h);
  expect_work(first_read_work(h, h.hosts[0], 1), 1, 3);
  // Regions {0 .. 2}, {0 .. 3} and {0 .. 4}, then the whole graph.
  expect_work(first_read_work(h, h.hosts[0], h.hosts[4]), 4, 3 + 4 + 5 + 11);
  expect_work(first_read_work(h, h.hosts[4], h.hosts[0]), 1, 11);
}

TEST(RoutingFastPath, BridgeRegionsTreatAParallelGatewayAsNoBridge) {
  // Core pentagon 0 .. 4. Stub {5, 6, 7} hangs off router 0 by a gateway
  // doubled by a parallel link of longer delay: no bridge, so its routers'
  // trees cover the whole graph. Stub {8, 9, 10} hangs off router 2 by a
  // single gateway, a bridge.
  util::Rng rng(113);
  HostedGraph h = bridge_case(
      11,
      {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 6}, {6, 7}, {7, 5}, {5, 0},
       {8, 9}, {9, 10}, {10, 8}, {8, 2}},
      {6, 7, 9, 3, 6}, rng);
  const LinkId gateway = 8;  // {5, 0}
  h.graph.add_link(0, 5, h.graph.link(gateway).delay + 0.003, 0.01);
  expect_hosted_reads_match_reference(h);
  expect_work(first_read_work(h, h.hosts[0], 5), 1, 11);
  expect_work(first_read_work(h, h.hosts[2], h.hosts[0]), 2, 3 + 11);
}

TEST(RoutingFastPath, BridgeRegionsStayInsideTheirComponent) {
  // Two components, each with a pendant region: triangle {0, 1, 2} off
  // square {3 .. 6}, and router 7 off triangle {8, 9, 10}. Reads between
  // them climb to their component's whole tree and find nothing.
  util::Rng rng(114);
  const HostedGraph h = bridge_case(
      11,
      {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 3}, {7, 8},
       {8, 9}, {9, 10}, {10, 8}},
      {0, 1, 5, 7, 9, 9}, rng);
  expect_hosted_reads_match_reference(h);
  expect_work(first_read_work(h, h.hosts[3], h.hosts[0]), 2, 1 + 4);
  expect_work(first_read_work(h, h.hosts[0], 1), 1, 3);
  expect_work(first_read_work(h, h.hosts[0], h.hosts[4]), 2, 3 + 7);
}

TEST(RoutingFastPath, BridgeRegionsNestInsideAStubDomain) {
  // Stub router 0 hangs off stub triangle {1, 2, 3} by an internal bridge,
  // and the stub off core pentagon {4 .. 8} by gateway 3 - 4: a read from
  // router 0's host to the core crosses two bridges.
  util::Rng rng(115);
  const HostedGraph h = bridge_case(
      9,
      {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8},
       {8, 4}},
      {0, 2, 6, 6}, rng);
  expect_hosted_reads_match_reference(h);
  expect_work(first_read_work(h, h.hosts[0], 0), 1, 1);
  expect_work(first_read_work(h, h.hosts[0], h.hosts[1]), 2, 1 + 4);
  expect_work(first_read_work(h, h.hosts[0], h.hosts[2]), 3, 1 + 4 + 9);
}

TEST(RoutingFastPath, FirstReadFromAStubHostSettlesOnlyItsRegion) {
  // The paper's 792-router graph: each stub domain hangs off its transit
  // router by one gateway bridge, so a stub host's first read settles its
  // region only, at most its stub domain.
  util::Rng rng(116);
  const topo::TransitStubParams params;
  topo::TransitStubTopology ts = topo::make_transit_stub(params, rng);
  ASSERT_EQ(ts.graph.num_nodes(), 792u);
  const HostedGraph h = hosted(std::move(ts.graph), ts.stub_routers, 256, 0.01, rng);
  const BridgeRegions br = bridge_regions(h.graph);
  const Router r(h.graph);
  for (const NodeId host : h.hosts) {
    const NodeId router = h.graph.arcs(host)[0].to;
    r.clear_cache();
    EXPECT_LT(r.delay(host, router), kInf);
    EXPECT_EQ(r.trees_computed(), 1u);
    EXPECT_EQ(r.vertices_settled(), br.size[router]) << "host " << host;
    EXPECT_LE(br.size[router], params.routers_per_stub) << "host " << host;
  }
}

TEST(RoutingFastPath, RegionBuffersKeepTheirCapacityAcrossRebinds) {
  // Reads along a line (chains four bridges deep) grow every buffer of the
  // router once: clearing its trees, or reseating the graph the way a
  // same-size rebuild does, reuses them all.
  util::Rng rng(117);
  HostedGraph h = bridge_case(
      9, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}},
      {0, 8, 1, 7, 2, 6, 3, 5, 4}, rng);
  GraphUnderlay u(std::move(h.graph), std::move(h.hosts));
  expect_pairs_match_router(u);
  const std::size_t warm = u.arena_capacity_bytes();
  EXPECT_GT(u.router().cache_capacity_bytes(), 0u);
  u.router().clear_cache();
  expect_pairs_match_router(u);
  EXPECT_EQ(u.arena_capacity_bytes(), warm);
  Graph graph;
  std::vector<NodeId> hosts;
  u.release(graph, hosts);
  u.rebind(std::move(graph), std::move(hosts));
  expect_pairs_match_router(u);
  EXPECT_EQ(u.arena_capacity_bytes(), warm);
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
