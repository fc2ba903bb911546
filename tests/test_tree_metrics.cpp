#include "metrics/tree_metrics.hpp"

#include <gtest/gtest.h>

#include "core/vdm_protocol.hpp"
#include "helpers.hpp"
#include "net/graph_underlay.hpp"
#include "topology/simple.hpp"
#include "util/stats.hpp"

namespace vdm::metrics {
namespace {

using overlay::Membership;

Membership star_tree(std::size_t n) {
  Membership m(n);
  m.activate(0, 8);
  for (net::HostId h = 1; h < n; ++h) {
    m.activate(h, 8);
    m.attach(h, 0, 1.0);
  }
  return m;
}

Membership chain_tree(std::size_t n) {
  Membership m(n);
  m.activate(0, 8);
  for (net::HostId h = 1; h < n; ++h) {
    m.activate(h, 8);
    m.attach(h, h - 1, 1.0);
  }
  return m;
}

TEST(TreeMetrics, EmptyTreeIsZero) {
  Membership m(3);
  m.activate(0, 4);
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0});
  const TreeMetrics t = measure_tree(m, 0, u);
  EXPECT_EQ(t.members, 1u);
  EXPECT_DOUBLE_EQ(t.stress_avg, 0.0);
  EXPECT_DOUBLE_EQ(t.stretch_avg, 0.0);
  EXPECT_DOUBLE_EQ(t.network_usage, 0.0);
}

TEST(TreeMetrics, StarOnMatrixUnderlayIsUnitStretch) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0, 30.0});
  const Membership m = star_tree(4);
  const TreeMetrics t = measure_tree(m, 0, u);
  EXPECT_EQ(t.members, 4u);
  EXPECT_DOUBLE_EQ(t.stretch_avg, 1.0);  // every member served directly
  EXPECT_DOUBLE_EQ(t.stretch_min, 1.0);
  EXPECT_DOUBLE_EQ(t.stretch_max, 1.0);
  EXPECT_DOUBLE_EQ(t.hop_avg, 1.0);
  EXPECT_DOUBLE_EQ(t.hop_max, 1.0);
  // One pseudo-link per member pair, each used once.
  EXPECT_DOUBLE_EQ(t.stress_avg, 1.0);
  EXPECT_EQ(t.links_used, 3u);
  // One-way delays: 5 + 10 + 15.
  EXPECT_DOUBLE_EQ(t.network_usage, 30.0);
}

TEST(TreeMetrics, ChainOnLineIsUnitStretchButDeep) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0, 30.0});
  const Membership m = chain_tree(4);
  const TreeMetrics t = measure_tree(m, 0, u);
  // Colinear relays add no extra delay: (5+5+5)/15 = 1.
  EXPECT_DOUBLE_EQ(t.stretch_avg, 1.0);
  EXPECT_DOUBLE_EQ(t.hop_avg, 2.0);  // depths 1, 2, 3
  EXPECT_DOUBLE_EQ(t.hop_max, 3.0);
  EXPECT_DOUBLE_EQ(t.hop_leaf_avg, 3.0);  // single leaf at depth 3
  EXPECT_DOUBLE_EQ(t.network_usage, 15.0);
}

TEST(TreeMetrics, DetourInflatesStretch) {
  // Tree S -> A -> B where B sits geometrically next to S: the overlay
  // detour through A doubles B's delay.
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 1.0});
  Membership m(3);
  m.activate(0, 8);
  m.activate(1, 8);
  m.activate(2, 8);
  m.attach(1, 0, 10.0);
  m.attach(2, 1, 9.0);
  const TreeMetrics t = measure_tree(m, 0, u);
  // B: overlay delay = (10 + 9)/2 = 9.5 vs direct 0.5 -> stretch 19.
  EXPECT_DOUBLE_EQ(t.stretch_max, 19.0);
  EXPECT_DOUBLE_EQ(t.stretch_min, 1.0);  // A itself is direct
}

TEST(TreeMetrics, LeafAveragesExcludeInteriorNodes) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0, 30.0});
  Membership m(4);
  for (net::HostId h = 0; h < 4; ++h) m.activate(h, 8);
  m.attach(1, 0, 10.0);  // interior
  m.attach(2, 1, 10.0);  // leaf at depth 2
  m.attach(3, 1, 20.0);  // leaf at depth 2
  const TreeMetrics t = measure_tree(m, 0, u);
  EXPECT_DOUBLE_EQ(t.hop_leaf_avg, 2.0);
  EXPECT_DOUBLE_EQ(t.hop_avg, (1.0 + 2.0 + 2.0) / 3.0);
}

TEST(TreeMetrics, StressCountsSharedPhysicalLinks) {
  // Routers r0 - r1; source host on r0, two receivers on r1, both fed
  // directly: the r0-r1 core link carries the chunk twice.
  net::Graph g = topo::make_line(2, 0.010);
  const net::NodeId hs = g.add_node();
  const net::NodeId ha = g.add_node();
  const net::NodeId hb = g.add_node();
  g.add_link(hs, 0, 0.001);
  g.add_link(ha, 1, 0.001);
  g.add_link(hb, 1, 0.001);
  const net::GraphUnderlay u(std::move(g), {hs, ha, hb});

  const Membership m = star_tree(3);
  const TreeMetrics t = measure_tree(m, 0, u);
  // Used links: hs-r0 (x2), r0-r1 (x2), r1-ha (x1), r1-hb (x1).
  EXPECT_EQ(t.links_used, 4u);
  EXPECT_DOUBLE_EQ(t.stress_avg, 6.0 / 4.0);
  EXPECT_DOUBLE_EQ(t.stress_max, 2.0);
}

TEST(TreeMetrics, RelayingThroughPeersReducesStress) {
  // Same substrate, but chaining the second receiver behind the first
  // makes every physical link carry the chunk exactly once.
  net::Graph g = topo::make_line(2, 0.010);
  const net::NodeId hs = g.add_node();
  const net::NodeId ha = g.add_node();
  const net::NodeId hb = g.add_node();
  g.add_link(hs, 0, 0.001);
  g.add_link(ha, 1, 0.001);
  g.add_link(hb, 1, 0.001);
  const net::GraphUnderlay u(std::move(g), {hs, ha, hb});

  Membership m(3);
  for (net::HostId h = 0; h < 3; ++h) m.activate(h, 8);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);  // relay through host 1
  const TreeMetrics t = measure_tree(m, 0, u);
  // The core r0-r1 link now carries the chunk once (vs twice in the star);
  // only host 1's access link is double-used (down to the host, back up to
  // its child): traversals {hs-r0: 1, r0-r1: 1, r1-ha: 2, r1-hb: 1}.
  EXPECT_DOUBLE_EQ(t.stress_max, 2.0);
  EXPECT_DOUBLE_EQ(t.stress_avg, 5.0 / 4.0);  // < the star's 6/4
}

TEST(TreeMetrics, DetachedMembersAreIgnoredByPathMetrics) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0});
  Membership m(3);
  for (net::HostId h = 0; h < 3; ++h) m.activate(h, 8);
  m.attach(1, 0, 10.0);
  // Host 2 alive but detached (mid-reconnect).
  const TreeMetrics t = measure_tree(m, 0, u);
  EXPECT_EQ(t.members, 3u);        // counted as members
  EXPECT_DOUBLE_EQ(t.hop_max, 1.0);  // but not in the tree paths
}

/// The hop fields and member count as a Membership::depth climb per member
/// and a scan of every host slot give them, accumulated in measure_tree's
/// BFS order so the means compare bit for bit.
struct HopReference {
  std::size_t members = 0;
  double hop_avg = 0.0;
  double hop_max = 0.0;
  double hop_leaf_avg = 0.0;
};

HopReference reference_hops(const Membership& m, net::HostId source) {
  HopReference ref;
  for (net::HostId h = 0; h < m.num_hosts(); ++h) {
    if (m.member(h).alive) ++ref.members;
  }
  util::OnlineStats all, leaf;
  std::vector<net::HostId> order{source};
  for (std::size_t i = 0; i < order.size(); ++i) {
    const overlay::MemberState& ms = m.member(order[i]);
    order.insert(order.end(), ms.children.begin(), ms.children.end());
    if (i == 0) continue;
    const auto hops = static_cast<double>(m.depth(order[i]));
    all.add(hops);
    if (ms.children.empty()) leaf.add(hops);
  }
  ref.hop_avg = all.mean();
  ref.hop_max = all.empty() ? 0.0 : all.max();
  ref.hop_leaf_avg = leaf.mean();
  return ref;
}

void expect_hops_match_reference(const Membership& m,
                                 const net::Underlay& u,
                                 TreeMetricsScratch& scratch,
                                 net::HostId source = 0) {
  const TreeMetrics t = measure_tree(m, source, u, scratch);
  const HopReference ref = reference_hops(m, source);
  EXPECT_EQ(t.members, ref.members);
  EXPECT_EQ(t.hop_avg, ref.hop_avg);
  EXPECT_EQ(t.hop_max, ref.hop_max);
  EXPECT_EQ(t.hop_leaf_avg, ref.hop_leaf_avg);
}

TEST(TreeMetrics, HopCountsMatchDepthClimbsOnRandomTrees) {
  // One scratch for every tree, large and small, so hop counts left from a
  // bigger earlier tree are in the way. Crashes (deactivate) leave detached
  // orphan fragments with whole subtrees, which must count as members but
  // not as hops; measured from its own root, a fragment must count from 0
  // although that root had a hop count in the capture before.
  constexpr std::size_t kHosts = 80;
  std::vector<double> position;
  for (std::size_t i = 0; i < kHosts; ++i) {
    position.push_back(static_cast<double>((i * 53) % 97));
  }
  const net::MatrixUnderlay u = testutil::line_underlay(position);
  util::Rng rng(23);
  TreeMetricsScratch scratch;
  std::size_t orphan_fragments = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, kHosts));
    Membership m(n);
    m.activate(0, static_cast<int>(n));
    std::vector<net::HostId> placed{0};
    for (net::HostId h = 1; h < n; ++h) {
      if (rng.chance(0.1)) continue;
      m.activate(h, static_cast<int>(n));
      const auto size = static_cast<std::int64_t>(placed.size());
      const std::int64_t lo = rng.chance(0.5) ? std::max<std::int64_t>(0, size - 2) : 0;
      m.attach(h, placed[static_cast<std::size_t>(rng.uniform_int(lo, size - 1))], 1.0);
      placed.push_back(h);
    }
    expect_hops_match_reference(m, u, scratch);
    std::vector<net::HostId> orphans;
    for (const net::HostId h : placed) {
      if (h == 0 || !m.member(h).alive || !rng.chance(0.1)) continue;
      m.deactivate(h, orphans);
      for (const net::HostId o : orphans) {
        if (m.member(o).children.empty()) continue;
        ++orphan_fragments;
        expect_hops_match_reference(m, u, scratch, o);
      }
    }
    expect_hops_match_reference(m, u, scratch);
  }
  EXPECT_GT(orphan_fragments, 0u);
}

TEST(TreeMetrics, HopCountsMatchDepthClimbsWithPendingCrashOrphans) {
  // A session with heartbeats: crashed interior members leave their
  // subtrees detached until the verdict, so captures in between see
  // fragments hanging from no one.
  constexpr std::size_t kHosts = 60;
  std::vector<double> position;
  for (std::size_t i = 0; i < kHosts; ++i) {
    position.push_back(static_cast<double>((i * 41) % 89) + 0.01 * static_cast<double>(i));
  }
  const net::MatrixUnderlay u = testutil::line_underlay(position);
  core::VdmProtocol vdm;
  sim::Simulator sim;
  const overlay::DelayMetric metric(0.0);
  overlay::SessionParams sp;
  sp.source_degree_limit = 3;
  sp.data_plane = false;
  sp.faults.heartbeat_period = 1.0;
  overlay::Session session(sim, u, vdm, metric, sp, util::Rng(4));
  session.start();
  for (net::HostId h = 1; h < kHosts; ++h) session.join(h, 3);

  TreeMetricsScratch scratch;
  util::Rng rng(8);
  std::size_t pending_fragments = 0;
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < 3; ++k) {
      const auto h = static_cast<net::HostId>(rng.uniform_int(1, kHosts - 1));
      if (!session.tree().member(h).alive) continue;
      for (const net::HostId c : session.tree().member(h).children) {
        if (!session.tree().member(c).children.empty()) ++pending_fragments;
      }
      session.crash(h);
    }
    expect_hops_match_reference(session.tree(), u, scratch);
    sim.run_until(sim.now() + 10.0);  // verdicts land, orphans rejoin
    expect_hops_match_reference(session.tree(), u, scratch);
    for (net::HostId h = 1; h < kHosts; ++h) {
      if (!session.tree().member(h).alive) session.join(h, 3);
    }
  }
  EXPECT_GT(pending_fragments, 0u);
}

TEST(TreeMetrics, TriangleViolationGivesSubUnitStretch) {
  // The paper observes stretch < 1 on PlanetLab (§5.4.3): overlay routing
  // through a relay can beat the "direct" path when the underlay violates
  // the triangle inequality.
  const net::MatrixUnderlay u = testutil::rtt_underlay(
      {{0, 10, 30}, {10, 0, 10}, {30, 10, 0}});
  Membership m(3);
  for (net::HostId h = 0; h < 3; ++h) m.activate(h, 8);
  m.attach(1, 0, 10.0);
  m.attach(2, 1, 10.0);
  const TreeMetrics t = measure_tree(m, 0, u);
  // Host 2: overlay (5 + 5) vs direct 15 -> stretch 2/3.
  EXPECT_NEAR(t.stretch_min, 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace vdm::metrics
