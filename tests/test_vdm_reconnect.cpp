#include <gtest/gtest.h>

#include "core/vdm_protocol.hpp"
#include "helpers.hpp"
#include "util/require.hpp"

namespace vdm::core {
namespace {

using testutil::Harness;
using testutil::line_underlay;

TEST(VdmReconnect, OrphanReconnectsViaGrandparent) {
  // Chain S=0 -> A=10 -> B=20. A leaves; B's reconnection starts at its
  // grandparent S and lands back under S (the only remaining member).
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  ASSERT_EQ(h.join(1), 0u);
  ASSERT_EQ(h.join(2), 1u);
  h.session.leave(1);
  EXPECT_FALSE(h.session.tree().member(1).alive);
  EXPECT_EQ(h.parent(2), 0u);
  EXPECT_NO_THROW(h.session.tree().validate());
}

TEST(VdmReconnect, ReconnectionIsRecordedWithPositiveDuration) {
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  h.join(2);
  h.session.leave(1);
  std::vector<overlay::TimingRecord> recs;
  h.session.drain_reconnect_records(recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].host, 2u);
  EXPECT_GT(recs[0].duration, 0.0);
  EXPECT_GT(recs[0].messages, 0);
}

TEST(VdmReconnect, ReconnectionCheaperThanFullJoinInDeepTree) {
  // In a deep chain, an orphan near the bottom restarts at its grandparent
  // and must contact far fewer nodes than a source-rooted join would.
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0, 30.0, 40.0, 50.0}), vdm);
  for (net::HostId n = 1; n <= 5; ++n) h.join(n);
  h.session.leave(4);  // orphan: 5, grandparent: 3
  std::vector<overlay::TimingRecord> recs;
  h.session.drain_reconnect_records(recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].host, 5u);
  EXPECT_EQ(h.parent(5), 3u);
  EXPECT_EQ(recs[0].iterations, 1);  // one hop of search, not five
}

TEST(VdmReconnect, CascadingLeavesHealViaFreshGrandparents) {
  // S -> A -> B -> C; A then B leave. Each orphan's grandparent pointer is
  // refreshed on every re-attach, so both recoveries start at a live node
  // and the chain heals without touching the source path twice.
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0, 30.0}), vdm);
  h.join(1);
  h.join(2);
  h.join(3);
  h.session.leave(1);  // B reconnects under S (its grandparent)
  h.session.leave(2);  // C reconnects; its grandparent was refreshed to S
  EXPECT_EQ(h.parent(3), 0u);
  EXPECT_NO_THROW(h.session.tree().validate());
}

TEST(VdmReconnect, FallsBackToSourceWhenGrandparentDead) {
  // The paper's rare case: "If both the parent and the grandparent leave at
  // the same time, the orphan node goes to the source" (§3.3). Simultaneous
  // departures are handcrafted: G dies while its grandchild's pointer still
  // names it.
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 5.0, 10.0, 20.0}), vdm);
  overlay::Membership& tree = h.session.tree();
  tree.activate(1, 8);  // G
  tree.attach(1, 0, 5.0);
  tree.activate(2, 8);  // P under G
  tree.attach(2, 1, 5.0);
  tree.activate(3, 8);  // O under P; O.grandparent == G
  tree.attach(3, 2, 10.0);
  ASSERT_EQ(tree.member(3).grandparent, 1u);
  // G and P "leave at the same time": G vanishes first, unannounced.
  tree.detach(2);
  tree.deactivate(1);
  h.session.leave(2);  // O's grandparent (G) is dead -> restart at source
  EXPECT_EQ(h.parent(3), 0u);
  EXPECT_NO_THROW(tree.validate());
}

TEST(VdmReconnect, MultipleOrphansAllRecover) {
  // A node with three children leaves; every orphan reconnects and the
  // member set stays fully attached.
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 11.0, 12.0, 13.0}), vdm);
  h.session.tree().activate(1, 8);
  h.session.tree().attach(1, 0, 10.0);
  for (net::HostId c = 2; c <= 4; ++c) {
    h.session.tree().activate(c, 8);
    h.session.tree().attach(c, 1, 1.0);
  }
  h.session.leave(1);
  for (net::HostId c = 2; c <= 4; ++c) {
    EXPECT_NE(h.parent(c), net::kInvalidHost) << "orphan " << c;
  }
  EXPECT_NO_THROW(h.session.tree().validate());
  EXPECT_EQ(h.session.totals().reconnects_completed, 3u);
}

TEST(VdmReconnect, OrphanWithSubtreeKeepsItAndAvoidsCycles) {
  // S -> A -> B -> C -> D. B (with subtree C, D) is orphaned when A leaves;
  // it must not attach inside its own subtree.
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0, 30.0, 40.0}), vdm);
  for (net::HostId n = 1; n <= 4; ++n) h.join(n);
  h.session.leave(1);
  EXPECT_EQ(h.parent(2), 0u);       // B back under S
  EXPECT_EQ(h.parent(3), 2u);       // subtree untouched
  EXPECT_EQ(h.parent(4), 3u);
  EXPECT_NO_THROW(h.session.tree().validate());
}

TEST(VdmReconnect, LeaveChargesNotificationMessages) {
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  h.join(2);
  const overlay::Session::Counters snapshot = h.session.totals();
  h.session.leave(1);
  // At least: 1 notice to parent + 1 to child + the orphan's rejoin.
  EXPECT_GE((h.session.totals() - snapshot).control_messages, 2u + 6u);
}

TEST(VdmReconnect, SourceCannotLeave) {
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0}), vdm);
  h.join(1);
  EXPECT_THROW(h.session.leave(0), util::InvariantError);
}

TEST(VdmReconnect, LeaveOfDetachedLeafIsClean) {
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  h.join(2);
  h.session.leave(2);  // leaf, no orphans
  EXPECT_EQ(h.session.totals().reconnects_completed, 0u);
  EXPECT_FALSE(h.session.tree().member(2).alive);
  EXPECT_NO_THROW(h.session.tree().validate());
}

TEST(VdmReconnect, RejoinAfterLeaveGetsFreshState) {
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  h.join(2);
  h.session.leave(2);
  EXPECT_EQ(h.join(2), 1u);  // rejoins where the geometry dictates
  EXPECT_TRUE(h.session.tree().member(2).children.empty());
  EXPECT_NO_THROW(h.session.tree().validate());
}

TEST(VdmReconnect, OutageBlocksChunksForSubtree) {
  // While an orphan's reconnection handshake is in flight, chunks flowing
  // in that window are expected-but-undelivered for its subtree.
  VdmProtocol vdm;
  // Positions in seconds-scale RTT units so handshakes take a few seconds.
  Harness h(line_underlay({0.0, 1.0, 2.0, 3.0}), vdm, 8, 1, /*chunk_rate=*/10.0);
  for (net::HostId n = 1; n <= 3; ++n) h.join(n);
  h.sim.run_until(20.0);  // let everyone complete their join handshakes
  const overlay::Session::Counters snapshot = h.session.totals();
  h.sim.run_until(30.0);
  const auto before = h.session.totals() - snapshot;
  ASSERT_GT(before.chunks_expected, 0u);
  EXPECT_EQ(before.chunks_expected, before.chunks_delivered);  // clean network
  h.session.leave(1);  // orphan 2's reconnection handshake takes ~6 s
  h.sim.run_until(31.0);
  const auto after = h.session.totals() - snapshot;
  EXPECT_GT(after.chunks_expected, after.chunks_delivered);
}

}  // namespace
}  // namespace vdm::core
