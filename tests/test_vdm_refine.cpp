#include <gtest/gtest.h>

#include "core/vdm_protocol.hpp"
#include "helpers.hpp"

namespace vdm::core {
namespace {

using testutil::Harness;
using testutil::line_underlay;

TEST(VdmRefine, MovesNodeToBetterParent) {
  // Hand-build a pessimal attachment: B (pos 20) directly under S even
  // though A (pos 10) is on the way. Refinement re-runs the join search and
  // relocates B under A (Case III at the source).
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  overlay::Membership& tree = h.session.tree();
  tree.activate(1, 8);
  tree.attach(1, 0, 10.0);
  tree.activate(2, 8);
  tree.attach(2, 0, 20.0);  // pessimal
  const overlay::OpStats stats = h.session.refine(2);
  EXPECT_TRUE(stats.parent_changed);
  EXPECT_EQ(h.parent(2), 1u);
  EXPECT_NO_THROW(tree.validate());
}

TEST(VdmRefine, NoChangeWhenAlreadyOptimal) {
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  h.join(2);  // chain S -> A -> B, already ideal
  const overlay::OpStats stats = h.session.refine(2);
  EXPECT_FALSE(stats.parent_changed);
  EXPECT_EQ(h.parent(2), 1u);
}

TEST(VdmRefine, RefineIsIdempotent) {
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  overlay::Membership& tree = h.session.tree();
  tree.activate(1, 8);
  tree.attach(1, 0, 10.0);
  tree.activate(2, 8);
  tree.attach(2, 0, 20.0);
  EXPECT_TRUE(h.session.refine(2).parent_changed);
  EXPECT_FALSE(h.session.refine(2).parent_changed);
  EXPECT_EQ(h.parent(2), 1u);
}

TEST(VdmRefine, NoSwitchRefreshesStoredParentDistance) {
  // A refinement round that keeps the current parent still measured
  // d(N, P); that fresh sample must replace the stored edge distance, or
  // later directionality classifications at P keep using the stale value.
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  overlay::Membership& tree = h.session.tree();
  tree.activate(1, 8);
  tree.attach(1, 0, 10.0);
  tree.activate(2, 8);
  tree.attach(2, 1, 999.0);  // stale/garbage stored distance, right parent
  const overlay::OpStats stats = h.session.refine(2);
  EXPECT_FALSE(stats.parent_changed);
  EXPECT_EQ(h.parent(2), 1u);
  EXPECT_DOUBLE_EQ(tree.stored_child_distance(1, 2), 10.0);
}

TEST(VdmRefine, SourceAndDetachedNodesAreNoOps) {
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  EXPECT_FALSE(h.session.refine(0).parent_changed);  // source
  EXPECT_EQ(h.session.refine(2).messages, 0);        // not alive
}

TEST(VdmRefine, SubtreeMovesWithRefinedNode) {
  // B carries child C; refining B relocates the pair without breaking C.
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0, 30.0}), vdm);
  overlay::Membership& tree = h.session.tree();
  tree.activate(1, 8);
  tree.attach(1, 0, 10.0);
  tree.activate(2, 8);
  tree.attach(2, 0, 20.0);  // pessimal
  tree.activate(3, 8);
  tree.attach(3, 2, 10.0);
  EXPECT_TRUE(h.session.refine(2).parent_changed);
  EXPECT_EQ(h.parent(2), 1u);
  EXPECT_EQ(h.parent(3), 2u);  // subtree intact
  EXPECT_NO_THROW(tree.validate());
}

TEST(VdmRefine, RefineNeverAttachesInsideOwnSubtree) {
  // A refined node with a deep subtree must ignore its own descendants as
  // candidate parents even when they are geometrically ideal.
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 30.0, 20.0, 10.0}), vdm);
  overlay::Membership& tree = h.session.tree();
  // S -> A(30) -> B(20) -> C(10): B and C are "between" S and A.
  tree.activate(1, 8);
  tree.attach(1, 0, 30.0);
  tree.activate(2, 8);
  tree.attach(2, 1, 10.0);
  tree.activate(3, 8);
  tree.attach(3, 2, 10.0);
  // Refining A: the best geometric parents (B, C) are its own descendants.
  h.session.refine(1);
  EXPECT_NO_THROW(tree.validate());
  EXPECT_NE(h.parent(1), 2u);
  EXPECT_NE(h.parent(1), 3u);
}

TEST(VdmRefine, PeriodicRefinementRunsOnTimers) {
  VdmConfig cfg;
  cfg.refinement = true;
  cfg.refinement_period = 60.0;
  VdmProtocol vdm(cfg);
  EXPECT_TRUE(vdm.wants_refinement());
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  h.join(2);
  h.sim.run_until(200.0);
  EXPECT_GE(h.session.totals().refines_run, 4u);  // 2 nodes x >= 2 rounds
}

TEST(VdmRefine, NoTimersWithoutRefinementConfig) {
  VdmProtocol vdm;  // refinement off by default
  EXPECT_FALSE(vdm.wants_refinement());
  Harness h(line_underlay({0.0, 10.0}), vdm);
  h.join(1);
  h.sim.run_until(1000.0);
  EXPECT_EQ(h.session.totals().refines_run, 0u);
}

TEST(VdmRefine, RefinementChargesOverhead) {
  VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  h.join(2);
  const overlay::Session::Counters snapshot = h.session.totals();
  h.session.refine(2);
  EXPECT_GT((h.session.totals() - snapshot).control_messages, 0u);
}

}  // namespace
}  // namespace vdm::core
