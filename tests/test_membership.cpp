#include "overlay/membership.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {
namespace {

TEST(Membership, ActivateSetsStateFresh) {
  Membership m(4);
  m.activate(0, 3);
  EXPECT_TRUE(m.member(0).alive);
  EXPECT_EQ(m.member(0).degree_limit, 3);
  EXPECT_EQ(m.member(0).parent, kInvalidHost);
  EXPECT_TRUE(m.member(0).children.empty());
}

TEST(Membership, ActivateRejectsDoubleActivationAndBadDegree) {
  Membership m(2);
  m.activate(0, 1);
  EXPECT_THROW(m.activate(0, 1), util::InvariantError);
  EXPECT_THROW(m.activate(1, 0), util::InvariantError);
}

TEST(Membership, AttachWiresBothDirections) {
  Membership m(3);
  m.activate(0, 2);
  m.activate(1, 2);
  m.attach(1, 0, 0.5);
  EXPECT_EQ(m.member(1).parent, 0u);
  ASSERT_EQ(m.member(0).children.size(), 1u);
  EXPECT_EQ(m.member(0).children[0], 1u);
  EXPECT_DOUBLE_EQ(m.stored_child_distance(0, 1), 0.5);
  m.validate();
}

TEST(Membership, AttachSetsGrandparent) {
  Membership m(3);
  for (HostId h = 0; h < 3; ++h) m.activate(h, 2);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);
  EXPECT_EQ(m.member(2).grandparent, 0u);
  EXPECT_EQ(m.member(1).grandparent, kInvalidHost);
  m.validate();
}

TEST(Membership, AttachEnforcesDegreeLimit) {
  Membership m(4);
  m.activate(0, 2);
  for (HostId h = 1; h < 4; ++h) m.activate(h, 1);
  m.attach(1, 0, 1.0);
  m.attach(2, 0, 1.0);
  EXPECT_FALSE(m.member(0).has_free_degree());
  EXPECT_THROW(m.attach(3, 0, 1.0), util::InvariantError);
  EXPECT_NO_THROW(m.attach(3, 0, 1.0, /*allow_full=*/true));
}

TEST(Membership, OverlayLinksCountTheParentLink) {
  // The degree budget covers every overlay connection: children plus the
  // uplink. A limit-2 member with a parent has one child slot, not two;
  // the root has no uplink so its full budget goes to children.
  Membership m(3);
  m.activate(0, 2);
  m.activate(1, 2);
  m.activate(2, 2);
  EXPECT_EQ(m.member(0).overlay_links(), 0);
  EXPECT_TRUE(m.member(0).has_free_degree());
  m.attach(1, 0, 1.0);
  EXPECT_EQ(m.member(1).overlay_links(), 1);  // the uplink
  EXPECT_TRUE(m.member(1).has_free_degree());
  m.attach(2, 1, 1.0);
  EXPECT_EQ(m.member(1).overlay_links(), 2);
  EXPECT_FALSE(m.member(1).has_free_degree());  // parent + child = limit
  EXPECT_EQ(m.member(0).overlay_links(), 1);    // root: children only
  EXPECT_TRUE(m.member(0).has_free_degree());
  m.validate();
}

TEST(Membership, LimitOneMemberIsAPureLeaf) {
  Membership m(3);
  m.activate(0, 2);
  m.activate(1, 1);
  m.activate(2, 1);
  EXPECT_TRUE(m.member(1).has_free_degree());  // detached: uplink still free
  m.attach(1, 0, 1.0);
  EXPECT_FALSE(m.member(1).has_free_degree());  // saturated by its uplink
  EXPECT_THROW(m.attach(2, 1, 1.0), util::InvariantError);
}

TEST(Membership, ValidateRejectsDegreeOverflow) {
  // allow_full exists for Case II takeovers that immediately rebalance;
  // leaving the tree over budget must be caught.
  Membership m(3);
  m.activate(0, 2);
  m.activate(1, 1);
  m.activate(2, 1);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0, /*allow_full=*/true);  // 1 now has uplink + child > 1
  EXPECT_THROW(m.validate(), util::InvariantError);
}

TEST(Membership, UpdateChildDistanceOverwritesStoredEdge) {
  Membership m(2);
  m.activate(0, 2);
  m.activate(1, 2);
  m.attach(1, 0, 5.0);
  m.update_child_distance(0, 1, 7.5);
  EXPECT_DOUBLE_EQ(m.stored_child_distance(0, 1), 7.5);
  EXPECT_THROW(m.update_child_distance(1, 0, 1.0), util::InvariantError);
  EXPECT_THROW(m.update_child_distance(0, 1, -1.0), util::InvariantError);
}

TEST(Membership, SubtreeHasCapacityFastPathWithoutLimitOneMembers) {
  // No limit-1 member alive: every subtree bottoms out in a leaf whose
  // uplink leaves a slot free, so the answer is constant true (and O(1)).
  Membership m(4);
  for (HostId h = 0; h < 4; ++h) m.activate(h, 2);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);
  m.attach(3, 2, 1.0);
  EXPECT_TRUE(m.subtree_has_capacity(0));
  EXPECT_TRUE(m.subtree_has_capacity(3));
}

TEST(Membership, SubtreeHasCapacitySeesThroughSaturatedLevels) {
  // Root limit 1 (saturated by its only child) whose grandchild still has
  // room: capacity search must descend past full interior nodes, and a
  // subtree of pure leaves must report no capacity.
  Membership m(4);
  m.activate(0, 1);
  m.activate(1, 2);
  m.activate(2, 2);
  m.activate(3, 1);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);
  EXPECT_TRUE(m.subtree_has_capacity(0));   // 2 still has a slot
  EXPECT_TRUE(m.subtree_has_capacity(2));
  m.attach(3, 2, 1.0);
  EXPECT_FALSE(m.subtree_has_capacity(0));  // every slot spoken for
  // Excluding the only member with room hides that capacity.
  m.detach(3);
  EXPECT_TRUE(m.subtree_has_capacity(0));
  EXPECT_FALSE(m.subtree_has_capacity(0, /*exclude=*/2));
}

TEST(Membership, AttachRejectsCycles) {
  Membership m(3);
  for (HostId h = 0; h < 3; ++h) m.activate(h, 3);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);
  m.detach(1);  // 1 keeps child 2
  EXPECT_THROW(m.attach(1, 2, 1.0), util::InvariantError);  // 2 is below 1
  EXPECT_THROW(m.attach(1, 1, 1.0), util::InvariantError);  // self
}

TEST(Membership, AttachRejectsDeadOrDoubleParent) {
  Membership m(3);
  m.activate(0, 2);
  m.activate(1, 2);
  EXPECT_THROW(m.attach(2, 0, 1.0), util::InvariantError);  // 2 not alive
  m.attach(1, 0, 1.0);
  EXPECT_THROW(m.attach(1, 0, 1.0), util::InvariantError);  // already attached
}

TEST(Membership, DetachKeepsSubtreeOnChild) {
  Membership m(4);
  for (HostId h = 0; h < 4; ++h) m.activate(h, 3);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);
  m.attach(3, 2, 1.0);
  m.detach(1);
  EXPECT_EQ(m.member(1).parent, kInvalidHost);
  EXPECT_TRUE(m.member(0).children.empty());
  EXPECT_EQ(m.member(2).parent, 1u);  // subtree intact
  EXPECT_EQ(m.subtree(1), (std::vector<HostId>{1, 2, 3}));
}

TEST(Membership, MoveChildUpdatesGrandparentsOfGrandchildren) {
  Membership m(5);
  for (HostId h = 0; h < 5; ++h) m.activate(h, 4);
  m.attach(1, 0, 1.0);
  m.attach(2, 0, 1.0);
  m.attach(3, 1, 1.0);
  m.attach(4, 3, 1.0);
  // Move 3 from 1 to 2: 3's grandparent becomes 0, 4's becomes 2.
  m.move_child(3, 2, 2.0);
  EXPECT_EQ(m.member(3).parent, 2u);
  EXPECT_EQ(m.member(3).grandparent, 0u);
  EXPECT_EQ(m.member(4).grandparent, 2u);
  m.validate();
}

TEST(Membership, DeactivateOrphansChildrenButKeepsTheirGrandparent) {
  Membership m(4);
  for (HostId h = 0; h < 4; ++h) m.activate(h, 3);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);
  m.attach(3, 1, 1.0);
  const std::vector<HostId> orphans = m.deactivate(1);
  EXPECT_EQ(orphans, (std::vector<HostId>{2, 3}));
  EXPECT_FALSE(m.member(1).alive);
  EXPECT_TRUE(m.member(0).children.empty());
  // Orphans keep the grandparent pointer — that is where they reconnect.
  EXPECT_EQ(m.member(2).parent, kInvalidHost);
  EXPECT_EQ(m.member(2).grandparent, 0u);
  EXPECT_EQ(m.member(3).grandparent, 0u);
}

TEST(Membership, DeactivateDetachedNode) {
  Membership m(2);
  m.activate(0, 1);
  const auto orphans = m.deactivate(0);
  EXPECT_TRUE(orphans.empty());
  EXPECT_FALSE(m.member(0).alive);
}

TEST(Membership, ShapeVersionMovesOnEveryShapeChange) {
  // The session's lossy flood reuses its visit order while this version
  // stands still, so every call that can change an edge must move it.
  Membership m(4);
  std::uint64_t seen = m.shape_version();
  const auto moved = [&m, &seen] {
    const bool moved_now = m.shape_version() > seen;
    seen = m.shape_version();
    return moved_now;
  };
  m.activate(0, 3);
  m.activate(1, 3);
  m.activate(2, 3);
  EXPECT_FALSE(moved());  // activation adds no edge
  m.attach(1, 0, 1.0);
  EXPECT_TRUE(moved());
  m.attach(2, 1, 1.0);
  EXPECT_TRUE(moved());
  m.update_child_distance(1, 2, 2.0);
  EXPECT_FALSE(moved());
  m.detach(1);
  EXPECT_TRUE(moved());
  m.deactivate(1);  // detached already: orphans 2 without a detach
  EXPECT_TRUE(moved());
  m.attach(2, 0, 1.0);
  EXPECT_TRUE(moved());
  m.reset(4);
  EXPECT_TRUE(moved());  // never back to an earlier value, across resets too
}

TEST(Membership, RootPathOrder) {
  Membership m(4);
  for (HostId h = 0; h < 4; ++h) m.activate(h, 2);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);
  m.attach(3, 2, 1.0);
  EXPECT_EQ(m.root_path(3), (std::vector<HostId>{2, 1, 0}));
  EXPECT_TRUE(m.root_path(0).empty());
}

TEST(Membership, DepthMeasuresHops) {
  Membership m(4);
  for (HostId h = 0; h < 4; ++h) m.activate(h, 2);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);
  EXPECT_EQ(m.depth(0), 0u);
  EXPECT_EQ(m.depth(1), 1u);
  EXPECT_EQ(m.depth(2), 2u);
  // Host 3 is alive but detached: depth 0 in its own fragment, and not
  // under the root (the check callers use for attachment).
  EXPECT_EQ(m.depth(3), 0u);
  EXPECT_FALSE(m.is_ancestor(0, 3));
}

TEST(Membership, IsAncestorSemantics) {
  Membership m(4);
  for (HostId h = 0; h < 4; ++h) m.activate(h, 2);
  m.attach(1, 0, 1.0);
  m.attach(2, 1, 1.0);
  EXPECT_TRUE(m.is_ancestor(0, 2));
  EXPECT_TRUE(m.is_ancestor(2, 2));  // reflexive by definition used here
  EXPECT_FALSE(m.is_ancestor(2, 0));
  EXPECT_FALSE(m.is_ancestor(3, 2));
}

TEST(Membership, IsAncestorMatchesAParentClimbOnRandomForests) {
  // Random forests over a pool with dead hosts, grown under random parents,
  // then cut by detaches (fragments keep their subtrees) and deactivations
  // (orphaned children become fragment roots), then partly re-hung. Every
  // ordered pair, a == n included, must answer as the plain climb does.
  const auto climb = [](const Membership& m, HostId ancestor, HostId node) {
    for (HostId at = node; at != kInvalidHost; at = m.member(at).parent) {
      if (at == ancestor) return true;
    }
    return false;
  };
  util::Rng rng(17);
  std::size_t childless_true = 0, childless_false = 0, interior_pairs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    Membership m(n);
    std::vector<HostId> placed;
    for (HostId h = 0; h < n; ++h) {
      if (rng.chance(0.1)) continue;  // stays dead
      m.activate(h, static_cast<int>(n));
      if (!placed.empty() && rng.chance(0.9)) {
        m.attach(h, placed[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(placed.size()) - 1))],
                 1.0);
      }
      placed.push_back(h);
    }
    for (const HostId h : placed) {
      const MemberState& ms = m.member(h);
      if (!ms.alive) continue;
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.1 && ms.parent != kInvalidHost) {
        m.detach(h);
      } else if (u < 0.2) {
        m.deactivate(h);
      }
    }
    // Re-hang some fragment roots under members outside their subtree.
    for (const HostId h : placed) {
      if (!m.member(h).alive || m.member(h).parent != kInvalidHost) continue;
      const HostId p = placed[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(placed.size()) - 1))];
      if (rng.chance(0.5) && m.member(p).alive && !climb(m, h, p)) {
        m.attach(h, p, 1.0);
      }
    }
    m.validate();
    for (HostId a = 0; a < n; ++a) {
      for (HostId b = 0; b < n; ++b) {
        const bool want = climb(m, a, b);
        ASSERT_EQ(m.is_ancestor(a, b), want)
            << "trial " << trial << ": is_ancestor(" << a << ", " << b << ")";
        if (m.member(a).children.empty()) {
          ++(want ? childless_true : childless_false);
        } else {
          ++interior_pairs;
        }
      }
    }
  }
  EXPECT_GT(childless_true, 0u);  // a == n
  EXPECT_GT(childless_false, 0u);
  EXPECT_GT(interior_pairs, 0u);
}

TEST(Membership, AliveMembersLists) {
  Membership m(5);
  m.activate(1, 2);
  m.activate(3, 2);
  EXPECT_EQ(m.alive_members(), (std::vector<HostId>{1, 3}));
  m.deactivate(1);
  EXPECT_EQ(m.alive_members(), (std::vector<HostId>{3}));
}

TEST(Membership, StoredDistanceRequiresEdge) {
  Membership m(3);
  m.activate(0, 2);
  m.activate(1, 2);
  EXPECT_THROW(m.stored_child_distance(0, 1), util::InvariantError);
}

TEST(Membership, ValidatePassesOnConsistentTree) {
  Membership m(6);
  for (HostId h = 0; h < 6; ++h) m.activate(h, 3);
  m.attach(1, 0, 1.0);
  m.attach(2, 0, 1.0);
  m.attach(3, 1, 1.0);
  m.attach(4, 1, 1.0);
  m.attach(5, 2, 1.0);
  EXPECT_NO_THROW(m.validate());
}

TEST(Membership, SubtreeOfLeafIsItself) {
  Membership m(2);
  m.activate(0, 1);
  EXPECT_EQ(m.subtree(0), std::vector<HostId>{0});
}

}  // namespace
}  // namespace vdm::overlay
