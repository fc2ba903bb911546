#include "core/vdm_protocol.hpp"

#include <algorithm>
#include <limits>

#include "core/directionality.hpp"
#include "overlay/session.hpp"
#include "overlay/walk.hpp"

namespace vdm::core {

using overlay::OpStats;
using overlay::Session;
using overlay::TreeWalk;
using overlay::WalkAdoption;
using overlay::WalkDecision;

namespace {

/// VDM's step policy (§3.2/§3.3): probe the node and its children, classify
/// every (node, child, newcomer) triple with the directionality rule, then
/// Case III descend > Case II splice > Case I attach > saturated fallback.
struct VdmJoinPolicy {
  const VdmConfig& config;
  /// Slots the joiner can offer adopted children (fixed at walk start).
  int free_slots = 0;
  /// Case II outcome: the decided adoptions, viewing walk scratch.
  std::span<const WalkAdoption> adoptions;

  void on_start(TreeWalk&, OpStats&) {}

  TreeWalk::Action step(TreeWalk& w, OpStats& stats) {
    overlay::Membership& tree = w.session().tree();
    const net::HostId n = w.joiner();
    // "N pings S and all children of S" — concurrent probes.
    const double d_ncur = w.probe_cur_and_kids(stats);
    const std::span<const net::HostId> kids = w.kids();
    const std::span<const double> dist = w.kid_dists();

    // Classify every (cur, child, newcomer) triple.
    net::HostId best3 = net::kInvalidHost;
    double best3_dist = std::numeric_limits<double>::infinity();
    std::vector<WalkAdoption>& case2 = w.adoptions_scratch();
    case2.clear();
    // kids() is cur()'s child list in order minus the joiner, so each kid's
    // stored distance is the next child_dists entry past the joiner's.
    const overlay::MemberState& cm = tree.member(w.cur());
    std::size_t edge = 0;
    for (std::size_t i = 0; i < kids.size(); ++i, ++edge) {
      if (cm.children[edge] == n) ++edge;
      const double d_nc = dist[i];
      const double d_pc = cm.child_dists[edge];
      DirCase dir = classify_direction(d_ncur, d_nc, d_pc, config.epsilon_rel);
      if (dir == DirCase::kCaseII && config.case2_descend_ratio > 1.0 &&
          d_ncur > config.case2_descend_ratio * d_nc) {
        // Degenerate Case II: the newcomer is essentially at the child, not
        // between the endpoints — follow the child's direction instead.
        dir = DirCase::kCaseIII;
      }
      switch (dir) {
        case DirCase::kCaseIII:
          // Only descend into a subtree that still has an attachment point
          // for us; otherwise the search dead-ends at saturated leaves.
          if (d_nc < best3_dist && tree.subtree_has_capacity(kids[i], n)) {
            best3_dist = d_nc;
            best3 = kids[i];
          }
          break;
        case DirCase::kCaseII:
          case2.push_back({kids[i], d_nc});
          break;
        case DirCase::kCaseI:
          break;
      }
    }

    // Case III dominates Case II: continue the search from the closest
    // directional child (§3.2, Scenario III).
    if (best3 != net::kInvalidHost) {
      return TreeWalk::Action::descend(WalkDecision::kDirectionalDescend, best3,
                                       best3_dist);
    }

    // Case II: splice in, adopting the closest Case II children the
    // joiner's remaining degree allows ("we make connections as long as
    // the new node allows"). Requires at least one free slot, otherwise
    // the joiner cannot take over any child and Case II degenerates.
    if (!case2.empty() && free_slots > 0) {
      std::sort(case2.begin(), case2.end(),
                [](const auto& a, const auto& b) { return a.dist < b.dist; });
      if (case2.size() > static_cast<std::size_t>(free_slots)) {
        case2.resize(static_cast<std::size_t>(free_slots));
      }
      adoptions = std::span<const WalkAdoption>(case2);
      return TreeWalk::Action::stop(WalkDecision::kSplice, w.cur(), d_ncur);
    }

    // Case I everywhere: attach to the current node if it can take us
    // (during refinement the node's current parent counts as having room).
    if (w.can_accept(w.cur())) {
      return TreeWalk::Action::stop(WalkDecision::kAttach, w.cur(), d_ncur);
    }

    // Otherwise the closest child with a free slot (§3.2: "it connects to
    // the closest free child"), and if every child is saturated too, keep
    // descending through the closest subtree that still has capacity.
    return w.saturated_fallback(dist);
  }
};

/// VDM's PipelineSupport: VdmJoinPolicy in a slot, plus the splice-aware
/// commit that every VDM join, reconnection and refinement switch ends in.
struct VdmPipeline final
    : overlay::PolicyPipeline<VdmPipeline, VdmJoinPolicy> {
  const VdmConfig& config;

  explicit VdmPipeline(const VdmConfig& cfg) : config(cfg) {}

  VdmJoinPolicy make_policy(TreeWalk& walk) const {
    const overlay::MemberState& nm =
        walk.session().tree().member(walk.joiner());
    // The joiner's limit minus its existing children minus the parent link
    // the attach itself will occupy (a joiner is never the source, so it
    // always ends up with an uplink).
    const int free_slots =
        nm.degree_limit - static_cast<int>(nm.children.size()) - 1;
    return VdmJoinPolicy{config, free_slots, {}};
  }

  std::span<const WalkAdoption> adoptions(
      const overlay::PolicySlot& slot) const override {
    return policy_of(slot).adoptions;
  }

  bool commit(Session& s, net::HostId joiner, net::HostId parent,
              double parent_dist, bool /*parent_has_dist*/,
              std::span<const WalkAdoption> adoptions,
              OpStats& stats) override {
    overlay::Membership& tree = s.tree();
    // Re-validate the adoptions against the current tree: in a drain, other
    // commits between this walker's stop and its commit turn may have
    // re-parented (or spliced away) a candidate; after a sequential walk all
    // survive. Stale entries are simply dropped — two splicers at the same
    // parent with disjoint surviving adoptions both succeed, since each
    // splice funds its own slot by detaching a child. `adoptions` is a
    // stable copy, never a view of this buffer.
    std::vector<WalkAdoption>& live = s.walk_scratch().adoptions;
    live.clear();
    for (const WalkAdoption& a : adoptions) {
      const overlay::MemberState& cm = tree.member(a.child);
      if (cm.alive && cm.parent == parent) live.push_back(a);
    }
    const bool has_room = tree.member(parent).has_free_degree() ||
                          tree.member(joiner).parent == parent;
    if (live.empty() && !has_room) {
      return false;  // every adoption went stale and no slot is left — retry
    }
    // Connection request/response with the chosen parent.
    s.charge_exchange(joiner, parent, stats);
    // Case II: free the adopted children's slots first so the joiner can
    // take one of them even at a saturated parent ("If CaseII, this is not
    // an obligation" — §5.2.2 connection_request).
    for (const WalkAdoption& a : live) tree.detach(a.child);
    tree.attach(joiner, parent, parent_dist);
    for (const WalkAdoption& a : live) {
      tree.attach(a.child, joiner, a.dist);
      // parent_change to the adopted child, grand_parent_change to each of
      // its children (§5.2.2 control messages).
      s.charge_notification(1, stats);
      s.charge_notification(
          static_cast<int>(tree.member(a.child).children.size()), stats);
    }
    stats.parent_changed = true;
    return true;
  }
};

}  // namespace

VdmProtocol::VdmProtocol(const VdmConfig& config)
    : config_(config),
      pipeline_(std::make_unique<VdmPipeline>(config_)) {}

OpStats VdmProtocol::execute_refine(Session& session, net::HostId node) {
  OpStats stats;
  if (node == session.source()) return stats;
  overlay::Membership& tree = session.tree();
  const overlay::MemberState& m = tree.member(node);
  if (!m.alive || m.parent == net::kInvalidHost) return stats;

  // Re-run the join search from the source; switch only if it lands on a
  // different parent (§3.4).
  overlay::PolicySlot slot;
  TreeWalk walk(session, walk_observer());
  const TreeWalk::Action stop =
      walk.run(*pipeline_, slot, node, session.source(), stats);
  if (stop.node == m.parent) {
    // No switch — but the search just re-measured d(N,P); keep the parent's
    // stored distance fresh so later directionality classifications at P
    // use current numbers instead of the join-time measurement.
    tree.update_child_distance(m.parent, node, stop.dist);
    return stats;
  }

  tree.detach(node);
  walk.commit(*pipeline_, slot, stop, stats);
  return stats;
}

}  // namespace vdm::core
