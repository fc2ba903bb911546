#include "baselines/btp_protocol.hpp"

#include <limits>
#include <memory>
#include <vector>

#include "overlay/session.hpp"
#include "overlay/walk.hpp"
#include "util/require.hpp"

namespace vdm::baselines {

using overlay::OpStats;
using overlay::Session;
using overlay::TreeWalk;
using overlay::WalkDecision;

namespace {

/// BTP's step policy: connect straight to the contacted node; when it is
/// saturated, walk down through its closest capacity-bearing child until a
/// slot is found (the original protocol simply rejects, but a streaming
/// session must place every viewer somewhere). Unlike VDM/HMTP, BTP never
/// stops at a free child from a saturated node — the next iteration
/// re-checks room at the node it descended to.
struct BtpJoinPolicy {
  void on_start(TreeWalk&, OpStats&) {}

  TreeWalk::Action step(TreeWalk& w, OpStats& stats) {
    if (w.can_accept(w.cur())) {
      return TreeWalk::Action::stop(WalkDecision::kAttach, w.cur());
    }
    if (w.kids().empty()) return w.no_capacity();
    // Probe every child (the message cost BTP pays) but only step into a
    // subtree that still has an attachment point.
    const std::span<const double> dist = w.probe_kids(stats);
    return w.descend_closest_capacity(dist);
  }
};

/// BTP's PipelineSupport: the stateless policy, plus the default commit
/// (measure the parent after the walk, exchange, attach).
struct BtpPipeline final : overlay::PolicyPipeline<BtpPipeline, BtpJoinPolicy> {
  BtpJoinPolicy make_policy(TreeWalk&) const { return {}; }
};

}  // namespace

BtpProtocol::BtpProtocol(const BtpConfig& config)
    : config_(config), pipeline_(std::make_unique<BtpPipeline>()) {}

OpStats BtpProtocol::execute_refine(Session& s, net::HostId n) {
  OpStats stats;
  if (n == s.source()) return stats;
  overlay::Membership& tree = s.tree();
  const overlay::MemberState& m = tree.member(n);
  if (!m.alive || m.parent == net::kInvalidHost) return stats;

  // Sibling switch (Figure 2.7): ask the parent for the sibling list,
  // probe them, and move under the closest sibling if it beats the current
  // parent by the margin and still has capacity. Runs on the walk scratch —
  // refinement fires every period for every member, so it must not allocate.
  // Every sibling is an eligible parent: alive, and outside n's subtree,
  // since its parent is n's own parent.
  const net::HostId parent = m.parent;
  s.charge_exchange(n, parent, stats);
  overlay::WalkScratch& scratch = s.walk_scratch();
  std::vector<net::HostId>& siblings = scratch.kids;
  siblings.clear();
  for (const net::HostId c : tree.member(parent).children) {
    if (c != n) siblings.push_back(c);
  }
  if (siblings.empty()) return stats;
  const std::span<const double> dist =
      s.measure_parallel(n, siblings, scratch.dist, stats);

  const double current = tree.stored_child_distance(parent, n);
  net::HostId best = net::kInvalidHost;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    if (!tree.member(siblings[i]).has_free_degree()) continue;
    if (dist[i] < best_d) {
      best_d = dist[i];
      best = siblings[i];
    }
  }
  if (best == net::kInvalidHost) return stats;
  if (best_d >= current * (1.0 - config_.switch_margin)) return stats;

  s.charge_exchange(n, best, stats);
  tree.detach(n);
  tree.attach(n, best, best_d);
  s.charge_notification(1 + static_cast<int>(tree.member(n).children.size()), stats);
  stats.parent_changed = true;
  return stats;
}

}  // namespace vdm::baselines
