#include "baselines/hmtp_protocol.hpp"

#include <cstdint>
#include <memory>

#include "overlay/session.hpp"
#include "util/require.hpp"

namespace vdm::baselines {

using overlay::OpStats;
using overlay::Session;
using overlay::TreeWalk;
using overlay::WalkDecision;

namespace {

/// HMTP's step policy (§2.4.7/§3.5): greedily descend to the closest child
/// while it beats the current node, with the U-turn attach rule; stop at
/// the current node otherwise, falling back down the saturation ladder when
/// it is full. Carries d(N, cur) across descents so each node is probed
/// exactly once.
struct HmtpSearchPolicy {
  const HmtpConfig& config;
  double d_cur = 0.0;

  void on_start(TreeWalk& w, OpStats& stats) {
    d_cur = w.session().measure(w.joiner(), w.cur(), stats);
  }

  TreeWalk::Action step(TreeWalk& w, OpStats& stats) {
    overlay::Membership& tree = w.session().tree();
    const net::HostId n = w.joiner();
    const std::span<const net::HostId> kids = w.kids();
    if (kids.empty()) {
      // A childless stop is always accepted sequentially (the walk only
      // enters capacity-bearing subtrees); under the pipeline the leaf's
      // last slot may be reserved by another walker, which is a dead end.
      if (w.can_accept(w.cur())) {
        return TreeWalk::Action::stop(WalkDecision::kAttach, w.cur(), d_cur);
      }
      return w.no_capacity();
    }
    const std::span<const double> dist = w.probe_kids(stats);

    std::size_t closest = 0;
    for (std::size_t i = 1; i < kids.size(); ++i) {
      if (dist[i] < dist[closest]) closest = i;
    }
    if (dist[closest] < d_cur && tree.subtree_has_capacity(kids[closest], n)) {
      // A child is closer than the current node. U-turn check first: if the
      // newcomer lies between the current node and that child (it is closer
      // to the current node than the child is), descending would hang N
      // below C while the data doubles back — attach to the current node
      // and let refinement re-hang C later (§3.5 Scenario I/II).
      if (d_cur < tree.stored_child_distance(w.cur(), kids[closest])) {
        if (w.can_accept(w.cur())) {
          return TreeWalk::Action::stop(WalkDecision::kUturnAttach, w.cur(),
                                        d_cur);
        }
        // Saturated: the paper's degree-limitation caveat — fall through to
        // the normal descent.
      }
      d_cur = dist[closest];
      return TreeWalk::Action::descend(WalkDecision::kGreedyDescend,
                                       kids[closest], d_cur);
    }
    // The current node is the closest member found: attach here if it has
    // room (a node re-choosing its own parent always "has room" there)...
    if (w.can_accept(w.cur())) {
      return TreeWalk::Action::stop(WalkDecision::kAttach, w.cur(), d_cur);
    }
    // ... otherwise the saturation ladder: the closest child that can still
    // accept a connection (§2.4.7's "looks for next available child"), else
    // keep descending through the closest capacity-bearing subtree.
    const TreeWalk::Action fallback = w.saturated_fallback(dist);
    if (fallback.kind == TreeWalk::Action::Kind::kDescend) {
      d_cur = fallback.dist;
    }
    return fallback;
  }
};

/// HMTP's PipelineSupport: the search policy in a slot, plus the default
/// measure-exchange-attach commit. The foster-child quick start stays
/// sequential-only — its immediate attach is precisely what a batched
/// pipeline cannot do before the drain resolves slot contention.
struct HmtpPipeline final
    : overlay::PolicyPipeline<HmtpPipeline, HmtpSearchPolicy> {
  const HmtpConfig& config;

  explicit HmtpPipeline(const HmtpConfig& cfg) : config(cfg) {}

  HmtpSearchPolicy make_policy(TreeWalk&) const {
    return HmtpSearchPolicy{config};
  }
};

}  // namespace

HmtpProtocol::HmtpProtocol(const HmtpConfig& config)
    : config_(config), pipeline_(std::make_unique<HmtpPipeline>(config_)) {}

TreeWalk::Action HmtpProtocol::search(Session& s, net::HostId n,
                                      net::HostId start,
                                      OpStats& stats) const {
  overlay::PolicySlot slot;
  TreeWalk walk(s, walk_observer());
  return walk.run(*pipeline_, slot, n, start, stats);
}

OpStats HmtpProtocol::execute_join(Session& session, net::HostId joiner,
                                   net::HostId start) {
  overlay::Membership& tree = session.tree();
  net::HostId anchor = start;
  if (!session.eligible_parent(joiner, anchor)) anchor = session.source();
  if (!config_.foster_child || !tree.member(anchor).has_free_degree()) {
    return Protocol::execute_join(session, joiner, start);
  }

  // Foster-child quick start: hook onto the contacted node right away so
  // the stream begins after a single handshake; the proper parent search
  // runs while already receiving, so only its messages (not its latency)
  // burden the user-visible startup time.
  OpStats stats;
  const double anchor_dist = session.measure(joiner, anchor, stats);
  session.charge_exchange(joiner, anchor, stats);
  tree.attach(joiner, anchor, anchor_dist);
  stats.parent_changed = true;

  OpStats search_stats;
  const TreeWalk::Action found = search(session, joiner, anchor, search_stats);
  stats.messages += search_stats.messages;
  stats.iterations += search_stats.iterations;
  if (found.node != anchor) {
    OpStats move_stats;
    session.charge_exchange(joiner, found.node, move_stats);
    stats.messages += move_stats.messages;
    tree.move_child(joiner, found.node, found.dist);
  }
  return stats;
}

OpStats HmtpProtocol::execute_refine(Session& session, net::HostId node) {
  OpStats stats;
  if (node == session.source()) return stats;
  overlay::Membership& tree = session.tree();
  const overlay::MemberState& m = tree.member(node);
  if (!m.alive || m.parent == net::kInvalidHost) return stats;

  // HMTP refinement: restart the join search at a random node of the root
  // path (§2.4.7: "Each node randomly selects a peer in its root path and
  // looks for if any closer peer than its parent connected in meantime").
  // The draw indexes the path from the parent up; climbing to the drawn
  // ancestor keeps refinement allocation-free.
  const std::size_t depth = tree.depth(node);
  VDM_REQUIRE(depth > 0);
  net::HostId start = m.parent;
  for (std::int64_t up = session.rng().uniform_int(
           0, static_cast<std::int64_t>(depth) - 1);
       up > 0; --up) {
    start = tree.member(start).parent;
  }

  const TreeWalk::Action found = search(session, node, start, stats);
  if (found.node == m.parent) return stats;
  // A root path cut short by an undetected crash ends at the crash orphan,
  // which reports the slot its own uplink will retake as free: hanging a
  // member there would exceed its degree limit once it rejoins.
  if (!tree.attached(found.node, session.source())) return stats;
  const double current = tree.stored_child_distance(m.parent, node);
  if (found.dist >= current * (1.0 - config_.switch_margin)) return stats;

  session.charge_exchange(node, found.node, stats);
  tree.detach(node);
  tree.attach(node, found.node, found.dist);
  // The old parent learns of the departure; children's grandparent changes.
  session.charge_notification(
      1 + static_cast<int>(tree.member(node).children.size()), stats);
  stats.parent_changed = true;
  return stats;
}

}  // namespace vdm::baselines
