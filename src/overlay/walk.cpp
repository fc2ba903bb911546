#include "overlay/walk.hpp"

#include <limits>

#include "overlay/session.hpp"
#include "util/require.hpp"

namespace vdm::overlay {

std::string_view walk_decision_name(WalkDecision decision) {
  switch (decision) {
    case WalkDecision::kAttach: return "attach";
    case WalkDecision::kSplice: return "splice";
    case WalkDecision::kDirectionalDescend: return "case3-descend";
    case WalkDecision::kGreedyDescend: return "greedy-descend";
    case WalkDecision::kUturnAttach: return "uturn-attach";
    case WalkDecision::kClosestFreeChild: return "closest-free-child";
    case WalkDecision::kCapacityDescend: return "capacity-descend";
    case WalkDecision::kRandomStep: return "random-step";
    case WalkDecision::kAbort: return "abort";
  }
  return "?";
}

TreeWalk::TreeWalk(Session& session, WalkObserver* observer)
    : session_(session),
      scratch_(session.walk_scratch()),
      observer_(observer) {}

net::HostId TreeWalk::normalize_start(net::HostId joiner,
                                      net::HostId start) const {
  net::HostId cur = start;
  const Membership& tree = session_.tree();
  if (!session_.eligible_parent(joiner, cur) ||
      !tree.subtree_has_capacity(cur, joiner)) {
    cur = session_.source();
  }
  VDM_REQUIRE(session_.eligible_parent(joiner, cur));
  return cur;
}

void TreeWalk::resume(net::HostId joiner, net::HostId cur, int step_index) {
  joiner_ = joiner;
  cur_ = cur;
  step_index_ = step_index;
}

TreeWalk::Action TreeWalk::step_once(PipelineSupport& support, PolicySlot& slot,
                                     OpStats& stats) {
  next_step(stats);
  const Action action = support.step(*this, slot, stats);
  report(action);
  if (action.kind == Action::Kind::kDescend) cur_ = action.node;
  return action;
}

TreeWalk::Action TreeWalk::run(PipelineSupport& support, PolicySlot& slot,
                               net::HostId joiner, net::HostId start,
                               OpStats& stats) {
  resume(joiner, normalize_start(joiner, start), 0);
  support.start(*this, slot, stats);
  for (;;) {
    const Action action = step_once(support, slot, stats);
    if (action.kind != Action::Kind::kDescend) return action;
  }
}

void TreeWalk::commit(PipelineSupport& support, const PolicySlot& slot,
                      const Action& stop, OpStats& stats) {
  // The pool is only in use inside a drain, which runs no sequential walk;
  // once warm it takes the copy without allocating.
  std::vector<WalkAdoption>& pool = scratch_.adoption_pool;
  const std::span<const WalkAdoption> adoptions = support.adoptions(slot);
  pool.assign(adoptions.begin(), adoptions.end());
  const bool attached = support.commit(session_, joiner_, stop.node, stop.dist,
                                       stop.has_dist, pool, stats);
  pool.clear();
  VDM_REQUIRE_MSG(attached, "a sequential walk's commit was refused");
}

TreeWalk::Action TreeWalk::no_capacity() const {
  if (allow_abort_) return Action::aborted();
  VDM_REQUIRE_MSG(false, "walk entered a subtree without capacity");
  return Action::aborted();  // unreachable
}

void TreeWalk::next_step(OpStats& stats) {
  ++stats.iterations;
  ++step_index_;
  step_probes_ = 0;
  // Information request/response with the current node: children list and
  // the node's stored distances to them (§3.2 control messages).
  session_.charge_exchange(joiner_, cur_, stats);
  // cur() is eligible (normalize_start checks the start, and a walk only
  // descends into kids()), so each of its children is alive and lies outside
  // the joiner's subtree unless it is the joiner. That holds for the whole
  // walk: a sequential walk sees no tree change, and a drain's joiners stay
  // detached and childless until their own commit (DESIGN.md §8).
  scratch_.kids.clear();
  for (const net::HostId c : session_.tree().member(cur_).children) {
    if (c != joiner_) scratch_.kids.push_back(c);
  }
}

void TreeWalk::report(const Action& action) {
  if (observer_ == nullptr) return;
  observer_->on_step(WalkStep{joiner_, cur_, step_index_, step_probes_,
                              action.decision, action.node});
}

std::span<const double> TreeWalk::kid_dists() const {
  return std::span<const double>(scratch_.dist)
      .subspan(kid_dist_offset_, scratch_.kids.size());
}

double TreeWalk::probe_cur_and_kids(OpStats& stats) {
  scratch_.targets.clear();
  scratch_.targets.reserve(scratch_.kids.size() + 1);
  scratch_.targets.push_back(cur_);
  scratch_.targets.insert(scratch_.targets.end(), scratch_.kids.begin(),
                          scratch_.kids.end());
  session_.measure_parallel(joiner_, scratch_.targets, scratch_.dist, stats);
  kid_dist_offset_ = 1;
  step_probes_ += static_cast<int>(scratch_.targets.size());
  return scratch_.dist[0];
}

std::span<const double> TreeWalk::probe_kids(OpStats& stats) {
  session_.measure_parallel(joiner_, scratch_.kids, scratch_.dist, stats);
  kid_dist_offset_ = 0;
  step_probes_ += static_cast<int>(scratch_.kids.size());
  return scratch_.dist;
}

bool TreeWalk::can_accept(net::HostId candidate) const {
  const Membership& tree = session_.tree();
  if (reserved_ != nullptr) {
    // Pipeline path: slots reserved by stopped-but-uncommitted walkers are
    // already spoken for. Every reservation converts into a link (or is
    // released) before the reserving walker's next turn, so links +
    // reservations never over-counts a slot twice.
    const MemberState& m = tree.member(candidate);
    if (m.overlay_links() + (*reserved_)[candidate] < m.degree_limit) {
      return true;
    }
    return tree.member(joiner_).parent == candidate;
  }
  return tree.member(candidate).has_free_degree() ||
         tree.member(joiner_).parent == candidate;
}

void TreeWalk::filter_kids_subtree_capacity() {
  const Membership& tree = session_.tree();
  std::vector<net::HostId>& kids = scratch_.kids;
  std::size_t w = 0;
  for (const net::HostId c : kids) {
    if (tree.subtree_has_capacity(c, joiner_)) kids[w++] = c;
  }
  kids.resize(w);
}

TreeWalk::Action TreeWalk::saturated_fallback(std::span<const double> kid_dist) {
  const std::span<const net::HostId> kids{scratch_.kids};
  net::HostId best_free = net::kInvalidHost;
  double best_free_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < kids.size(); ++i) {
    if (can_accept(kids[i]) && kid_dist[i] < best_free_d) {
      best_free_d = kid_dist[i];
      best_free = kids[i];
    }
  }
  if (best_free != net::kInvalidHost) {
    return Action::stop(WalkDecision::kClosestFreeChild, best_free, best_free_d);
  }
  return descend_closest_capacity(kid_dist);
}

TreeWalk::Action TreeWalk::descend_closest_capacity(
    std::span<const double> kid_dist) {
  const Membership& tree = session_.tree();
  const std::span<const net::HostId> kids{scratch_.kids};
  net::HostId best_any = net::kInvalidHost;
  double best_any_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < kids.size(); ++i) {
    if (kid_dist[i] < best_any_d && tree.subtree_has_capacity(kids[i], joiner_)) {
      best_any_d = kid_dist[i];
      best_any = kids[i];
    }
  }
  if (best_any == net::kInvalidHost) return no_capacity();
  return Action::descend(WalkDecision::kCapacityDescend, best_any, best_any_d);
}

std::span<const WalkAdoption> PipelineSupport::adoptions(
    const PolicySlot&) const {
  return {};
}

bool PipelineSupport::commit(Session& session, net::HostId joiner,
                             net::HostId parent, double parent_dist,
                             bool parent_has_dist,
                             std::span<const WalkAdoption> /*adoptions*/,
                             OpStats& stats) {
  Membership& tree = session.tree();
  if (!tree.member(parent).has_free_degree() &&
      tree.member(joiner).parent != parent) {
    return false;  // reservation race lost after all — retry
  }
  // BTP/Random stop without probing and measure the parent here; then
  // everyone pays the connection handshake and attaches.
  double d = parent_dist;
  if (!parent_has_dist) d = session.measure(joiner, parent, stats);
  session.charge_exchange(joiner, parent, stats);
  tree.attach(joiner, parent, d);
  stats.parent_changed = true;
  return true;
}

}  // namespace vdm::overlay
