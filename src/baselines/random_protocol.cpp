#include "baselines/random_protocol.hpp"

#include <memory>

#include "overlay/session.hpp"
#include "overlay/walk.hpp"

namespace vdm::baselines {

using overlay::OpStats;
using overlay::TreeWalk;
using overlay::WalkDecision;

namespace {

/// Random walk: at each node, either stop here (if it has room) with
/// probability 1/2, or step to a random child whose subtree still has
/// capacity. Terminates because the walk never leaves a capacity-bearing
/// subtree.
struct RandomJoinPolicy {
  void on_start(TreeWalk&, OpStats&) {}

  TreeWalk::Action step(TreeWalk& w, OpStats&) {
    w.filter_kids_subtree_capacity();
    const std::span<const net::HostId> steppable = w.kids();
    util::Rng& rng = w.session().rng();
    const bool has_room = w.can_accept(w.cur());
    // Draw order matters: an empty steppable set or a full node must skip
    // the coin flip entirely (short-circuit), as the original loop did.
    if (steppable.empty() || (has_room && rng.chance(0.5))) {
      if (has_room) {
        return TreeWalk::Action::stop(WalkDecision::kAttach, w.cur());
      }
      // No room here and nowhere to step (reached only when steppable is
      // empty, so no draw happened): a sequential walk has violated its
      // capacity invariant; a pipeline walk parks and retries.
      return w.no_capacity();
    }
    const net::HostId next = steppable[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(steppable.size()) - 1))];
    return TreeWalk::Action::descend(WalkDecision::kRandomStep, next);
  }
};

/// Random's PipelineSupport: the stateless policy, plus the default commit.
struct RandomPipeline final
    : overlay::PolicyPipeline<RandomPipeline, RandomJoinPolicy> {
  RandomJoinPolicy make_policy(TreeWalk&) const { return {}; }
};

}  // namespace

RandomProtocol::RandomProtocol() : pipeline_(std::make_unique<RandomPipeline>()) {}

}  // namespace vdm::baselines
