#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "net/types.hpp"
#include "overlay/protocol.hpp"
#include "sim/reactor.hpp"

namespace vdm::overlay {

class Session;
class PipelineSupport;

/// One Case-II adoption decided during a walk: the joiner takes `child`'s
/// slot under the current node and re-parents `child` (measured
/// joiner->child virtual distance rides along). Lives in WalkScratch so a
/// walk's stop never allocates.
struct WalkAdoption {
  net::HostId child;
  double dist;
};

/// Fixed-size storage for one walk's protocol step-policy state
/// (PipelineSupport::start's placement-new target). Policies are small
/// trivially destructible structs (references + a few scalars); 64 bytes
/// holds the largest (VDM's) with room to spare. A sequential walk keeps its
/// slot on the stack, and the concurrent drain keeps one inline per walker,
/// so neither a single walk nor a batch of thousands allocates per walker.
struct PolicySlot {
  alignas(16) std::byte bytes[64];
};

/// One arrival queued for the next concurrent-join drain.
struct PendingJoin {
  net::HostId host = net::kInvalidHost;
  int degree_limit = 0;
};

/// Lifecycle of one concurrent-join walker inside a drain.
enum class JoinPhase : std::uint8_t {
  kStart,   ///< locate an entry node and initialize the step policy
  kWalk,    ///< one walk iteration per turn
  kCommit,  ///< reservation held; validate and attach next turn
};

/// Per-walker state of the concurrent join pipeline. Everything a suspended
/// walk needs to resume lives here (position, policy slot, accumulated
/// stats, the decided stop), flat and reusable across drains.
struct JoinWalker {
  net::HostId host = net::kInvalidHost;
  int degree_limit = 0;
  net::HostId cur = net::kInvalidHost;
  int step_index = 0;
  JoinPhase phase = JoinPhase::kStart;
  OpStats stats;
  /// Stop result (valid in kCommit): chosen parent and its measured
  /// distance when the stopping policy had probed it.
  net::HostId parent = net::kInvalidHost;
  double parent_dist = 0.0;
  bool parent_has_dist = false;
  /// This walker's slice of WalkScratch::adoption_pool (VDM Case II
  /// adoptions copied out of the shared scratch at stop time, before the
  /// next walker's turn clobbers it).
  std::uint32_t adoptions_off = 0;
  std::uint32_t adoptions_len = 0;
  PolicySlot slot;
};

/// Reusable buffers of the tree-walk engine. One instance lives in each
/// Session's Scratch (all walks of a run share it — walks never nest), which
/// the experiment runner shuttles through the per-worker RunScratch arenas
/// so steady-state sweeps re-run entire experiments without the walk path
/// allocating at all.
struct WalkScratch {
  /// Eligibility-filtered children of the current node.
  std::vector<net::HostId> kids;
  /// Probe target list when the current node is probed alongside its kids.
  std::vector<net::HostId> targets;
  /// measure_parallel output (span-out overload writes here).
  std::vector<double> dist;
  /// Case-II adoption candidates / decided adoptions (VDM); a splice's
  /// commit refills it with the adoptions that survive re-validation.
  std::vector<WalkAdoption> adoptions;

  // --- concurrent join pipeline pools (join_mode == kConcurrent) ----------
  /// Arrivals queued since the last drain (one drain event per timestamp
  /// services the whole batch, so the result is invariant to how callers
  /// group same-time join() calls).
  std::vector<PendingJoin> pending_joins;
  /// Walker table of the current drain, indexed by the queues below.
  std::vector<JoinWalker> walkers;
  /// Round-robin turn queue (FIFO via head cursor; indices into walkers).
  std::vector<std::uint32_t> queue;
  /// Walkers parked after a capacity abort, woken FIFO as commits free or
  /// create slots.
  std::vector<std::uint32_t> parked;
  /// Per-host count of slots reserved by stopped-but-uncommitted walkers.
  std::vector<int> reserved;
  /// Stable copies of decided adoptions, handed to commit() so it never
  /// reads the buffer it refills: each drain walker's slice (see
  /// JoinWalker), or a sequential walk's stop (TreeWalk::commit).
  std::vector<WalkAdoption> adoption_pool;

  /// Per-member refinement-timer slab, indexed by host id: the id of the
  /// member's pending refine tick (sim::kInvalidEvent when disarmed). Rides
  /// this scratch so the table's capacity survives between runs with the
  /// rest of the per-member state — arming and disarming refinement timers
  /// allocates nothing in steady state. Session::start() clears it, since
  /// ids from a previous run are meaningless after the simulator resets.
  std::vector<sim::EventId> refine_events;

  /// Heap bytes currently reserved — folded into RunScratch::capacity_bytes
  /// so the arena grow gate (arena_grow_per_iter == 0) covers the walk path.
  std::size_t capacity_bytes() const {
    return (kids.capacity() + targets.capacity()) * sizeof(net::HostId) +
           dist.capacity() * sizeof(double) +
           (adoptions.capacity() + adoption_pool.capacity()) *
               sizeof(WalkAdoption) +
           pending_joins.capacity() * sizeof(PendingJoin) +
           walkers.capacity() * sizeof(JoinWalker) +
           (queue.capacity() + parked.capacity()) * sizeof(std::uint32_t) +
           reserved.capacity() * sizeof(int) +
           refine_events.capacity() * sizeof(sim::EventId);
  }
};

/// How one walk iteration resolved — the tracing vocabulary shared by all
/// protocols (each uses the subset its step policy can produce).
enum class WalkDecision {
  kAttach,             ///< stop: attach to the current node
  kSplice,             ///< stop: VDM Case II — take a child slot, adopt kids
  kDirectionalDescend, ///< VDM Case III: continue towards the closest
                       ///< directional child
  kGreedyDescend,      ///< HMTP: a child is closer than the current node
  kUturnAttach,        ///< stop: HMTP U-turn rule kept us at the current node
  kClosestFreeChild,   ///< stop: saturated fallback to closest child with room
  kCapacityDescend,    ///< saturated fallback: descend into the closest
                       ///< subtree that still has an attachment point
  kRandomStep,         ///< Random: uniform step to a capacity-bearing child
  kAbort,              ///< pipeline only: walk dead-ended on reserved
                       ///< capacity; the walker parks and retries later
};

std::string_view walk_decision_name(WalkDecision decision);

/// One iteration of a walk as reported to a WalkObserver.
struct WalkStep {
  net::HostId joiner = net::kInvalidHost;
  net::HostId node = net::kInvalidHost;  ///< node queried this iteration
  int step = 0;                          ///< 1-based walk-local iteration
  int probes = 0;                        ///< distance measurements issued
  WalkDecision decision = WalkDecision::kAttach;
  net::HostId next = net::kInvalidHost;  ///< descend target / chosen parent
};

/// Tracing seam of the walk engine: installed per protocol
/// (Protocol::set_walk_observer), invoked once per walk iteration. Unset
/// (the default) costs one predictable null-check per iteration — the
/// engine does no formatting or allocation on behalf of an absent observer.
class WalkObserver {
 public:
  virtual ~WalkObserver() = default;
  virtual void on_step(const WalkStep& step) = 0;
};

/// The shared iterative-descent engine under all four protocols (VDM §3.3,
/// HMTP §2.4.7/§3.5, BTP's saturation walk, the Random baseline).
///
/// The engine owns everything the paper's join searches have in common:
/// start normalization (ineligible or capacity-free starts restart from the
/// source), the per-hop info exchange and eligibility-filtered child
/// enumeration, batched probing through Session::measure_parallel into
/// reusable scratch, the shared has-room predicate (a node re-choosing its
/// own parent always has room there), and the saturated-node fallback
/// ladder (closest free child, else descend through the closest
/// capacity-bearing subtree). The protocol supplies only a step policy,
/// hosted in a PolicySlot by its PipelineSupport:
///
///   struct Policy {
///     void on_start(TreeWalk&, OpStats&);          // before iteration 1
///     TreeWalk::Action step(TreeWalk&, OpStats&);  // decide one iteration
///   };
///
/// step() reads the engine's context (cur(), kids(), probe helpers) and
/// returns a stop or descend Action. run() steps one walk to its stop and
/// commit() attaches there: that is every sequential join, reconnection and
/// refinement. The concurrent drain interleaves the same step_once() turns
/// of many walks and commits each through the same PipelineSupport.
///
/// Determinism contract: the engine preserves the pre-refactor protocols'
/// exact measurement order, rng draw order and OpStats message/iteration
/// counts — run_once scalars are bit-identical to the hand-rolled loops it
/// replaced (pinned by the hexfloat goldens in tests/test_walk.cpp).
class TreeWalk {
 public:
  /// Binds the engine to the session's walk scratch. `observer` may be
  /// null (no tracing); it must outlive the walk.
  explicit TreeWalk(Session& session, WalkObserver* observer = nullptr);

  /// A policy's verdict for one iteration. A stop's `dist` is the measured
  /// joiner->parent virtual distance when the stopping policy had probed it
  /// (`has_dist`); BTP and Random stop without probing, and their commit
  /// measures.
  struct Action {
    enum class Kind { kDescend, kStop, kAbort };
    Kind kind = Kind::kStop;
    WalkDecision decision = WalkDecision::kAttach;
    net::HostId node = net::kInvalidHost;
    double dist = 0.0;
    bool has_dist = false;

    static Action descend(WalkDecision decision, net::HostId node) {
      return {Kind::kDescend, decision, node, 0.0, false};
    }
    static Action descend(WalkDecision decision, net::HostId node, double dist) {
      return {Kind::kDescend, decision, node, dist, true};
    }
    static Action stop(WalkDecision decision, net::HostId parent) {
      return {Kind::kStop, decision, parent, 0.0, false};
    }
    static Action stop(WalkDecision decision, net::HostId parent, double dist) {
      return {Kind::kStop, decision, parent, dist, true};
    }
    /// Pipeline dead-end: every reachable slot is reserved by another
    /// in-flight walker. Only produced when allow_abort() is on.
    static Action aborted() {
      return {Kind::kAbort, WalkDecision::kAbort, net::kInvalidHost, 0.0, false};
    }
  };

  /// Runs one walk for `joiner` to its stop: normalizes `start`, has
  /// `support` place its step policy in `slot`, and steps that policy until
  /// it no longer descends. Returns the stop Action.
  Action run(PipelineSupport& support, PolicySlot& slot, net::HostId joiner,
             net::HostId start, OpStats& stats);

  /// Attaches the joiner at `stop`, the result of run() on `slot`, through
  /// `support`'s commit. The stop's adoptions are copied into the scratch's
  /// adoption pool first, because a splice commit refills the buffer they
  /// view. No other walk runs between a sequential stop and its commit, so
  /// a refused commit is an invariant failure, not a retry.
  void commit(PipelineSupport& support, const PolicySlot& slot,
              const Action& stop, OpStats& stats);

  // --- context read by step policies ------------------------------------

  Session& session() { return session_; }
  net::HostId joiner() const { return joiner_; }
  net::HostId cur() const { return cur_; }

  /// Children of cur() that may serve as the joiner's parent (alive, not
  /// the joiner, not in its subtree), in child-list order.
  std::span<const net::HostId> kids() const { return scratch_.kids; }

  /// Kid distances of the most recent probe call, aligned with kids().
  std::span<const double> kid_dists() const;

  /// "N pings S and all children of S" (VDM §3.2): probes cur() and every
  /// kid concurrently; returns d(joiner, cur).
  double probe_cur_and_kids(OpStats& stats);

  /// Probes every kid concurrently (HMTP/BTP); returns the kid distances.
  std::span<const double> probe_kids(OpStats& stats);

  /// The shared has-room predicate: `candidate` can take the joiner's
  /// uplink — it has a free slot, or it already is the joiner's parent
  /// (re-choosing one's own parent must never look like a full node).
  bool can_accept(net::HostId candidate) const;

  /// Drops kids whose subtree (excluding the joiner's) has no attachment
  /// point left, in place (the Random walk's steppable filter).
  void filter_kids_subtree_capacity();

  /// The saturated-node fallback ladder: stop at the closest kid with room,
  /// else descend through the closest capacity-bearing subtree (which must
  /// exist — the walk never enters a capacity-free subtree).
  Action saturated_fallback(std::span<const double> kid_dist);

  /// The ladder's bottom rung alone (BTP descends without the free-child
  /// stop; its next iteration re-checks room at the new node).
  Action descend_closest_capacity(std::span<const double> kid_dist);

  /// Case-II candidate buffer (cleared by the caller; a sorted prefix of it
  /// backs the adoptions a splice stop carries).
  std::vector<WalkAdoption>& adoptions_scratch() { return scratch_.adoptions; }

  // --- stepping primitives (run() above, and the session's drain loop) ----

  /// Start normalization as a pure function: where a walk for `joiner`
  /// contacted at `start` actually begins (the source when `start` is
  /// ineligible or its subtree has no attachment point left, e.g. a
  /// saturated degree-1 leaf offered as a reconnection grandparent).
  net::HostId normalize_start(net::HostId joiner, net::HostId start) const;

  /// Binds the engine to `joiner` at `cur` after `step_index` iterations,
  /// without normalizing. run() starts each walk here; the drain calls it
  /// before every turn, since its walkers share one engine and one scratch
  /// (turns are serialized).
  void resume(net::HostId joiner, net::HostId cur, int step_index);

  /// One walk iteration: prologue (info exchange + child enumeration), one
  /// policy step through `support`, observer report, and the descend move.
  /// The drain persists cur()/step_index() back into its walker on kDescend
  /// and handles kStop/kAbort.
  Action step_once(PipelineSupport& support, PolicySlot& slot, OpStats& stats);

  int step_index() const { return step_index_; }

  /// Binds (or clears, with nullptr) the pipeline's per-host reservation
  /// counts: while bound, can_accept() treats reserved slots as occupied,
  /// so two in-flight walkers can never be granted the same slot. Unbound
  /// (the sequential path) is bit-identical to the pre-pipeline predicate.
  void bind_reservations(const std::vector<int>* reserved) {
    reserved_ = reserved;
  }

  /// While on, capacity dead-ends return Action::aborted() instead of
  /// failing the walk invariant — in a concurrent batch a subtree's last
  /// slots can legitimately be reserved out from under a walker mid-walk.
  void allow_abort(bool allow) { allow_abort_ = allow; }

  /// The dead-end verdict shared by the step policies: abort when allowed,
  /// otherwise the sequential invariant failure.
  Action no_capacity() const;

 private:
  /// One iteration prologue: charges the info exchange with cur() and
  /// enumerates eligible children into scratch.
  void next_step(OpStats& stats);

  void report(const Action& action);

  Session& session_;
  WalkScratch& scratch_;
  WalkObserver* observer_;
  net::HostId joiner_ = net::kInvalidHost;
  net::HostId cur_ = net::kInvalidHost;
  int step_index_ = 0;
  int step_probes_ = 0;
  const std::vector<int>* reserved_ = nullptr;
  bool allow_abort_ = false;
  /// Offset of kid distances inside scratch_.dist for the last probe call
  /// (1 when cur() was probed first, 0 otherwise).
  std::size_t kid_dist_offset_ = 0;
};

/// A protocol's step policy and its attach: the one way every walk runs.
/// start() placement-news the policy into a caller-owned PolicySlot and
/// step() advances it, so the policy's state is not tied to any one loop.
/// That lets TreeWalk::run step one walk to its stop (sequential joins,
/// reconnections, refinement) and lets the concurrent drain suspend
/// thousands of walks between turns, over the same policy.
///
/// commit() attaches the joiner at the stop. In the drain it runs one turn
/// after the stop decision, with the slot reserved in between: it
/// re-validates what other walkers may have invalidated (VDM adoptions
/// racing for the same child) and returns false when the attach can no
/// longer proceed — the walker releases its reservation and restarts
/// (optimistic retry). After a sequential walk nothing can intervene, so
/// it always succeeds (TreeWalk::commit).
class PipelineSupport {
 public:
  virtual ~PipelineSupport() = default;

  /// Placement-new the protocol's step policy into `slot` (called once per
  /// walk attempt, after the walker's position is normalized). May probe
  /// (HMTP measures d(N, cur) up front).
  virtual void start(TreeWalk& walk, PolicySlot& slot, OpStats& stats) = 0;

  /// One policy iteration over the slot's state (TreeWalk::step_once has
  /// already run the per-hop prologue).
  virtual TreeWalk::Action step(TreeWalk& walk, PolicySlot& slot,
                                OpStats& stats) = 0;

  /// The adoptions decided by the stop returned from step(), viewing the
  /// shared walk scratch — callers copy them out before the next turn or
  /// the commit. Default: protocols without splices adopt nothing.
  virtual std::span<const WalkAdoption> adoptions(const PolicySlot& slot) const;

  /// Validate + attach `joiner` under the stopped-at parent. `adoptions`
  /// must not view WalkScratch::adoptions, which a splice commit refills.
  /// The default covers HMTP/BTP/Random: measure the parent distance if the
  /// stop had not, charge the connection handshake, attach. VDM overrides
  /// to splice.
  virtual bool commit(Session& session, net::HostId joiner,
                      net::HostId parent, double parent_dist,
                      bool parent_has_dist,
                      std::span<const WalkAdoption> adoptions, OpStats& stats);
};

/// CRTP base implementing PipelineSupport's start()/step() for a protocol
/// whose step policy is a small trivially destructible struct — which all
/// four are. The derived adapter supplies only
///
///   Policy make_policy(TreeWalk& walk) const;
///
/// returning the policy initialized for walk.joiner(); it is placement-new'ed
/// into the walk's PolicySlot (no destruction needed — the slot is reused
/// by overwriting). Protocols with splices or commit-time re-validation
/// additionally override adoptions() / commit().
template <typename Derived, typename Policy>
class PolicyPipeline : public PipelineSupport {
 public:
  void start(TreeWalk& walk, PolicySlot& slot, OpStats& stats) override {
    static_assert(sizeof(Policy) <= sizeof(PolicySlot::bytes),
                  "step policy does not fit the walker's PolicySlot");
    static_assert(alignof(Policy) <= alignof(PolicySlot),
                  "step policy over-aligned for the walker's PolicySlot");
    static_assert(std::is_trivially_destructible_v<Policy>,
                  "walker slots are reused without running destructors");
    Policy* policy = ::new (static_cast<void*>(slot.bytes))
        Policy(static_cast<const Derived*>(this)->make_policy(walk));
    policy->on_start(walk, stats);
  }

  TreeWalk::Action step(TreeWalk& walk, PolicySlot& slot,
                        OpStats& stats) override {
    return policy_of(slot).step(walk, stats);
  }

 protected:
  static Policy& policy_of(PolicySlot& slot) {
    return *std::launder(reinterpret_cast<Policy*>(slot.bytes));
  }
  static const Policy& policy_of(const PolicySlot& slot) {
    return *std::launder(reinterpret_cast<const Policy*>(slot.bytes));
  }
};

}  // namespace vdm::overlay
