#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "baselines/btp_protocol.hpp"
#include "baselines/hmtp_protocol.hpp"
#include "baselines/random_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "helpers.hpp"
#include "net/coord_underlay.hpp"
#include "overlay/walk.hpp"
#include "topology/coord.hpp"
#include "walk_golden_configs.hpp"

namespace vdm::overlay {
namespace {

using testutil::Harness;
using testutil::line_underlay;

// ------------------------------------------------------------------ fixtures

enum class ProtoKind { kVdm, kHmtp, kBtp, kRandom };

const char* proto_kind_name(ProtoKind k) {
  switch (k) {
    case ProtoKind::kVdm: return "Vdm";
    case ProtoKind::kHmtp: return "Hmtp";
    case ProtoKind::kBtp: return "Btp";
    case ProtoKind::kRandom: return "Random";
  }
  return "?";
}

std::unique_ptr<Protocol> make_protocol(ProtoKind k) {
  switch (k) {
    case ProtoKind::kVdm: return std::make_unique<core::VdmProtocol>();
    case ProtoKind::kHmtp: return std::make_unique<baselines::HmtpProtocol>();
    case ProtoKind::kBtp: return std::make_unique<baselines::BtpProtocol>();
    case ProtoKind::kRandom: return std::make_unique<baselines::RandomProtocol>();
  }
  return nullptr;
}

/// Records every walk step and asserts, online, that no walk revisits a node
/// within one operation (step == 1 marks a new walk).
class RecordingObserver final : public WalkObserver {
 public:
  void on_step(const WalkStep& s) override {
    if (s.step == 1) current_walk_.clear();
    EXPECT_EQ(std::count(current_walk_.begin(), current_walk_.end(), s.node), 0)
        << "walk for joiner " << s.joiner << " revisited node " << s.node;
    current_walk_.push_back(s.node);
    steps_.push_back(s);
  }

  const std::vector<WalkStep>& steps() const { return steps_; }

  /// The first step at or after index `from` (the start of the walk issued
  /// after `from` steps had been recorded).
  const WalkStep& first_step_since(std::size_t from) const {
    EXPECT_LT(from, steps_.size());
    return steps_[from];
  }

 private:
  std::vector<net::HostId> current_walk_;
  std::vector<WalkStep> steps_;
};

/// A 24-host underlay with deterministic, irregular pairwise distances (no
/// ties, no 1-D shortcuts a protocol could exploit).
net::MatrixUnderlay scattered_underlay() {
  std::vector<double> position;
  for (int i = 0; i < 24; ++i) {
    position.push_back(static_cast<double>((i * 37) % 101) +
                       0.01 * static_cast<double>(i));
  }
  return line_underlay(position);
}

class WalkInvariants : public ::testing::TestWithParam<ProtoKind> {};

// -------------------------------------------------------- engine invariants

TEST_P(WalkInvariants, NoRevisitAndNoSaturatedParentUnderChurn) {
  const std::unique_ptr<Protocol> proto = make_protocol(GetParam());
  RecordingObserver obs;
  proto->set_walk_observer(&obs);
  Harness h(scattered_underlay(), *proto, /*source_degree=*/3);

  // Tight degree limits force saturated-node fallbacks; leaves force
  // reconnection walks (the observer asserts no-revisit on every step).
  for (net::HostId n = 1; n <= 16; ++n) h.join(n, 3);
  h.session.leave(3);
  h.session.leave(5);
  h.session.leave(1);
  for (net::HostId n = 17; n <= 20; ++n) h.join(n, 3);

  EXPECT_FALSE(obs.steps().empty());
  const Membership& tree = h.session.tree();
  for (const net::HostId m : tree.alive_members()) {
    const MemberState& ms = tree.member(m);
    EXPECT_LE(ms.overlay_links(), ms.degree_limit)
        << "member " << m << " over its degree limit";
  }
}

TEST_P(WalkInvariants, TerminatesUnderFullDegreeTrees) {
  const std::unique_ptr<Protocol> proto = make_protocol(GetParam());
  RecordingObserver obs;
  proto->set_walk_observer(&obs);
  Harness h(scattered_underlay(), *proto, /*source_degree=*/2);

  // Degree limit 2 everywhere: each member feeds at most one child beyond
  // its uplink, so the tree degenerates into chains and every join past the
  // first must walk deep and terminate via the capacity ladder.
  for (net::HostId n = 1; n <= 18; ++n) h.join(n, 2);

  const Membership& tree = h.session.tree();
  EXPECT_EQ(tree.alive_members().size(), 19u);
  for (const WalkStep& s : obs.steps()) {
    EXPECT_LE(s.step, 20) << "walk ran longer than the member count";
  }
}

TEST_P(WalkInvariants, StartFallbackEngagesForDeadAndSaturatedStarts) {
  const std::unique_ptr<Protocol> proto = make_protocol(GetParam());
  RecordingObserver obs;
  proto->set_walk_observer(&obs);
  Harness h(scattered_underlay(), *proto, /*source_degree=*/4);

  for (net::HostId n = 1; n <= 6; ++n) h.join(n, 4);
  // A degree-limit-1 member is a pure leaf: its single link is the uplink,
  // so its subtree has no attachment point at all.
  const net::HostId saturated_leaf = 7;
  h.join(saturated_leaf, 1);

  Membership& tree = h.session.tree();

  // Saturated start: the walk must restart from the source, not dead-end.
  std::size_t mark = obs.steps().size();
  tree.activate(20, 4);
  proto->execute_join(h.session, 20, saturated_leaf);
  EXPECT_EQ(obs.first_step_since(mark).node, h.session.source());
  EXPECT_EQ(obs.first_step_since(mark).step, 1);

  // Dead start (host 21 was never activated): same source fallback.
  mark = obs.steps().size();
  tree.activate(22, 4);
  proto->execute_join(h.session, 22, /*start=*/21);
  EXPECT_EQ(obs.first_step_since(mark).node, h.session.source());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, WalkInvariants,
                         ::testing::Values(ProtoKind::kVdm, ProtoKind::kHmtp,
                                           ProtoKind::kBtp, ProtoKind::kRandom),
                         [](const ::testing::TestParamInfo<ProtoKind>& param_info) {
                           return proto_kind_name(param_info.param);
                         });

// ------------------------------------------------- shared has-room predicate

/// Minimal policy: asserts the engine's view of the current node's room and
/// stops there (attaching is the caller's business in this test).
struct ProbeRoomPolicy {
  bool expect_room = false;
  void on_start(TreeWalk&, OpStats&) {}
  TreeWalk::Action step(TreeWalk& w, OpStats&) {
    EXPECT_EQ(w.can_accept(w.cur()), expect_room);
    return TreeWalk::Action::stop(WalkDecision::kAttach, w.cur());
  }
};

struct ProbeRoomPipeline final
    : PolicyPipeline<ProbeRoomPipeline, ProbeRoomPolicy> {
  bool expect_room = false;
  ProbeRoomPolicy make_policy(TreeWalk&) const { return {expect_room}; }
};

TEST(WalkPredicate, OwnParentCountsAsHavingRoomEvenWhenFull) {
  // P (host 1, limit 2) carries its uplink + child N -> full. N re-walking
  // from P must still see room there (the self-parent allowance the Random
  // baseline used to miss), while a stranger must not.
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 12.0, 30.0}), vdm);
  ASSERT_EQ(h.join(1, 2), 0u);
  ASSERT_EQ(h.join(2, 2), 1u);  // N = 2 under P = 1; P now full
  ASSERT_EQ(h.join(3, 2), 2u);  // keeps P's subtree capacity-bearing
  ASSERT_FALSE(h.session.tree().member(1).has_free_degree());

  OpStats stats;
  PolicySlot slot;
  TreeWalk walk_as_child(h.session);
  ProbeRoomPipeline sees_room;
  sees_room.expect_room = true;
  EXPECT_EQ(walk_as_child.run(sees_room, slot, 2, 1, stats).node, 1u);

  // Host 3's parent is 2, not 1 — no allowance at 1 for it.
  TreeWalk walk_as_stranger(h.session);
  ProbeRoomPipeline sees_full;
  EXPECT_EQ(walk_as_stranger.run(sees_full, slot, 3, 1, stats).node, 1u);
}

// ------------------------------------------ a protocol that is only a policy

/// The smallest step policy that places every joiner: attach at the current
/// node when it has room, else the saturated ladder over the probed kids.
struct NearestRoomPolicy {
  void on_start(TreeWalk&, OpStats&) {}
  TreeWalk::Action step(TreeWalk& w, OpStats& stats) {
    if (w.can_accept(w.cur())) {
      return TreeWalk::Action::stop(WalkDecision::kAttach, w.cur());
    }
    return w.saturated_fallback(w.probe_kids(stats));
  }
};

struct NearestRoomPipeline final
    : PolicyPipeline<NearestRoomPipeline, NearestRoomPolicy> {
  NearestRoomPolicy make_policy(TreeWalk&) const { return {}; }
};

/// Overrides nothing but its name and its step policy, so every join,
/// reconnection and drain runs the base walk-and-attach.
class PolicyOnlyProtocol final : public Protocol {
 public:
  std::string_view name() const override { return "PolicyOnly"; }
  PipelineSupport* pipeline_support() override { return &pipeline_; }

 private:
  NearestRoomPipeline pipeline_;
};

class PolicyOnly : public ::testing::TestWithParam<JoinMode> {};

TEST_P(PolicyOnly, JoinsAndReconnectsThroughTheBaseAttach) {
  PolicyOnlyProtocol proto;
  sim::Simulator sim;
  const net::MatrixUnderlay underlay = scattered_underlay();
  const DelayMetric metric(0.0);
  SessionParams sp;
  sp.source_degree_limit = 3;
  sp.data_plane = false;
  sp.paranoid_checks = true;
  sp.join_mode = GetParam();
  Session session(sim, underlay, proto, metric, sp, util::Rng(3));
  session.start();

  // One same-instant crowd (a single drain batch under kConcurrent), then a
  // graceful leave of the first joiner that has children.
  for (net::HostId h = 1; h <= 20; ++h) {
    sim.schedule_at(1.0, [&session, h] { session.join(h, 3); });
  }
  net::HostId leaver = net::kInvalidHost;
  std::vector<net::HostId> orphans;
  sim.schedule_at(2.0, [&] {
    for (net::HostId h = 1; h <= 20 && leaver == net::kInvalidHost; ++h) {
      if (!session.tree().member(h).children.empty()) leaver = h;
    }
    ASSERT_NE(leaver, net::kInvalidHost);
    orphans = session.tree().member(leaver).children;
    session.leave(leaver);
  });
  sim.run();

  const Membership& tree = session.tree();
  tree.validate();
  EXPECT_EQ(tree.alive_count(), 20u);  // source + 20 joiners - the leaver
  for (net::HostId h = 1; h <= 20; ++h) {
    if (h == leaver) continue;
    EXPECT_NE(tree.member(h).parent, net::kInvalidHost)
        << "host " << h << " left detached";
  }
  EXPECT_EQ(session.totals().joins_completed, 20u);
  EXPECT_FALSE(orphans.empty());
  EXPECT_EQ(session.totals().reconnects_completed, orphans.size());
}

INSTANTIATE_TEST_SUITE_P(AllJoinModes, PolicyOnly,
                         ::testing::Values(JoinMode::kSequential,
                                           JoinMode::kLocating,
                                           JoinMode::kConcurrent),
                         [](const ::testing::TestParamInfo<JoinMode>& param_info) {
                           switch (param_info.param) {
                             case JoinMode::kSequential: return "Sequential";
                             case JoinMode::kLocating: return "Locating";
                             case JoinMode::kConcurrent: return "Concurrent";
                           }
                           return "?";
                         });

// ---------------------------------------------------- batched probe rounds

TEST(WalkMeasure, SpanOutBatchMatchesSingleProbesAndReusesCapacity) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0, 30.0, 40.0}), vdm);
  for (net::HostId n = 1; n <= 4; ++n) h.join(n);

  const std::vector<net::HostId> targets{1, 2, 3, 4};
  OpStats s1, s2;
  // One probe at a time: messages add up, and the batch waits only for the
  // slowest probe of the four.
  std::vector<double> single;
  sim::Time slowest = 0.0;
  for (const net::HostId t : targets) {
    OpStats one;
    single.push_back(h.session.measure(2, t, one));
    s1.messages += one.messages;
    slowest = std::max(slowest, one.elapsed);
  }
  s1.elapsed = slowest;
  std::vector<double> out;
  const std::span<const double> spanned =
      h.session.measure_parallel(2, targets, out, s2);
  ASSERT_EQ(single.size(), spanned.size());
  for (std::size_t i = 0; i < single.size(); ++i) EXPECT_EQ(single[i], spanned[i]);
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.elapsed, s2.elapsed);

  // Steady-state reuse: a second call into the same buffer must not grow it.
  const std::size_t cap = out.capacity();
  h.session.measure_parallel(2, targets, out, s2);
  EXPECT_EQ(out.capacity(), cap);
}

// ------------------------------------------------------------- walk tracing

TEST(WalkTrace, VdmDescendThenAttachIsReportedStepByStep) {
  // Figure 3.9 worked example: N beyond child C1 -> Case III descend to C1,
  // then Case I attach there.
  core::VdmProtocol vdm;
  RecordingObserver obs;
  vdm.set_walk_observer(&obs);
  Harness h(line_underlay({0.0, 10.0, 18.0}), vdm);
  ASSERT_EQ(h.join(1), 0u);
  const std::size_t mark = obs.steps().size();
  ASSERT_EQ(h.join(2), 1u);

  ASSERT_EQ(obs.steps().size(), mark + 2);
  const WalkStep& first = obs.steps()[mark];
  EXPECT_EQ(first.joiner, 2u);
  EXPECT_EQ(first.node, 0u);
  EXPECT_EQ(first.step, 1);
  EXPECT_EQ(first.probes, 2);  // source + one kid
  EXPECT_EQ(first.decision, WalkDecision::kDirectionalDescend);
  EXPECT_EQ(first.next, 1u);
  const WalkStep& second = obs.steps()[mark + 1];
  EXPECT_EQ(second.node, 1u);
  EXPECT_EQ(second.step, 2);
  EXPECT_EQ(second.decision, WalkDecision::kAttach);
  EXPECT_EQ(second.next, 1u);
}

// ------------------------------------------ child eligibility vs reference

/// The reference eligibility check: alive, not the joiner, and not in the
/// joiner's subtree, by a plain climb over member().parent.
bool reference_eligible(const Membership& tree, net::HostId joiner,
                        net::HostId candidate) {
  if (candidate == joiner || !tree.member(candidate).alive) return false;
  for (net::HostId at = candidate; at != net::kInvalidHost;
       at = tree.member(at).parent) {
    if (at == joiner) return false;
  }
  return true;
}

/// What a KidsCheckPolicy saw; outlives the walks that report into it.
struct KidsCheckTally {
  int steps = 0;
  /// Steps whose current node had the joiner itself among its children.
  int joiner_dropped = 0;
};

/// Step policy that compares kids() with the reference filter over cur()'s
/// children at every step. It then descends towards the joiner while a kid
/// lies on the joiner's root path (so walks pass the joiner's parent), else
/// to a kid picked by the step index, and stops at a node without kids.
struct KidsCheckPolicy {
  KidsCheckTally* tally;
  void on_start(TreeWalk&, OpStats&) {}
  TreeWalk::Action step(TreeWalk& w, OpStats&) {
    const Membership& tree = w.session().tree();
    std::vector<net::HostId> want;
    for (const net::HostId c : tree.member(w.cur()).children) {
      if (reference_eligible(tree, w.joiner(), c)) want.push_back(c);
      if (c == w.joiner()) ++tally->joiner_dropped;
    }
    const std::span<const net::HostId> kids = w.kids();
    EXPECT_EQ(std::vector<net::HostId>(kids.begin(), kids.end()), want)
        << "joiner " << w.joiner() << " at node " << w.cur();
    ++tally->steps;
    if (kids.empty()) {
      return TreeWalk::Action::stop(WalkDecision::kAttach, w.cur());
    }
    for (const net::HostId c : kids) {
      if (tree.is_ancestor(c, w.joiner())) {
        return TreeWalk::Action::descend(WalkDecision::kRandomStep, c);
      }
    }
    const auto pick = static_cast<std::size_t>(w.step_index()) * 7 + w.joiner();
    return TreeWalk::Action::descend(WalkDecision::kRandomStep,
                                     kids[pick % kids.size()]);
  }
};

struct KidsCheckPipeline final
    : PolicyPipeline<KidsCheckPipeline, KidsCheckPolicy> {
  KidsCheckTally* tally = nullptr;
  KidsCheckPolicy make_policy(TreeWalk&) const { return {tally}; }
};

/// Hangs a random subset of hosts 1..n-1 under the already active source:
/// each under a uniformly drawn placed member, or under one of the last few
/// placed (which grows long chains). The rest stay dead.
void grow_random_tree(Membership& tree, std::size_t n, util::Rng& rng) {
  std::vector<net::HostId> placed{0};
  for (net::HostId h = 1; h < n; ++h) {
    if (rng.chance(0.15)) continue;
    tree.activate(h, static_cast<int>(n));
    const auto size = static_cast<std::int64_t>(placed.size());
    const std::int64_t lo = rng.chance(0.5) ? std::max<std::int64_t>(0, size - 3) : 0;
    tree.attach(h, placed[static_cast<std::size_t>(rng.uniform_int(lo, size - 1))],
                1.0);
    placed.push_back(h);
  }
}

TEST(WalkKids, MatchTheReferenceFilterForEveryJoinerKind) {
  constexpr std::size_t kHosts = 64;
  std::vector<double> position;
  for (std::size_t i = 0; i < kHosts; ++i) {
    position.push_back(static_cast<double>((i * 37) % 101));
  }
  util::Rng rng(42);
  KidsCheckTally tally;
  KidsCheckPipeline pipeline;
  pipeline.tally = &tally;
  int fresh = 0, attached = 0, detached = 0;
  for (int trial = 0; trial < 40; ++trial) {
    core::VdmProtocol vdm;
    Harness h(line_underlay(position), vdm, /*source_degree=*/static_cast<int>(kHosts));
    Membership& tree = h.session.tree();
    const auto n = static_cast<std::size_t>(rng.uniform_int(8, kHosts));
    grow_random_tree(tree, n, rng);

    // Each walk starts once at the source and once at a random host; an
    // ineligible random start (dead, the joiner, inside its subtree)
    // restarts from the source.
    const auto walk_both = [&](net::HostId joiner) {
      OpStats stats;
      PolicySlot slot;
      TreeWalk walk(h.session);
      walk.run(pipeline, slot, joiner, h.session.source(), stats);
      const auto start = static_cast<net::HostId>(rng.uniform_int(0, kHosts - 1));
      walk.run(pipeline, slot, joiner, start, stats);
    };

    // Fresh joiners: alive, detached, childless.
    for (net::HostId j = 1; j < kHosts; ++j) {
      if (tree.member(j).alive) continue;
      tree.activate(j, 4);
      walk_both(j);
      ++fresh;
      break;
    }
    // Members with a subtree: attached (a refinement walk), then detached
    // with the subtree kept (a rejoin after a crash or a false verdict).
    for (net::HostId j = 1; j < n; ++j) {
      const MemberState& m = tree.member(j);
      if (!m.alive || m.children.empty() || !rng.chance(0.3)) continue;
      walk_both(j);
      ++attached;
      const net::HostId parent = m.parent;
      tree.detach(j);
      walk_both(j);
      ++detached;
      tree.attach(j, parent, 1.0);
    }
  }
  EXPECT_GT(fresh, 30);
  EXPECT_GT(attached, 50);
  EXPECT_GT(detached, 50);
  EXPECT_GT(tally.steps, 1000);
  EXPECT_GT(tally.joiner_dropped, 50);  // the joiner's own parent was walked
}

/// Checks every reported step against the reference: the node queried, and
/// the descend target or chosen parent, must be eligible for the joiner.
class EligibilityProbe final : public WalkObserver {
 public:
  explicit EligibilityProbe(const Session& session) : session_(&session) {}

  void on_step(const WalkStep& s) override {
    const Membership& tree = session_->tree();
    ++steps_;
    if (!tree.member(s.joiner).children.empty()) ++subtree_steps_;
    EXPECT_TRUE(reference_eligible(tree, s.joiner, s.node))
        << "joiner " << s.joiner << " queried ineligible node " << s.node;
    if (s.decision == WalkDecision::kAbort) return;
    EXPECT_TRUE(reference_eligible(tree, s.joiner, s.next))
        << "joiner " << s.joiner << " at " << s.node << " chose ineligible "
        << s.next << " (" << walk_decision_name(s.decision) << ")";
  }

  int steps() const { return steps_; }
  int subtree_steps() const { return subtree_steps_; }

 private:
  const Session* session_;
  int steps_ = 0;
  int subtree_steps_ = 0;
};

/// Each protocol with its periodic refinement on (Random has none).
std::unique_ptr<Protocol> make_refining_protocol(ProtoKind k) {
  switch (k) {
    case ProtoKind::kVdm: {
      core::VdmConfig cfg;
      cfg.refinement = true;
      cfg.refinement_period = 15.0;
      return std::make_unique<core::VdmProtocol>(cfg);
    }
    case ProtoKind::kHmtp: {
      baselines::HmtpConfig cfg;
      cfg.refinement_period = 10.0;
      return std::make_unique<baselines::HmtpProtocol>(cfg);
    }
    case ProtoKind::kBtp: {
      baselines::BtpConfig cfg;
      cfg.refinement_period = 10.0;
      return std::make_unique<baselines::BtpProtocol>(cfg);
    }
    case ProtoKind::kRandom:
      return std::make_unique<baselines::RandomProtocol>();
  }
  return nullptr;
}

struct ChurnCase {
  ProtoKind proto;
  JoinMode mode;
};

class WalkEligibility : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(WalkEligibility, EveryTargetAndParentPassesTheReferenceUnderChurn) {
  constexpr std::size_t kHosts = 160;
  topo::CoordParams cp;
  cp.num_hosts = kHosts;
  cp.space = topo::CoordSpace::kPlane;
  util::Rng topo_rng(11);
  const net::CoordUnderlay underlay = topo::make_coord(cp, topo_rng);
  const std::unique_ptr<Protocol> proto = make_refining_protocol(GetParam().proto);
  sim::Simulator sim;
  const DelayMetric metric(0.0);
  SessionParams sp;
  sp.source_degree_limit = 4;
  sp.data_plane = false;
  sp.paranoid_checks = true;
  sp.join_mode = GetParam().mode;
  sp.faults.heartbeat_period = 1.0;
  sp.faults.lossy_control = true;
  sp.faults.control_loss_extra = 0.05;
  Session session(sim, underlay, *proto, metric, sp, util::Rng(5));
  EligibilityProbe probe(session);
  proto->set_walk_observer(&probe);
  session.start();

  // A same-instant crowd (one drain batch when concurrent), scattered
  // joins, then crash-heavy churn: orphans rejoin with their subtrees after
  // the heartbeat verdict, and refinement re-walks attached members.
  util::Rng rng(9);
  const auto degree = [&rng] { return static_cast<int>(rng.uniform_int(2, 5)); };
  for (net::HostId h = 1; h <= 100; ++h) {
    const sim::Time at = h <= 60 ? 1.0 : rng.uniform(2.0, 60.0);
    const int d = degree();
    sim.schedule_at(at, [&session, h, d] { session.join(h, d); });
  }
  for (sim::Time t = 60.0; t < 200.0; t += 2.0) {
    sim.schedule_at(t, [&] {
      const Membership& tree = session.tree();
      std::vector<net::HostId> alive, dead;
      for (net::HostId h = 1; h < kHosts; ++h) {
        (tree.member(h).alive ? alive : dead).push_back(h);
      }
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.3 && !dead.empty()) {
        session.join(dead[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(dead.size()) - 1))],
                     degree());
      } else if (!alive.empty()) {
        const net::HostId h = alive[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(alive.size()) - 1))];
        if (u < 0.85) {
          session.crash(h);
        } else {
          session.leave(h);
        }
      }
    });
  }
  sim.run_until(220.0);

  session.validate();
  EXPECT_GT(probe.steps(), 200);
  EXPECT_GT(probe.subtree_steps(), 0) << "no walk carried a subtree";
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAndJoinModes, WalkEligibility,
    ::testing::ValuesIn([] {
      std::vector<ChurnCase> cases;
      for (const ProtoKind p : {ProtoKind::kVdm, ProtoKind::kHmtp,
                                ProtoKind::kBtp, ProtoKind::kRandom}) {
        for (const JoinMode m : {JoinMode::kSequential, JoinMode::kLocating,
                                 JoinMode::kConcurrent}) {
          cases.push_back({p, m});
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<ChurnCase>& param_info) {
      std::string name = proto_kind_name(param_info.param.proto);
      switch (param_info.param.mode) {
        case JoinMode::kSequential: return name + "Sequential";
        case JoinMode::kLocating: return name + "Locating";
        case JoinMode::kConcurrent: return name + "Concurrent";
      }
      return name;
    });

// ------------------------------------------------------- hexfloat bit-equality

/// run_once scalars recorded on the pre-TreeWalk hand-rolled protocol loops
/// (field order: testutil::run_result_scalars). The engine port must keep
/// every corner bit-identical — same measurement order, same rng draw order.
struct GoldenRun {
  const char* name;
  std::array<double, 23> want;
};

constexpr GoldenRun kGoldens[] = {
    {"fig3-vdm",
     {0x1.03489695d5145p+1, 0x1.835e50d79435ep+2, 0x1.28aac512f793cp+1,
      0x1.571c4a8c12e19p+1, 0x1.4f6b583a4ae64p+2, 0x1p+0,
      0x1.7047dc11f7047p+2, 0x1.b17f126789p+2, 0x1.59435e50d7943p+3,
      0x1.0765cc70e93f9p-2, 0x1.1eef03da864cfp-7, 0x1.507019de95d3dp-2,
      0x1.bd4fc9df0d794p+1, 0x1.25ee5637d508fp+1, 0x1.664d76cap+2,
      0x1.add6285c4bda1p-1, 0x1.29f241f6p+2, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.9104e513955c8p+0, 0x1.88p+5}},
    {"fig3-hmtp",
     {0x1.cf5fd1e087bf9p+0, 0x1.179435e50d794p+2, 0x1.3a1030518fd27p+1,
      0x1.4eae20740f18cp+1, 0x1.121756ea52ffcp+2, 0x1p+0,
      0x1.d411f7047dc11p+2, 0x1.12f9bc84e1a03p+3, 0x1.ad79435e50d79p+3,
      0x1.3405e9d39be9dp-2, 0x1.a2b0dfd487c04p-2, 0x1.cad2ba79cd56cp+3,
      0x1.265a242f9435ep+1, 0x1.6297b16cddfc7p+1, 0x1.98ea0dfep+2,
      0x1.6f68bb9e0f83ep-1, 0x1.9306c0fcp+1, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.2647be6e31db7p+0, 0x1.88p+5}},
    {"fig3-btp",
     {0x1.131fb688d19bdp+1, 0x1.b5e50d79435e5p+2, 0x1.8aedb3d8a5623p+1,
      0x1.c22baac47baafp+1, 0x1.2960e26186ba6p+3, 0x1p+0,
      0x1.4835e50d79436p+2, 0x1.8acce0aa03ff3p+2, 0x1.5ca1af286bca2p+3,
      0x1.0bdab20deb51p-2, 0x1.46be87751d363p-4, 0x1.81366f05edadp+1,
      0x1.152e2ec5286bdp+2, 0x1.0e9aa0933ea84p+0, 0x1.4dad5de4p+1,
      0x1.67aa037435e51p-1, 0x1.c8350ed8p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.1a405fd7ede29p+1, 0x1.88p+5}},
    {"fig3-random",
     {0x1.4c226464d25c2p+1, 0x1.0d79435e50d79p+4, 0x1.09b1bfaf56079p+2,
      0x1.4b39af09fc1c8p+2, 0x1.2ce04fe65247p+4, 0x1p+0,
      0x1.9f9435e50d794p+1, 0x1.f424fd07fc6afp+1, 0x1.abca1af286bcap+2,
      0x1.c79dc364c0f0fp-3, 0x1.b824cc9aa138p-9, 0x1.14bfdd81e2e5ap-3,
      0x1.c229be201af28p+2, 0x1.8307573a8479cp+0, 0x1.9d867264p+1,
      0x1.44044cbcb376cp+0, 0x1.9be891a4p+1, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.ec0f275741bacp+1, 0x1.88p+5}},
    {"degree2-vdm",
     {0x1.fb9c9cdb71c3dp+0, 0x1.179435e50d794p+2, 0x1.5335294179fb2p+2,
      0x1.6bffb34292ccep+2, 0x1.b26d3debd8879p+3, 0x1p+0,
      0x1.68b3a62ce98b3p+3, 0x1.9435e50d79436p+3, 0x1.c79435e50d794p+4,
      0x1.1226e380de565p-8, 0x1.3fcef53dec701p-8, 0x1.df64c87d09298p-3,
      0x1.be701ae86bca2p+1, 0x1.398e113aa0be8p+2, 0x1.6fe6939p+4,
      0x1.218cafa15f15fp+0, 0x1.419c7bc1p+4, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.066d9c3f26ea3p+1, 0x1.88p+5}},
    {"degree2-hmtp",
     {0x1.2203a18c15419p+1, 0x1.15e50d79435e5p+3, 0x1.4ebf084b9956bp+3,
      0x1.29864276df835p+3, 0x1.11682f6c243bdp+5, 0x1p+0,
      0x1.974c59d31674dp+3, 0x1.8p+3, 0x1.de50d79435e51p+4,
      0x1.fdb96f8cbdaf3p-11, 0x1.0470bff5fcd4ep-1, 0x1.875a46102b1dcp+4,
      0x1.42e12b4486bcap+2, 0x1.2f5d760805f41p+3, 0x1.99737f038p+4,
      0x1.93002622d2d2dp-1, 0x1.793fd93p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.54e5b40ae4cc2p+1, 0x1.88p+5}},
    {"degree2-btp",
     {0x1.16da425cf8273p+1, 0x1.b5e50d79435e5p+2, 0x1.872e005da7a56p+2,
      0x1.67be8049c764dp+3, 0x1.63720227c0a78p+5, 0x1p+0,
      0x1.c4d79435e50d9p+2, 0x1.435e50d79435dp+3, 0x1.1a1af286bca1bp+4,
      0x1.d8e6c87a0da1bp-12, 0x1.94de599b110d8p-5, 0x1.303a34d11c908p+1,
      0x1.1f7e9399p+2, 0x1.0211bcbfd6536p+2, 0x1.c90b451fp+3,
      0x1.453be11492492p-1, 0x1.18d1bfap+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.2c4fe05401ed3p+1, 0x1.88p+5}},
    {"degree2-random",
     {0x1.46925f76726f1p+1, 0x1.dca1af286bca2p+3, 0x1.34eb2350703cfp+3,
      0x1.cf51be60583cdp+3, 0x1.05709c7ef462cp+7, 0x1p+0,
      0x1.67a62ce98b3a7p+2, 0x1.373dfa9c4b73dp+3, 0x1.aa1af286bca1bp+3,
      0x1.133cf427a5f5ep-11, 0x1.befff9b99bbap-10, 0x1.50089f87469a3p-4,
      0x1.d3f17e579435ep+2, 0x1.71235f526b29bp+1, 0x1.74151546p+2,
      0x1.f7df664af8af9p-1, 0x1.699ef98p+1, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.e8a17b60371c4p+1, 0x1.88p+5}},
    {"fig5-vdmr",
     {0x1p+0, 0x1p+0, 0x1.2b7d4d1a81953p+0,
      0x1.4aafce7c8acc5p+0, 0x1.f68eea3f52a76p+0, 0x1.63375ed88fe23p-1,
      0x1.b0a1af286bca2p+1, 0x1.0ec065981c435p+2, 0x1.a1af286bca1afp+2,
      0x1.cb1582266ap-14, 0x1.30bd58dcd8242p-4, 0x1.312ff76078b96p+1,
      0x1.ad0920c6b958p-3, 0x1.b13740ac3ed76p-3, 0x1.1413ee0d8c058p-1,
      0x1.87fac6e2dde79p-4, 0x1.14bb96507597p-1, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.c6a58ba84e4c2p+0, 0x1.08p+5}},
    {"fig5-hmtp",
     {0x1p+0, 0x1p+0, 0x1.5425948d879e1p+0,
      0x1.6d7265bd01b19p+0, 0x1.63df16bf7657cp+1, 0x1.808526f67b0e2p-1,
      0x1.1faf286bca1afp+2, 0x1.56e2d51124f9cp+2, 0x1.3e50d79435e51p+3,
      0x1.33b4552b441afp-14, 0x1.8a98596cdc81ap-3, 0x1.8b13f0e8d3447p+2,
      0x1.46751fe12906ep-3, 0x1.16e9ff46b931dp-2, 0x1.7285262cabf08p-1,
      0x1.83a0e7739a20bp-4, 0x1.4ac41feb92513p-2, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.adb77ed41f2ddp+0, 0x1.08p+5}},
    {"fig5-btp",
     {0x1p+0, 0x1p+0, 0x1.df75b4037b4efp+0,
      0x1.fa34cd027dea3p+0, 0x1.0e8e0ded36747p+2, 0x1.9a7479559220ap-1,
      0x1.34f286bca1af3p+2, 0x1.726f840f86c9dp+2, 0x1.4p+3,
      0x1.350f8b11af943p-16, 0x1.e1f923b5f89bdp-5, 0x1.e2bec990fa127p+0,
      0x1.9c0bf82333cp-2, 0x1.3de37cb7e9441p-3, 0x1.4cff91feb7362p-2,
      0x1.f21fab1929f13p-4, 0x1.5df8f34767983p-2, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.02fde2d6bc17dp+2, 0x1.08p+5}},
    {"fig5-random",
     {0x1p+0, 0x1p+0, 0x1.20479ca78ae28p+2,
      0x1.28172e74afadap+2, 0x1.e22ec757abfd3p+4, 0x1.8720e4354122bp-1,
      0x1.5ef286bca1af3p+1, 0x1.acf9565206cf8p+1, 0x1.5435e50d79436p+2,
      0x1.e1889141c06bdp-16, 0x1.5adf4dbeb2103p-10, 0x1.5b9efd4e25bap-5,
      0x1.4fae54a5af482p-1, 0x1.adf52100aee4bp-3, 0x1.0629e65109d08p-1,
      0x1.4c61b2a5fc374p-3, 0x1.a3422e4f7d4b2p-2, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.64711fce399afp+2, 0x1.08p+5}},
    // The three heartbeat corners below were re-recorded when the failure
    // detector began sampling its misses from its own stream split off the
    // session's (tests/test_detector.cpp checks it against the detector
    // that ticked every probe, in distribution).
    {"crash-vdm",
     {0x1.e4c37c99bf56p+0, 0x1.e50d79435e50dp+2, 0x1.da1942e4ae459p+0,
      0x1.0b0beb162068p+1, 0x1.46f86b05e2463p+2, 0x1p+0,
      0x1.ee2ce98b3a62dp+1, 0x1.1aa06551d12adp+2, 0x1.e1af286bca1afp+2,
      0x1.17483cec409d1p-8, 0x1.0266306de3ac8p+0, 0x1.815f1fcc42d45p+5,
      0x1.b1fc2dcf9435ep+1, 0x1.988edef9d89d9p+0, 0x1.a678a6d8p+1,
      0x1.bf7250b1702ep-1, 0x1.7fb0a6e8p+1, 0x1.8378eb08cc565p+1,
      0x1.bc28bbc62d8p+1, 0x1.f3557f352861dp+1, 0x1.900355ea886p+2,
      0x1.f39a287b39fd5p+0, 0x1.88p+5}},
    {"crash-hmtp",
     {0x1.c06216dab9df4p+0, 0x1.9af286bca1af3p+2, 0x1.b988ea98d5063p+0,
      0x1.d35a2a9aeb7a2p+0, 0x1.bf44e8d8aef8fp+1, 0x1p+0,
      0x1.ee2ce98b3a62dp+1, 0x1.16034baac2f1ep+2, 0x1.e1af286bca1afp+2,
      0x1.e7372c8eb6a79p-9, 0x1.410c9bb265d81p+0, 0x1.df1f64c87d093p+5,
      0x1.3175776850d79p+1, 0x1.d0a222bbcddfcp+0, 0x1.231bb5d2p+2,
      0x1.cedd64b64d936p-1, 0x1.eaa4982cp+1, 0x1.7cd8ec0543f7ap+1,
      0x1.bf1398763cp+1, 0x1.f0904532d75c7p+1, 0x1.d16748880b6p+2,
      0x1.21a23ab57e35ep+0, 0x1.88p+5}},
    {"flash-heartbeat-vdm",
     {0x0p+0, 0x0p+0, 0x1.5bcd61d52a81fp+1,
      0x1.900b06b1297dfp+1, 0x1.481ca0c0354c8p+4, 0x1p+0,
      0x1.03052dfafe08ep+4, 0x1.1c7a20fbd3e51p+4, 0x1.3d55555555555p+5,
      0x1.397d8d04e5f55p-10, 0x1.4264d0a7fb6fep+4, 0x1.140eaaaaaaaabp+12,
      0x1.bb18dbb208cap-2, 0x1.f19f74be53172p-4, 0x1.a117111c20e3p-1,
      0x1.bc31c171840bdp-5, 0x1.0776e3a7a35fdp-1, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1p+0, 0x1.22p+7}},
    // Recorded while the driver still scheduled the batched timeline on the
    // reactor directly, before every timeline compiled to an event list.
    {"fig4-batched-vdml",
     {0x1.5ac7fa99b248bp+1, 0x1.3p+4, 0x1.7c94769b16dbfp+1,
      0x1.054a017d9662cp+2, 0x1.3c0a3228fd579p+4, 0x1p+0,
      0x1.2c88888888888p+2, 0x1.6ef6495268a7ep+2, 0x1.2p+3,
      0x1.51289b3fb5b72p-3, 0x1.f0dbbe68923c4p-2, 0x1.3620c49ba5e36p+5,
      0x1.6b1e28878p+3, 0x1.4143b66a4b175p+1, 0x1.d9a3e2a07ae12p+2,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x1.2269616533e73p+2, 0x1.e4p+6}},
};

class WalkGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WalkGolden, RunOnceScalarsBitIdenticalToPrePortLoops) {
  const GoldenRun& golden = kGoldens[GetParam()];
  const std::vector<testutil::NamedRunConfig> configs =
      testutil::walk_golden_configs();
  const auto it =
      std::find_if(configs.begin(), configs.end(),
                   [&](const auto& c) { return c.name == golden.name; });
  ASSERT_NE(it, configs.end()) << golden.name;

  const experiments::RunResult r = experiments::run_once(it->cfg);
  const std::vector<double> got = testutil::run_result_scalars(r);
  ASSERT_EQ(got.size(), golden.want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], golden.want[i])
        << golden.name << " scalar #" << i << " drifted";
  }
}

INSTANTIATE_TEST_SUITE_P(AllCorners, WalkGolden,
                         ::testing::Range(std::size_t{0}, std::size(kGoldens)),
                         [](const ::testing::TestParamInfo<std::size_t>& param_info) {
                           std::string name = kGoldens[param_info.param].name;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace vdm::overlay
