// Edge cases of the slab event engine (cancel semantics, slot reuse,
// in-callback re-entrancy, periodic groups against a reference queue) plus the
// cross-engine determinism regression:
// whole-run golden scalars that pin the bit-determinism contract across
// event-engine rewrites.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "experiments/runner.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace vdm::sim {
namespace {

TEST(SimulatorEdge, CancelInsideCallbackSuppressesLaterEvent) {
  Simulator s;
  std::vector<int> order;
  EventId later = s.schedule_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(1.0, [&] {
    order.push_back(1);
    s.cancel(later);
  });
  // Same-timestamp sibling scheduled after its canceller: FIFO runs the
  // canceller first, so the sibling must never fire either.
  EventId sibling = kInvalidEvent;
  s.schedule_at(1.0, [&] { s.cancel(sibling); });
  sibling = s.schedule_at(1.0, [&] { order.push_back(10); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorEdge, CancelAfterFireIsNoOp) {
  Simulator s;
  int fired = 0;
  EventId id = s.schedule_at(1.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.cancel(id);          // already fired: ignored
  s.cancel(id);          // twice: still ignored
  s.cancel(kInvalidEvent);
  EXPECT_EQ(s.pending(), 0u);

  // The fired event's slot is back on the free list; the next schedule
  // reuses it under a new generation. The stale id must not cancel it.
  EventId reuse = s.schedule_at(2.0, [&] { ++fired; });
  EXPECT_NE(reuse, id);
  s.cancel(id);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorEdge, CancelInsideOwnCallbackDoesNotBreakEngine) {
  Simulator s;
  int fired = 0;
  EventId self = kInvalidEvent;
  self = s.schedule_at(1.0, [&] {
    ++fired;
    s.cancel(self);  // cancelling the currently-firing event: benign
  });
  s.schedule_at(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorEdge, PeriodicStopFromInsideOwnTick) {
  // The single-timer idiom (the chunk clock, transport::PeriodicTimer): one
  // id re-armed in place every tick, stopped by cancelling that id from
  // inside its own tick.
  Simulator s;
  int ticks = 0;
  EventId timer = kInvalidEvent;
  timer = s.schedule_in(1.0, [&] {
    if (++ticks == 3) s.cancel(timer);
    EXPECT_EQ(s.reschedule_current_in(1.0), ticks < 3);
  });
  s.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
  s.cancel(timer);  // stale after the self-stop: a no-op
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorEdge, GroupMemberStopsFromInsideOwnTick) {
  // The per-member timer idiom (heartbeats, refinement ticks): members of
  // one periodic group re-arm by themselves under a stable id until one is
  // cancelled from inside its own tick — as a heartbeat verdict does.
  Simulator s;
  std::vector<std::uint32_t> order;
  EventId first = kInvalidEvent;
  const GroupId g = s.add_periodic_group(1.0, [&](std::uint32_t payload) {
    order.push_back(payload);
    if (payload == 1 && order.size() >= 5) s.cancel(first);
  });
  first = s.arm_periodic(g, 1);
  s.run_until(0.5);
  s.arm_periodic(g, 2);
  s.run_until(4.0);
  // Member 1 ticks at 1, 2, 3; member 2 at 1.5, 2.5, 3.5. Member 1's third
  // tick (the fifth overall) stops it.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 1, 2, 1, 2}));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_DOUBLE_EQ(s.next_event_time(), 4.5);
  EXPECT_EQ(s.group_fires(), 6u);
  s.cancel(first);  // stale after the self-stop: a no-op
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SimulatorEdge, PeriodicGroupRejectsABadPeriod) {
  Simulator s;
  const auto tick = [](std::uint32_t) {};
  EXPECT_THROW(s.add_periodic_group(0.0, tick), util::InvariantError);
  EXPECT_THROW(s.add_periodic_group(-1.0, tick), util::InvariantError);
  EXPECT_THROW(s.add_periodic_group(std::numeric_limits<Time>::quiet_NaN(), tick),
               util::InvariantError);
  EXPECT_THROW(s.add_periodic_group(std::numeric_limits<Time>::infinity(), tick),
               util::InvariantError);
}

TEST(SimulatorEdge, PendingIsAccurateUnderCancelChurn) {
  Simulator s;
  constexpr int kEvents = 1000;
  int fired = 0;
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    // Interleaved timestamps so cancellation hits every region of the heap.
    const Time t = 1.0 + static_cast<Time>((i * 7919) % 101);
    ids.push_back(s.schedule_at(t, [&] { ++fired; }));
  }
  EXPECT_EQ(s.pending(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending(), static_cast<std::size_t>(kEvents) / 2);
  for (int i = 0; i < kEvents; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending(), static_cast<std::size_t>(kEvents) / 2);  // no-ops
  s.run();
  EXPECT_EQ(fired, kEvents / 2);
  EXPECT_EQ(s.pending(), 0u);
}

// ------------------------------------------------------- group equivalence
// Plain events sit in the heap; members of a periodic group sit in their
// group's ring, and the group holds one heap entry that a drain takes off
// while it fires consecutive members. That must be invisible: a seeded mix
// of every queue operation runs against a reference queue ordered by
// (t, seq), and after each operation — and inside every callback — the
// firing order, pending(), next_event_time(), executed() and group_fires()
// must match it exactly.

struct Boom {};  // thrown by a callback; step(), run() and run_until() propagate it

class GroupEquivalence {
 public:
  explicit GroupEquivalence(std::uint64_t seed) : rng_(seed) { add_groups(); }

  /// Runs `ops` random operations, checking the engine after each one.
  void run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      operate();
      check();
    }
  }

  // Coverage of the paths the mix is meant to reach.
  std::uint64_t group_fires = 0;
  std::uint64_t heap_fires = 0;
  int member_cancels[3] = {0, 0, 0};  // head, middle, tail of a group
  int self_cancels = 0;        // a tick cancelled its own member
  int mid_drain_plain = 0;     // a tick scheduled a plain event due before
                               // its group's next member
  int bound_mid_drain = 0;     // run_until stopped with a drained group pending
  int counted_member_fires = 0;  // members fired by step() or run(n)
  int member_throws = 0;
  int resets_with_members = 0;
  std::size_t max_group = 0;   // largest population of one ring
  std::uint64_t appends = 0;   // arms plus re-arms

 private:
  using Key = std::pair<Time, std::uint64_t>;
  static constexpr int kGroups = 3;
  // An exact and an inexact binary fraction among the periods, so equal
  // deadlines (seq breaks ties) and rounded sums both occur.
  static constexpr Time kPeriods[kGroups] = {1.0, 0.3, 0.125};
  struct Token {
    EventId id = kInvalidEvent;
    Key key;
    int group = -1;     // -1: a plain event
    Time delay = 0.0;   // a plain event's re-arm period
  };

  static constexpr Time kDelays[] = {0.0, 0.125, 0.25, 0.5, 0.75, 1.0,
                                     1.5, 2.0,   3.0,  0.3, 0.7,  1.1};
  Time draw_delay() {
    return kDelays[draw(static_cast<std::int64_t>(std::size(kDelays)))];
  }
  std::int64_t draw(std::int64_t n) { return rng_.uniform_int(0, n - 1); }

  void add_groups() {
    for (int g = 0; g < kGroups; ++g) {
      EXPECT_EQ(sim_.add_periodic_group(
                    kPeriods[g], [this, g](std::uint32_t token) {
                      tick(g, static_cast<int>(token));
                    }),
                static_cast<GroupId>(g));
      population_[g] = 0;
    }
  }

  void enqueue(int token, Key key) {
    Token& tok = tokens_[token];
    tok.key = key;
    queue_[key] = token;
    if (tok.group >= 0) {
      ++appends;
      max_group = std::max(max_group, ++population_[tok.group]);
    }
  }
  void dequeue(int token) {
    const Token& tok = tokens_[token];
    queue_.erase(tok.key);
    if (tok.group >= 0) --population_[tok.group];
  }

  /// Schedules a plain event whose re-arm repeats its delay: at an absolute
  /// time through schedule_at, or `delay` from now through schedule_in.
  void schedule_plain(bool absolute, Time t, Time delay) {
    const int token = next_token_++;
    tokens_[token].delay = delay;
    tokens_[token].id =
        absolute ? sim_.schedule_at(t, [this, token] { fire_plain(token); })
                 : sim_.schedule_in(delay, [this, token] { fire_plain(token); });
    enqueue(token, {absolute ? t : now_ + delay, seq_++});
  }
  void schedule() {
    if (rng_.chance(0.5)) {
      // Coarse offsets collide with member deadlines and each other.
      schedule_plain(true, now_ + 0.125 * static_cast<Time>(draw(17)), draw_delay());
    } else {
      schedule_plain(false, 0.0, draw_delay());
    }
  }

  void arm(int group) {
    const int token = next_token_++;
    tokens_[token].group = group;
    tokens_[token].id = sim_.arm_periodic(static_cast<GroupId>(group),
                                          static_cast<std::uint32_t>(token));
    enqueue(token, {now_ + kPeriods[group], seq_++});
  }

  void forget(int token) {
    stale_.push_back(tokens_[token].id);
    if (stale_.size() > 64) stale_.erase(stale_.begin());
    tokens_.erase(token);
  }

  /// Pending members of `group` in (t, seq) order.
  std::vector<int> members_of(int group) const {
    std::vector<int> out;
    for (const auto& [key, token] : queue_) {
      if (tokens_.at(token).group == group) out.push_back(token);
    }
    return out;
  }

  /// Picks a pending token: the head, a middle member or the tail of a
  /// random group's ring, else any.
  int pick_pending(bool by_position) {
    if (by_position) {
      const std::vector<int> ring = members_of(static_cast<int>(draw(kGroups)));
      if (ring.size() >= 3) {
        const int where = static_cast<int>(draw(3));
        ++member_cancels[where];
        const std::size_t at =
            where == 0 ? 0
            : where == 2
                ? ring.size() - 1
                : 1 + static_cast<std::size_t>(
                          draw(static_cast<std::int64_t>(ring.size()) - 2));
        return ring[at];
      }
    }
    auto it = queue_.begin();
    std::advance(it, draw(static_cast<std::int64_t>(queue_.size())));
    return it->second;
  }

  void cancel_pending(bool by_position) {
    if (queue_.empty()) return;
    const int token = pick_pending(by_position);
    sim_.cancel(tokens_[token].id);
    dequeue(token);
    forget(token);
  }

  void operate() {
    const std::int64_t op = queue_.size() < 24 ? draw(330) : draw(1000);
    if (op < 200) {
      schedule();
    } else if (op < 320) {
      arm(static_cast<int>(draw(kGroups)));
    } else if (op < 330) {
      // A burst: one ring outgrows its capacity several times over.
      const int group = static_cast<int>(draw(kGroups));
      for (int i = 0; i < 48; ++i) arm(group);
    } else if (op < 450) {
      cancel_pending(op < 410);
    } else if (op < 470) {
      if (!stale_.empty()) {
        sim_.cancel(stale_[static_cast<std::size_t>(
            draw(static_cast<std::int64_t>(stale_.size())))]);
      }
    } else if (op < 880) {
      // step() and run(n): one member counts as one event.
      const std::size_t n = op < 760 ? 1 : 1 + static_cast<std::size_t>(draw(5));
      const std::uint64_t fired_before = fires_;
      const std::uint64_t members_before = member_fires_;
      try {
        if (n == 1) {
          const bool had_pending = !queue_.empty();
          EXPECT_EQ(sim_.step(), had_pending);
          EXPECT_EQ(fires_ - fired_before, had_pending ? 1u : 0u);
        } else {
          const std::size_t ran = sim_.run(n);
          EXPECT_EQ(ran, fires_ - fired_before);
          if (!queue_.empty()) {
            EXPECT_EQ(ran, n);
          }
        }
      } catch (const Boom&) {
      }
      counted_member_fires += static_cast<int>(member_fires_ - members_before);
    } else if (op < 997) {
      const Time until = now_ + rng_.uniform(0.0, 2.0);
      const std::uint64_t members_before = member_fires_;
      bound_ = until;
      try {
        sim_.run_until(until);
        bound_ = std::numeric_limits<Time>::infinity();
        now_ = until;
        EXPECT_TRUE(queue_.empty() || queue_.begin()->first.first > until);
        if (member_fires_ > members_before && last_group_ >= 0 &&
            population_[last_group_] > 0) {
          ++bound_mid_drain;
        }
      } catch (const Boom&) {
        bound_ = std::numeric_limits<Time>::infinity();
      }
    } else {
      group_fires += sim_.group_fires();
      heap_fires += sim_.executed() - sim_.group_fires();
      if (population_[0] + population_[1] + population_[2] > 0) ++resets_with_members;
      sim_.reset();
      queue_.clear();
      tokens_.clear();
      stale_.clear();  // generations restart with the slab: not stale any more
      now_ = 0.0;
      seq_ = 1;
      fires_ = 0;
      member_fires_ = 0;
      add_groups();  // reset() drops the groups; their rings are reused
    }
  }

  /// The common prologue of every callback: it must be the reference's
  /// earliest event, and the engine's view from inside must match.
  void fired(int token) {
    ASSERT_FALSE(queue_.empty());
    const auto first = queue_.begin();
    EXPECT_EQ(first->second, token) << "fired out of (t, seq) order";
    EXPECT_EQ(sim_.now(), first->first.first);
    EXPECT_LE(first->first.first, bound_) << "fired past the run_until bound";
    now_ = first->first.first;
    dequeue(token);
    ++fires_;
    check();
  }

  void fire_plain(int token) {
    fired(token);
    const EventId self = tokens_[token].id;
    bool rearm = false;
    bool cancelled = false;
    Time rearm_delay = 0.0;
    const auto rearm_with = [&](Time d) {
      EXPECT_EQ(sim_.reschedule_current_in(d), !cancelled);
      if (!cancelled) {
        rearm = true;
        rearm_delay = d;
      }
    };
    const std::int64_t act = draw(100);
    if (act < 35) {
      rearm_with(tokens_[token].delay);  // the single-timer idiom
    } else if (act < 45) {
      rearm_with(draw_delay());
      if (act < 40) rearm_with(draw_delay());  // the last call wins
    } else if (act < 50) {
      rearm_with(tokens_[token].delay);
      sim_.cancel(self);  // a verdict inside the tick: suppresses the re-arm
      cancelled = true;
      rearm = false;
    } else if (act < 60) {
      cancel_pending(act < 56);
      if (act % 2 == 0) rearm_with(tokens_[token].delay);
    } else if (act < 68) {
      // The re-arm takes its seq after everything the callback scheduled.
      if (act % 2 == 0) rearm_with(tokens_[token].delay);
      if (act < 64) {
        schedule();
      } else {
        arm(static_cast<int>(draw(kGroups)));
      }
    } else if (act < 71) {
      if (act % 2 == 0) rearm_with(tokens_[token].delay);
      forget(token);  // a throwing callback spends its event, re-arm or not
      throw Boom{};
    }
    check();
    if (rearm) {
      tokens_[token].delay = rearm_delay;
      enqueue(token, {now_ + rearm_delay, seq_++});
    } else {
      forget(token);
    }
  }

  void tick(int group, int token) {
    ++member_fires_;
    last_group_ = group;
    EXPECT_EQ(tokens_[token].group, group);
    fired(token);
    // Members re-arm by themselves; the single-timer re-arm is refused.
    EXPECT_FALSE(sim_.reschedule_current_in(kPeriods[group]));
    bool cancelled = false;
    const std::int64_t act = draw(100);
    if (act < 40) {
      // Plain tick: re-armed one period after this deadline.
    } else if (act < 46) {
      sim_.cancel(tokens_[token].id);  // a verdict: suppresses the re-arm
      cancelled = true;
      ++self_cancels;
      if (act % 2 == 0) sim_.cancel(tokens_[token].id);  // twice: still benign
    } else if (act < 58) {
      cancel_pending(act < 54);  // often this ring's next member
    } else if (act < 70) {
      // A plain event due before the group's next member fires in between,
      // mid-drain.
      const std::vector<int> ring = members_of(group);
      const Time next = ring.empty() ? now_ + kPeriods[group]
                                     : tokens_[ring.front()].key.first;
      if (!ring.empty() && next > now_) ++mid_drain_plain;
      schedule_plain(true, now_ + (act % 2 == 0 ? 0.0 : 0.5 * (next - now_)),
                     draw_delay());
    } else if (act < 84) {
      arm(act < 78 ? group : static_cast<int>(draw(kGroups)));
    } else if (act < 87) {
      ++member_throws;
      forget(token);  // spent: a throwing tick does not re-arm
      throw Boom{};
    } else {
      schedule();
    }
    check();
    if (cancelled) {
      forget(token);
    } else {
      enqueue(token, {now_ + kPeriods[group], seq_++});
    }
  }

  void check() {
    EXPECT_EQ(sim_.now(), now_);
    EXPECT_EQ(sim_.pending(), queue_.size());
    EXPECT_EQ(sim_.next_event_time(),
              queue_.empty() ? std::numeric_limits<Time>::infinity()
                             : queue_.begin()->first.first);
    EXPECT_EQ(sim_.executed(), fires_);
    EXPECT_EQ(sim_.group_fires(), member_fires_);
  }

  util::Rng rng_;
  Simulator sim_;
  std::map<Key, int> queue_;     // the reference: pending (t, seq) -> token
  std::map<int, Token> tokens_;  // pending (or firing) events by token
  std::vector<EventId> stale_;   // ids of fired and cancelled events
  std::size_t population_[kGroups] = {0, 0, 0};  // pending members per group
  Time now_ = 0.0;
  Time bound_ = std::numeric_limits<Time>::infinity();  // of a running run_until
  std::uint64_t seq_ = 1;  // mirrors the engine's sequence counter
  std::uint64_t fires_ = 0;
  std::uint64_t member_fires_ = 0;
  int last_group_ = -1;  // the group of the latest member tick
  int next_token_ = 0;
};

void expect_groups_match_reference(std::uint64_t seed) {
  GroupEquivalence mix(seed);
  mix.run(10000);
  if (::testing::Test::HasFailure()) return;
  // The mix reached every path it exists to cover.
  EXPECT_GT(mix.group_fires, 0u);
  EXPECT_GT(mix.heap_fires, 0u);
  EXPECT_GT(mix.member_cancels[0], 0);
  EXPECT_GT(mix.member_cancels[1], 0);
  EXPECT_GT(mix.member_cancels[2], 0);
  EXPECT_GT(mix.self_cancels, 0);
  EXPECT_GT(mix.mid_drain_plain, 0);
  EXPECT_GT(mix.bound_mid_drain, 0);
  EXPECT_GT(mix.counted_member_fires, 0);
  EXPECT_GT(mix.member_throws, 0);
  EXPECT_GT(mix.resets_with_members, 0);
  // Rings start at 16 entries: growth, and wrap-around many times over.
  EXPECT_GT(mix.max_group, 64u);
  EXPECT_GT(mix.appends, 100 * mix.max_group);
}

TEST(SimulatorEdge, GroupsMatchReferenceQueueSeed1) {
  expect_groups_match_reference(1);
}

TEST(SimulatorEdge, GroupsMatchReferenceQueueSeed7919) {
  expect_groups_match_reference(7919);
}

// ------------------------------------------------------------- determinism
// Same-seed golden regression: run_once must produce these exact scalars.
// Any future engine must reproduce them bit for bit, because the
// determinism contract — equal-timestamp events fire in scheduling order,
// rng draw order unchanged — fixes every arithmetic operation of a run.
// Hexfloat literals make the comparison exact, not within-epsilon. The
// values were re-recorded when degree accounting started counting the
// parent link (children + parent <= limit), which legitimately shifts
// every tree shape; with all fault knobs at their zero defaults these
// runs draw nothing from the fault paths, so the scalars also pin the
// "failure injection off = bit-identical" contract.

TEST(SimulatorEdge, RunOnceGoldenTransitStubVdm) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = 48;
  cfg.link_loss_max = 0.02;
  cfg.seed = 7;
  const experiments::RunResult r = experiments::run_once(cfg);

  EXPECT_EQ(r.stress, 0x1.077b1816a823ap+1);
  EXPECT_EQ(r.stress_max, 0x1.b286bca1af287p+2);
  EXPECT_EQ(r.stretch, 0x1.8118085ef0284p+1);
  EXPECT_EQ(r.stretch_leaf, 0x1.c0bd695f7988fp+1);
  EXPECT_EQ(r.stretch_max, 0x1.92342dcc15c43p+2);
  EXPECT_EQ(r.stretch_min, 0x1p+0);
  EXPECT_EQ(r.hopcount, 0x1.f06bca1af286ap+2);
  EXPECT_EQ(r.hop_leaf, 0x1.25a1dd6ece8a7p+3);
  EXPECT_EQ(r.hop_max, 0x1.ad79435e50d79p+3);
  EXPECT_EQ(r.loss, 0x1.4b2d262f66da6p-2);
  EXPECT_EQ(r.overhead, 0x1.14e09323cd18bp-8);
  EXPECT_EQ(r.overhead_per_chunk, 0x1.26216a2c31954p-3);
  EXPECT_EQ(r.network_usage, 0x1.d75deab632bd4p+1);
  EXPECT_EQ(r.startup_avg, 0x1.363f23d3646f8p+1);
  EXPECT_EQ(r.startup_max, 0x1.82dcfd29f8c6cp+2);
  EXPECT_EQ(r.reconnect_avg, 0x1.9ca6b8c1fde1ep-1);
  EXPECT_EQ(r.reconnect_max, 0x1.27e0791b29ce9p+1);
  EXPECT_EQ(r.mst_ratio, 0x1.232ead7253f08p+1);
  EXPECT_EQ(r.final_members, 49u);
}

TEST(SimulatorEdge, RunOnceGoldenGeoVdmRefine) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kGeoUs;
  cfg.protocol = experiments::Proto::kVdmRefine;
  cfg.scenario.target_members = 32;
  cfg.seed = 11;
  const experiments::RunResult r = experiments::run_once(cfg);

  EXPECT_EQ(r.stress, 0x1p+0);
  EXPECT_EQ(r.stress_max, 0x1p+0);
  EXPECT_EQ(r.stretch, 0x1.2b7d4d1a81953p+0);
  EXPECT_EQ(r.stretch_leaf, 0x1.4aafce7c8acc5p+0);
  EXPECT_EQ(r.stretch_max, 0x1.f68eea3f52a76p+0);
  EXPECT_EQ(r.stretch_min, 0x1.63375ed88fe23p-1);
  EXPECT_EQ(r.hopcount, 0x1.b0a1af286bca2p+1);
  EXPECT_EQ(r.hop_leaf, 0x1.0ec065981c435p+2);
  EXPECT_EQ(r.hop_max, 0x1.a1af286bca1afp+2);
  EXPECT_EQ(r.loss, 0x1.cb1582266ap-14);
  EXPECT_EQ(r.overhead, 0x1.30bd58dcd8242p-4);
  EXPECT_EQ(r.overhead_per_chunk, 0x1.312ff76078b96p+1);
  EXPECT_EQ(r.network_usage, 0x1.ad0920c6b958p-3);
  EXPECT_EQ(r.startup_avg, 0x1.b13740ac3ed76p-3);
  EXPECT_EQ(r.startup_max, 0x1.1413ee0d8c058p-1);
  EXPECT_EQ(r.reconnect_avg, 0x1.87fac6e2dde79p-4);
  EXPECT_EQ(r.reconnect_max, 0x1.14bb96507597p-1);
  EXPECT_EQ(r.mst_ratio, 0x1.c6a58ba84e4c2p+0);
  EXPECT_EQ(r.final_members, 33u);
}

// Where a run's events fire from, pinned exactly: periodic groups carry
// only refinement ticks, so plain VDM fires nothing from a group; the
// failure detector's probes are counted, not fired, and its events (the
// end of each batch of sampled miss streaks, and verdicts) fire from the
// heap with everything else. Integers, so a fresh run and a warm arena
// replay must agree to the unit.
TEST(SimulatorEdge, RunOnceEventAndGroupFireCountsArePinned) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = 32;
  cfg.scenario.churn_rate = 0.10;
  cfg.scenario.crash_fraction = 1.0;
  cfg.session.faults.heartbeat_period = 1.0;
  cfg.session.faults.heartbeat_misses = 3;
  cfg.session.faults.heartbeat_timeout = 0.5;
  cfg.session.faults.lossy_control = true;
  cfg.session.faults.control_loss_extra = 0.01;
  cfg.seed = 7;
  const experiments::RunResult fresh = experiments::run_once(cfg);
  EXPECT_EQ(fresh.sim_events, 20920u);
  EXPECT_EQ(fresh.sim_group_fires, 0u);
  EXPECT_EQ(fresh.totals.heartbeat_ticks, 295674u);
  EXPECT_EQ(fresh.totals.refine_ticks, 0u);  // plain VDM: no refinement timers
  EXPECT_EQ(fresh.totals.verdicts_true, 49u);
  EXPECT_EQ(fresh.totals.verdicts_false, 1u);

  experiments::RunScratch scratch;
  for (int i = 0; i < 2; ++i) {
    const experiments::RunResult warm = experiments::run_once(cfg, scratch);
    EXPECT_EQ(warm.sim_events, fresh.sim_events);
    EXPECT_EQ(warm.sim_group_fires, fresh.sim_group_fires);
    EXPECT_EQ(warm.totals.heartbeat_ticks, fresh.totals.heartbeat_ticks);
    EXPECT_EQ(warm.totals.verdicts_true, fresh.totals.verdicts_true);
    EXPECT_EQ(warm.totals.verdicts_false, fresh.totals.verdicts_false);
  }
}

// Two engines in one process, interleaved, must not perturb each other
// (the slab and its rng-free heap are per-instance state).
TEST(SimulatorEdge, IndependentSimulatorsDoNotInterfere) {
  Simulator a;
  Simulator b;
  int fa = 0;
  int fb = 0;
  a.schedule_at(1.0, [&] { ++fa; });
  b.schedule_at(1.0, [&] { ++fb; });
  a.schedule_at(2.0, [&] { ++fa; });
  EXPECT_TRUE(a.step());
  EXPECT_TRUE(b.step());
  EXPECT_TRUE(a.step());
  EXPECT_EQ(fa, 2);
  EXPECT_EQ(fb, 1);
  EXPECT_FALSE(b.step());
}

}  // namespace
}  // namespace vdm::sim
