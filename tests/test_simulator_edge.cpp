// Edge cases of the slab event engine (cancel semantics, slot reuse,
// in-callback re-entrancy, re-arm lanes against a reference queue) plus the
// cross-engine determinism regression:
// whole-run golden scalars that pin the bit-determinism contract across
// event-engine rewrites.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "experiments/runner.hpp"
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
  // The session's timer idiom (stream clock, refinement and heartbeat
  // slabs): one id re-armed in place every tick, stopped by cancelling that
  // id from inside its own tick — as a heartbeat verdict does.
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

// -------------------------------------------------------- lane equivalence
// Re-arms ride FIFO lanes keyed by delay; only lane heads sit in the heap.
// That must be invisible: a seeded mix of every queue operation runs against
// a reference queue ordered by (t, seq), and after each operation the firing
// order, pending() and next_event_time() must match it exactly.

struct Boom {};  // thrown by a callback; step() and run_until() propagate it

class LaneEquivalence {
 public:
  explicit LaneEquivalence(std::uint64_t seed) : rng_(seed) {}

  /// Runs `ops` random operations, checking the engine after each one.
  void run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      operate();
      check();
    }
  }

  // Coverage of the paths the mix is meant to reach.
  std::uint64_t lane_fires = 0;
  std::uint64_t heap_fires = 0;
  int lane_cancels[3] = {0, 0, 0};  // head, middle, tail of a delay group
  int throws = 0;
  int resets = 0;

 private:
  using Key = std::pair<Time, std::uint64_t>;
  struct Token {
    EventId id = kInvalidEvent;
    Key key;
    Time delay = 0.0;     // the period a plain re-arm repeats
    bool rearmed = false;  // queued by a re-arm, not by schedule_*
  };

  // Twelve delays: more than the engine has lanes, with exact binary
  // fractions (equal deadlines, so seq breaks ties) and inexact ones.
  static constexpr Time kDelays[] = {0.0, 0.125, 0.25, 0.5,  0.75, 1.0,
                                     1.5, 2.0,   3.0,  0.3,  0.7,  1.1};

  // Skewed like a session's timers: most events share two periods, which
  // grow long lanes, and the rest spread over all twelve delays.
  Time draw_delay() {
    const std::int64_t r = draw(10);
    if (r < 4) return 1.0;
    if (r < 6) return 0.3;
    return kDelays[draw(static_cast<std::int64_t>(std::size(kDelays)))];
  }
  std::int64_t draw(std::int64_t n) { return rng_.uniform_int(0, n - 1); }

  /// Schedules a fresh event whose plain re-arm repeats `delay`: at `t`
  /// through schedule_at, or (t == kRelative) `delay` from now through
  /// schedule_in.
  static constexpr Time kRelative = -1.0;
  void add(Time t, Time delay) {
    const int token = next_token_++;
    Token& tok = tokens_[token];
    tok.key = {t == kRelative ? now_ + delay : t, seq_++};
    tok.delay = delay;
    tok.id = t == kRelative
                 ? sim_.schedule_in(delay, [this, token] { fire(token); })
                 : sim_.schedule_at(t, [this, token] { fire(token); });
    queue_[tok.key] = token;
  }

  void schedule() {
    if (rng_.chance(0.5)) {
      // Coarse offsets collide with lane deadlines and each other.
      const Time t = now_ + 0.125 * static_cast<Time>(draw(17));
      add(t, draw_delay());
    } else {
      add(kRelative, draw_delay());
    }
  }

  void forget(int token) {
    stale_.push_back(tokens_[token].id);
    if (stale_.size() > 64) stale_.erase(stale_.begin());
    tokens_.erase(token);
  }

  /// Picks a pending token: the head, a middle member or the tail, by
  /// (t, seq), of the re-armed events sharing a random delay, else any.
  int pick_pending(bool by_position) {
    if (by_position) {
      const Time d = draw_delay();
      std::vector<int> group;
      for (const auto& [key, token] : queue_) {
        const Token& tok = tokens_[token];
        if (tok.rearmed && tok.delay == d) group.push_back(token);
      }
      if (group.size() >= 3) {
        const int where = static_cast<int>(draw(3));
        ++lane_cancels[where];
        const std::size_t at =
            where == 0 ? 0
            : where == 2
                ? group.size() - 1
                : 1 + static_cast<std::size_t>(draw(
                          static_cast<std::int64_t>(group.size()) - 2));
        return group[at];
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
    queue_.erase(tokens_[token].key);
    forget(token);
  }

  void operate() {
    const std::int64_t op = queue_.size() < 24 ? 0 : draw(1000);
    if (op < 300) {
      schedule();
    } else if (op < 420) {
      cancel_pending(op < 380);
    } else if (op < 440) {
      if (!stale_.empty()) {
        sim_.cancel(stale_[static_cast<std::size_t>(
            draw(static_cast<std::int64_t>(stale_.size())))]);
      }
    } else if (op < 920) {
      const bool had_pending = !queue_.empty();
      try {
        EXPECT_EQ(sim_.step(), had_pending);
      } catch (const Boom&) {
      }
    } else if (op < 997) {
      const Time until = now_ + rng_.uniform(0.0, 2.0);
      try {
        sim_.run_until(until);
        now_ = until;
        EXPECT_TRUE(queue_.empty() || queue_.begin()->first.first > until);
      } catch (const Boom&) {
      }
    } else {
      lane_fires += sim_.lane_fires();
      heap_fires += sim_.executed() - sim_.lane_fires();
      sim_.reset();
      ++resets;
      queue_.clear();
      tokens_.clear();
      stale_.clear();  // generations restart with the slab: not stale any more
      now_ = 0.0;
      seq_ = 1;
      fires_ = 0;
    }
  }

  /// Every callback: checks it is the reference's earliest event, then acts.
  void fire(int token) {
    ASSERT_FALSE(queue_.empty());
    const auto first = queue_.begin();
    EXPECT_EQ(first->second, token) << "fired out of (t, seq) order";
    EXPECT_EQ(sim_.now(), first->first.first);
    now_ = first->first.first;
    queue_.erase(first);
    ++fires_;
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
      rearm_with(tokens_[token].delay);  // the periodic-timer idiom
    } else if (act < 50) {
      rearm_with(draw_delay());
      if (act < 40) rearm_with(draw_delay());  // the last call wins
    } else if (act < 56) {
      rearm_with(tokens_[token].delay);
      sim_.cancel(self);  // a verdict inside the tick: suppresses the re-arm
      cancelled = true;
      rearm = false;
    } else if (act < 60) {
      sim_.cancel(self);
      cancelled = true;
      rearm_with(tokens_[token].delay);  // refused
    } else if (act < 68) {
      cancel_pending(act < 64);
      if (act % 2 == 0) rearm_with(tokens_[token].delay);
    } else if (act < 76) {
      // The re-arm takes its seq after everything the callback scheduled.
      if (act % 2 == 0) rearm_with(tokens_[token].delay);
      schedule();
    } else if (act < 79) {
      if (act % 2 == 0) rearm_with(tokens_[token].delay);
      ++throws;
      forget(token);  // a throwing callback spends its event, re-arm or not
      throw Boom{};
    }
    if (rearm) {
      Token& tok = tokens_[token];
      tok.key = {now_ + rearm_delay, seq_++};
      tok.delay = rearm_delay;
      tok.rearmed = true;
      queue_[tok.key] = token;
    } else {
      forget(token);
    }
  }

  void check() {
    EXPECT_EQ(sim_.now(), now_);
    EXPECT_EQ(sim_.pending(), queue_.size());
    EXPECT_EQ(sim_.next_event_time(),
              queue_.empty() ? std::numeric_limits<Time>::infinity()
                             : queue_.begin()->first.first);
    EXPECT_EQ(sim_.executed(), fires_);
    EXPECT_LE(sim_.lane_fires(), sim_.executed());
  }

  util::Rng rng_;
  Simulator sim_;
  std::map<Key, int> queue_;     // the reference: pending (t, seq) -> token
  std::map<int, Token> tokens_;  // pending (or firing) events by token
  std::vector<EventId> stale_;   // ids of fired and cancelled events
  Time now_ = 0.0;
  std::uint64_t seq_ = 1;  // mirrors the engine's sequence counter
  std::uint64_t fires_ = 0;
  int next_token_ = 0;
};

void expect_lanes_match_reference(std::uint64_t seed) {
  LaneEquivalence mix(seed);
  mix.run(10000);
  if (::testing::Test::HasFailure()) return;
  // The mix reached every path it exists to cover.
  EXPECT_GT(mix.lane_fires, 0u);
  EXPECT_GT(mix.heap_fires, 0u);
  EXPECT_GT(mix.lane_cancels[0], 0);
  EXPECT_GT(mix.lane_cancels[1], 0);
  EXPECT_GT(mix.lane_cancels[2], 0);
  EXPECT_GT(mix.throws, 0);
  EXPECT_GT(mix.resets, 0);
}

TEST(SimulatorEdge, LanesMatchReferenceQueueSeed1) {
  expect_lanes_match_reference(1);
}

TEST(SimulatorEdge, LanesMatchReferenceQueueSeed7919) {
  expect_lanes_match_reference(7919);
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

// Where a run's events fire from, pinned exactly: every member's heartbeat
// tick re-arms with the same 1 s period, so after its first tick it fires
// from that period's lane. Integers, so a fresh run and a warm arena replay
// must agree to the unit.
TEST(SimulatorEdge, RunOnceEventAndLaneFireCountsArePinned) {
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
  EXPECT_EQ(fresh.sim_events, 315892u);
  EXPECT_EQ(fresh.sim_lane_fires, 315243u);

  experiments::RunScratch scratch;
  for (int i = 0; i < 2; ++i) {
    const experiments::RunResult warm = experiments::run_once(cfg, scratch);
    EXPECT_EQ(warm.sim_events, fresh.sim_events);
    EXPECT_EQ(warm.sim_lane_fires, fresh.sim_lane_fires);
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
