// Edge cases of the slab event engine (cancel semantics, slot reuse,
// in-callback re-entrancy, periodic timers against a reference queue) plus the
// cross-engine determinism regression:
// whole-run golden scalars that pin the bit-determinism contract across
// event-engine rewrites.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
  // A lone periodic timer (the chunk clock): one id across every re-arm,
  // stopped by cancelling that id from inside its own tick.
  Simulator s;
  int ticks = 0;
  EventId timer = kInvalidEvent;
  timer = s.schedule_every(1.0, [&] {
    if (++ticks == 3) s.cancel(timer);
  });
  s.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
  EXPECT_EQ(s.periodic_fires(), 3u);
  s.cancel(timer);  // stale after the self-stop: a no-op
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorEdge, GroupMemberStopsFromInsideOwnTick) {
  // Per-member timers (refinement ticks): timers of one period share a ring
  // and re-arm by themselves under stable ids until one is cancelled from
  // inside its own tick.
  Simulator s;
  std::vector<int> order;
  EventId first = kInvalidEvent;
  first = s.schedule_every(1.0, [&] {
    order.push_back(1);
    if (order.size() >= 5) s.cancel(first);
  });
  s.run_until(0.5);
  s.schedule_every(1.0, [&] { order.push_back(2); });
  s.run_until(4.0);
  // Timer 1 ticks at 1, 2, 3; timer 2 at 1.5, 2.5, 3.5. Timer 1's third
  // tick (the fifth overall) stops it.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_DOUBLE_EQ(s.next_event_time(), 4.5);
  EXPECT_EQ(s.periodic_fires(), 6u);
  s.cancel(first);  // stale after the self-stop: a no-op
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SimulatorEdge, PeriodicGroupRejectsABadPeriod) {
  Simulator s;
  const auto tick = [] {};
  EXPECT_THROW(s.schedule_every(0.0, tick), util::InvariantError);
  EXPECT_THROW(s.schedule_every(-1.0, tick), util::InvariantError);
  EXPECT_THROW(s.schedule_every(std::numeric_limits<Time>::quiet_NaN(), tick),
               util::InvariantError);
  EXPECT_THROW(s.schedule_every(std::numeric_limits<Time>::infinity(), tick),
               util::InvariantError);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorEdge, PeriodicTimerRejectsAPeriodThatRoundsAwayAtTheArm) {
  // 1 + 2^-60 == 1: the timer would tick at one instant forever.
  Simulator s;
  s.run_until(1.0);
  EXPECT_THROW(s.schedule_every(std::ldexp(1.0, -60), [] {}),
               util::InvariantError);
  EXPECT_EQ(s.pending(), 0u);
  // At t = 0 the same period moves the clock.
  Simulator fresh;
  int ticks = 0;
  fresh.schedule_every(std::ldexp(1.0, -60), [&] { ++ticks; });
  fresh.run(2);
  EXPECT_EQ(ticks, 2);
}

TEST(SimulatorEdge, PeriodicTimerRejectsAPeriodThatRoundsAwayAtARearm) {
  // Armed at 2 - 2^-52 with period 0.6 * 2^-52, the first deadline rounds
  // up to 2, but in [2, 4) the spacing doubles and 2 + 0.6 * 2^-52 rounds
  // back to 2: the re-arm would not move the clock.
  Simulator s;
  s.run_until(std::nextafter(2.0, 0.0));
  int ticks = 0;
  const EventId timer =
      s.schedule_every(0.6 * std::ldexp(1.0, -52), [&] { ++ticks; });
  int later = 0;
  s.schedule_at(3.0, [&] { ++later; });
  EXPECT_THROW(s.run_until(3.0), util::InvariantError);
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(s.now(), 2.0);
  // The timer is spent, and the engine runs on.
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(timer);  // stale: a no-op
  EXPECT_EQ(s.run_until(3.0), 1u);
  EXPECT_EQ(later, 1);
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

// ------------------------------------------------------- timer equivalence
// One-shots sit in the heap; periodic timers sit in the ring of their
// period, and the ring holds one heap entry that a drain takes off while it
// fires consecutive ticks. That must be invisible: a seeded mix of every
// queue operation runs against a reference queue ordered by (t, seq), and
// after each operation — and inside every callback — the firing order,
// pending(), next_event_time(), executed(), periodic_fires() and
// in_callback() must match it exactly.

struct Boom {};  // thrown by a callback; step(), run() and run_until() propagate it

class TimerEquivalence {
 public:
  explicit TimerEquivalence(std::uint64_t seed) : rng_(seed) {}

  /// Runs `ops` random operations, checking the engine after each one.
  void run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      operate();
      inside_ = false;
      check();
    }
  }

  // Coverage of the paths the mix is meant to reach.
  std::uint64_t periodic_fires = 0;
  std::uint64_t one_shot_fires = 0;
  int ring_cancels[3] = {0, 0, 0};  // head, middle, tail of a ring
  int self_cancels = 0;        // a tick cancelled its own timer
  int mid_drain_one_shots = 0;  // a tick scheduled a one-shot due before
                                // its ring's next tick
  int bound_mid_drain = 0;     // run_until stopped with a drained ring pending
  int counted_ticks = 0;       // ticks fired by step() or run(n)
  int tick_throws = 0;
  int resets_with_timers = 0;
  int shared_ring = 0;       // consecutive ticks of one ring, two owners
  int cross_ring_arms = 0;   // a tick armed a timer of another period
  int chained = 0;           // one-shots that scheduled their successor last
  std::size_t max_ring = 0;  // largest population of one ring
  std::uint64_t appends = 0;  // arms plus re-arms

 private:
  using Key = std::pair<Time, std::uint64_t>;
  static constexpr int kRings = 3;
  // An exact and an inexact binary fraction among the periods, so equal
  // deadlines (seq breaks ties) and rounded sums both occur.
  static constexpr Time kPeriods[kRings] = {1.0, 0.3, 0.125};
  struct Token {
    EventId id = kInvalidEvent;
    Key key;
    int ring = -1;      // -1: a one-shot
    int owner = 0;      // which of two callables a periodic timer runs
    Time delay = 0.0;   // a one-shot's delay, which its successor repeats
  };

  static constexpr Time kDelays[] = {0.0, 0.125, 0.25, 0.5, 0.75, 1.0,
                                     1.5, 2.0,   3.0,  0.3, 0.7,  1.1};
  Time draw_delay() {
    return kDelays[draw(static_cast<std::int64_t>(std::size(kDelays)))];
  }
  std::int64_t draw(std::int64_t n) { return rng_.uniform_int(0, n - 1); }

  void enqueue(int token, Key key) {
    Token& tok = tokens_[token];
    tok.key = key;
    queue_[key] = token;
    if (tok.ring >= 0) {
      ++appends;
      max_ring = std::max(max_ring, ++population_[tok.ring]);
    }
  }
  void dequeue(int token) {
    const Token& tok = tokens_[token];
    queue_.erase(tok.key);
    if (tok.ring >= 0) --population_[tok.ring];
  }

  /// Schedules a one-shot: at an absolute time through schedule_at, or
  /// `delay` from now through schedule_in.
  void schedule_one_shot(bool absolute, Time t, Time delay) {
    const int token = next_token_++;
    tokens_[token].delay = delay;
    tokens_[token].id =
        absolute ? sim_.schedule_at(t, [this, token] { fire_one_shot(token); })
                 : sim_.schedule_in(delay, [this, token] { fire_one_shot(token); });
    enqueue(token, {absolute ? t : now_ + delay, seq_++});
  }
  void schedule() {
    if (rng_.chance(0.5)) {
      // Coarse offsets collide with tick deadlines and each other.
      schedule_one_shot(true, now_ + 0.125 * static_cast<Time>(draw(17)),
                        draw_delay());
    } else {
      schedule_one_shot(false, 0.0, draw_delay());
    }
  }

  /// Arms a periodic timer on `ring`. Its owner picks one of two callables
  /// of different types: a ring is per period, not per callable.
  void arm(int ring) {
    const int token = next_token_++;
    Token& tok = tokens_[token];
    tok.ring = ring;
    tok.owner = static_cast<int>(draw(2));
    tok.id = tok.owner == 0
                 ? sim_.schedule_every(kPeriods[ring], [this, token] { tick(token); })
                 : sim_.schedule_every(kPeriods[ring], [this, token, ring] {
                     EXPECT_EQ(tokens_[token].ring, ring);
                     tick(token);
                   });
    enqueue(token, {now_ + kPeriods[ring], seq_++});
  }

  void forget(int token) {
    stale_.push_back(tokens_[token].id);
    if (stale_.size() > 64) stale_.erase(stale_.begin());
    tokens_.erase(token);
  }

  /// Pending timers of `ring` in (t, seq) order.
  std::vector<int> timers_of(int ring) const {
    std::vector<int> out;
    for (const auto& [key, token] : queue_) {
      if (tokens_.at(token).ring == ring) out.push_back(token);
    }
    return out;
  }

  /// Picks a pending token: the head, a middle timer or the tail of a
  /// random ring, else any.
  int pick_pending(bool by_position) {
    if (by_position) {
      const std::vector<int> ring = timers_of(static_cast<int>(draw(kRings)));
      if (ring.size() >= 3) {
        const int where = static_cast<int>(draw(3));
        ++ring_cancels[where];
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
      arm(static_cast<int>(draw(kRings)));
    } else if (op < 330) {
      // A burst: one ring outgrows its capacity several times over.
      const int ring = static_cast<int>(draw(kRings));
      for (int i = 0; i < 48; ++i) arm(ring);
    } else if (op < 450) {
      cancel_pending(op < 410);
    } else if (op < 470) {
      if (!stale_.empty()) {
        sim_.cancel(stale_[static_cast<std::size_t>(
            draw(static_cast<std::int64_t>(stale_.size())))]);
      }
    } else if (op < 880) {
      // step() and run(n): one tick counts as one event.
      const std::size_t n = op < 760 ? 1 : 1 + static_cast<std::size_t>(draw(5));
      const std::uint64_t fired_before = fires_;
      const std::uint64_t ticks_before = tick_fires_;
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
      counted_ticks += static_cast<int>(tick_fires_ - ticks_before);
    } else if (op < 997) {
      const Time until = now_ + rng_.uniform(0.0, 2.0);
      const std::uint64_t ticks_before = tick_fires_;
      bound_ = until;
      try {
        sim_.run_until(until);
        bound_ = std::numeric_limits<Time>::infinity();
        now_ = until;
        EXPECT_TRUE(queue_.empty() || queue_.begin()->first.first > until);
        if (tick_fires_ > ticks_before && last_ring_ >= 0 &&
            population_[last_ring_] > 0) {
          ++bound_mid_drain;
        }
      } catch (const Boom&) {
        bound_ = std::numeric_limits<Time>::infinity();
      }
    } else {
      periodic_fires += sim_.periodic_fires();
      one_shot_fires += sim_.executed() - sim_.periodic_fires();
      if (population_[0] + population_[1] + population_[2] > 0) ++resets_with_timers;
      sim_.reset();  // drops the rings, keeping their storage
      queue_.clear();
      tokens_.clear();
      stale_.clear();  // generations restart with the slab: not stale any more
      std::fill(std::begin(population_), std::end(population_), 0);
      now_ = 0.0;
      seq_ = 1;
      fires_ = 0;
      tick_fires_ = 0;
      last_ring_ = -1;
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
    inside_ = true;
    check();
  }

  void fire_one_shot(int token) {
    fired(token);
    last_ring_ = -1;
    const Time delay = tokens_[token].delay;
    // A timer whose delay changes between firings is a one-shot that
    // schedules its successor as its last act.
    const auto chain = [&](Time d) {
      ++chained;
      schedule_one_shot(false, 0.0, d);
    };
    const std::int64_t act = draw(100);
    if (act < 30) {
      chain(delay);  // the same delay: what schedule_every replaces
    } else if (act < 40) {
      chain(draw_delay());  // a changing delay, as a retry backoff has
    } else if (act < 45) {
      sim_.cancel(tokens_[token].id);  // the firing one-shot: benign
    } else if (act < 55) {
      cancel_pending(act < 51);
      if (act % 2 == 0) chain(delay);
    } else if (act < 65) {
      if (act < 60) {
        schedule();
      } else {
        arm(static_cast<int>(draw(kRings)));
      }
      if (act % 2 == 0) chain(delay);
    } else if (act < 68) {
      if (act % 2 == 0) chain(delay);  // scheduled before the throw: it stays
      forget(token);
      throw Boom{};
    }
    check();
    forget(token);
  }

  void tick(int token) {
    const int ring = tokens_[token].ring;
    ++tick_fires_;
    if (last_ring_ == ring && last_owner_ != tokens_[token].owner) ++shared_ring;
    last_ring_ = ring;
    last_owner_ = tokens_[token].owner;
    fired(token);
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
      cancel_pending(act < 54);  // often this ring's next timer
    } else if (act < 70) {
      // A one-shot due before the ring's next tick fires in between,
      // mid-drain.
      const std::vector<int> next_ticks = timers_of(ring);
      const Time next = next_ticks.empty() ? now_ + kPeriods[ring]
                                           : tokens_[next_ticks.front()].key.first;
      if (!next_ticks.empty() && next > now_) ++mid_drain_one_shots;
      schedule_one_shot(true, now_ + (act % 2 == 0 ? 0.0 : 0.5 * (next - now_)),
                        draw_delay());
    } else if (act < 84) {
      const int other = act < 78 ? ring : static_cast<int>(draw(kRings));
      if (other != ring) ++cross_ring_arms;
      arm(other);
    } else if (act < 87) {
      ++tick_throws;
      forget(token);  // spent: a throwing tick does not re-arm
      throw Boom{};
    } else {
      schedule();
    }
    check();
    if (cancelled) {
      forget(token);
    } else {
      enqueue(token, {now_ + kPeriods[ring], seq_++});
    }
  }

  void check() {
    EXPECT_EQ(sim_.now(), now_);
    EXPECT_EQ(sim_.pending(), queue_.size());
    EXPECT_EQ(sim_.next_event_time(),
              queue_.empty() ? std::numeric_limits<Time>::infinity()
                             : queue_.begin()->first.first);
    EXPECT_EQ(sim_.executed(), fires_);
    EXPECT_EQ(sim_.periodic_fires(), tick_fires_);
    EXPECT_EQ(sim_.in_callback(), inside_);
  }

  util::Rng rng_;
  Simulator sim_;
  std::map<Key, int> queue_;     // the reference: pending (t, seq) -> token
  std::map<int, Token> tokens_;  // pending (or firing) events by token
  std::vector<EventId> stale_;   // ids of fired and cancelled events
  std::size_t population_[kRings] = {0, 0, 0};  // pending timers per ring
  Time now_ = 0.0;
  Time bound_ = std::numeric_limits<Time>::infinity();  // of a running run_until
  std::uint64_t seq_ = 1;  // mirrors the engine's sequence counter
  std::uint64_t fires_ = 0;
  std::uint64_t tick_fires_ = 0;
  bool inside_ = false;  // a callback is running
  int last_ring_ = -1;   // the ring of the latest event, -1 after a one-shot
  int last_owner_ = -1;
  int next_token_ = 0;
};

void expect_timers_match_reference(std::uint64_t seed) {
  TimerEquivalence mix(seed);
  mix.run(10000);
  if (::testing::Test::HasFailure()) return;
  // The mix reached every path it exists to cover.
  EXPECT_GT(mix.periodic_fires, 0u);
  EXPECT_GT(mix.one_shot_fires, 0u);
  EXPECT_GT(mix.ring_cancels[0], 0);
  EXPECT_GT(mix.ring_cancels[1], 0);
  EXPECT_GT(mix.ring_cancels[2], 0);
  EXPECT_GT(mix.self_cancels, 0);
  EXPECT_GT(mix.mid_drain_one_shots, 0);
  EXPECT_GT(mix.bound_mid_drain, 0);
  EXPECT_GT(mix.counted_ticks, 0);
  EXPECT_GT(mix.tick_throws, 0);
  EXPECT_GT(mix.resets_with_timers, 0);
  EXPECT_GT(mix.shared_ring, 0);
  EXPECT_GT(mix.cross_ring_arms, 0);
  EXPECT_GT(mix.chained, 0);
  // Rings start at 16 entries: growth, and wrap-around many times over.
  EXPECT_GT(mix.max_ring, 64u);
  EXPECT_GT(mix.appends, 100 * mix.max_ring);
}

TEST(SimulatorEdge, GroupsMatchReferenceQueueSeed1) {
  expect_timers_match_reference(1);
}

TEST(SimulatorEdge, GroupsMatchReferenceQueueSeed7919) {
  expect_timers_match_reference(7919);
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
// "failure injection off = bit-identical" contract. The transit-stub run's
// delay-derived scalars (stretch*, network_usage, startup_*, reconnect_*,
// mst_ratio) were re-recorded once more when link delays moved onto the
// 2^-30 s grid; its tree and every count stayed as they were.

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
  EXPECT_EQ(r.stretch, 0x1.8118081910453p+1);
  EXPECT_EQ(r.stretch_leaf, 0x1.c0bd691229a16p+1);
  EXPECT_EQ(r.stretch_max, 0x1.92342d409e86p+2);
  EXPECT_EQ(r.stretch_min, 0x1p+0);
  EXPECT_EQ(r.hopcount, 0x1.f06bca1af286ap+2);
  EXPECT_EQ(r.hop_leaf, 0x1.25a1dd6ece8a7p+3);
  EXPECT_EQ(r.hop_max, 0x1.ad79435e50d79p+3);
  EXPECT_EQ(r.loss, 0x1.4b2d262f66da6p-2);
  EXPECT_EQ(r.overhead, 0x1.14e09323cd18bp-8);
  EXPECT_EQ(r.overhead_per_chunk, 0x1.26216a2c31954p-3);
  EXPECT_EQ(r.network_usage, 0x1.d75dea9cp+1);
  EXPECT_EQ(r.startup_avg, 0x1.363f23d53594dp+1);
  EXPECT_EQ(r.startup_max, 0x1.82dcfd1p+2);
  EXPECT_EQ(r.reconnect_avg, 0x1.9ca6b8bd55555p-1);
  EXPECT_EQ(r.reconnect_max, 0x1.27e0792p+1);
  EXPECT_EQ(r.mst_ratio, 0x1.232ead83d136ep+1);
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

// Where a run's events fire from, pinned exactly: the chunk clock is a
// periodic timer (20,000 ticks at 2 chunks/s over the 10,000 s run), and
// plain VDM arms no refinement timers; the failure detector's probes are
// counted, not fired, and its events (the end of each batch of sampled miss
// streaks, and verdicts) are one-shots with everything else. Integers, so a
// fresh run and a warm arena replay must agree to the unit.
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
  EXPECT_EQ(fresh.sim_periodic_fires, 20000u);
  EXPECT_EQ(fresh.totals.heartbeat_ticks, 295674u);
  EXPECT_EQ(fresh.totals.refine_ticks, 0u);  // plain VDM: no refinement timers
  EXPECT_EQ(fresh.totals.verdicts_true, 49u);
  EXPECT_EQ(fresh.totals.verdicts_false, 1u);

  experiments::RunScratch scratch;
  for (int i = 0; i < 2; ++i) {
    const experiments::RunResult warm = experiments::run_once(cfg, scratch);
    EXPECT_EQ(warm.sim_events, fresh.sim_events);
    EXPECT_EQ(warm.sim_periodic_fires, fresh.sim_periodic_fires);
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
