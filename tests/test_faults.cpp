// Crash-failure injection and recovery: Session::crash, the heartbeat
// failure detector, the lossy control plane with retry/backoff, and the
// determinism contract that all-zero fault knobs reproduce fault-free runs
// bit for bit.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/vdm_protocol.hpp"
#include "experiments/runner.hpp"
#include "helpers.hpp"
#include "util/require.hpp"
#include "walk_golden_configs.hpp"

namespace vdm::overlay {
namespace {

using testutil::Harness;
using testutil::line_underlay;

/// Harness variant with explicit fault knobs (and a slower chunk rate so
/// chunk counts stay easy to reason about).
struct FaultHarness {
  sim::Simulator sim;
  net::MatrixUnderlay underlay;
  DelayMetric metric;
  core::VdmProtocol protocol;
  Session session;

  FaultHarness(net::MatrixUnderlay u, const FaultParams& faults,
               double chunk_rate = 1.0, std::uint64_t seed = 1)
      : underlay(std::move(u)), metric(0.0),
        session(sim, underlay, protocol, metric,
                make_params(faults, chunk_rate), util::Rng(seed)) {
    session.start();
  }

  static SessionParams make_params(const FaultParams& faults, double chunk_rate) {
    SessionParams sp;
    sp.source = 0;
    sp.source_degree_limit = 8;
    sp.chunk_rate = chunk_rate;
    sp.paranoid_checks = true;
    sp.faults = faults;
    return sp;
  }

  net::HostId parent(net::HostId h) const { return session.tree().member(h).parent; }
};

TEST(Crash, WithoutHeartbeatReconnectsInstantly) {
  // heartbeat_period == 0 models idealized instant detection: the orphan
  // rejoins within the crash event, from its grandparent, with zero
  // detection latency recorded.
  FaultHarness h(line_underlay({0.0, 10.0, 20.0}), FaultParams{});
  h.session.join(1, 8);
  h.session.join(2, 8);
  ASSERT_EQ(h.parent(2), 1u);

  h.session.crash(1);
  EXPECT_EQ(h.parent(2), 0u);  // reconnected from grandparent immediately
  EXPECT_EQ(h.session.totals().crashes, 1u);
  EXPECT_EQ(h.session.totals().reconnects_completed, 1u);
  std::vector<TimingRecord> recs;
  h.session.drain_reconnect_records(recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].host, 2u);
  EXPECT_DOUBLE_EQ(recs[0].detection, 0.0);
  EXPECT_GT(recs[0].duration, 0.0);
  EXPECT_NO_THROW(h.session.tree().validate());
}

TEST(Crash, RejectsSourceAndDeadMembers) {
  FaultHarness h(line_underlay({0.0, 10.0}), FaultParams{});
  h.session.join(1, 8);
  EXPECT_THROW(h.session.crash(0), util::InvariantError);  // the source
  h.session.crash(1);
  EXPECT_THROW(h.session.crash(1), util::InvariantError);  // already gone
}

TEST(Crash, PaysNoNotificationMessages) {
  // A graceful leave notifies parent and children; a crash sends nothing.
  const auto build = [] {
    auto h = std::make_unique<FaultHarness>(line_underlay({0.0, 10.0, 20.0}),
                                            FaultParams{});
    h->session.join(1, 8);
    h->session.join(2, 8);
    return h;
  };
  auto a = build();
  const std::uint64_t a_before = a->session.totals().control_messages;
  a->session.leave(1);
  auto b = build();
  const std::uint64_t b_before = b->session.totals().control_messages;
  b->session.crash(1);
  // Same reconnection work for the orphan, minus the leave notices.
  EXPECT_LT(b->session.totals().control_messages - b_before,
            a->session.totals().control_messages - a_before);
}

TEST(Heartbeat, DetectsCrashAfterMissStreakExactly) {
  // Tiny RTTs keep the rejoin handshake well under one heartbeat period so
  // the timeline stays exact: probes from t=1 every 1 s answered until the
  // parent crashes at t=4.25; probes at 5, 6, 7 go unanswered; the verdict
  // lands heartbeat_timeout=0.5 after the third miss, at t=7.5.
  FaultParams f;
  f.heartbeat_period = 1.0;
  f.heartbeat_misses = 3;
  f.heartbeat_timeout = 0.5;
  FaultHarness h(line_underlay({0.0, 0.06, 0.1}), f);
  h.session.join(1, 8);
  h.session.join(2, 8);
  ASSERT_EQ(h.parent(2), 1u);

  h.sim.schedule_at(4.25, [&] { h.session.crash(1); });
  h.sim.run_until(4.26);
  // Detection pending: the orphan is detached, invisible to the flood.
  EXPECT_EQ(h.parent(2), net::kInvalidHost);
  EXPECT_FALSE(h.session.tree().is_ancestor(0, 2));

  h.sim.run_until(10.0);
  EXPECT_EQ(h.parent(2), 0u);  // rejoined from grandparent
  std::vector<TimingRecord> recs;
  h.session.drain_reconnect_records(recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].host, 2u);
  EXPECT_DOUBLE_EQ(recs[0].at, 7.5);
  EXPECT_DOUBLE_EQ(recs[0].detection, 7.5 - 4.25);
  EXPECT_GT(recs[0].duration, 0.0);
  EXPECT_NO_THROW(h.session.tree().validate());
}

TEST(Heartbeat, RecoveredStreakResetsTheDetector) {
  // Misses below the threshold must not accumulate across answered probes;
  // with a lossless control plane a live parent is never declared dead.
  FaultParams f;
  f.heartbeat_period = 1.0;
  f.heartbeat_misses = 2;
  FaultHarness h(line_underlay({0.0, 0.06, 0.1}), f);
  h.session.join(1, 8);
  h.session.join(2, 8);
  h.sim.run_until(50.0);
  EXPECT_EQ(h.parent(2), 1u);
  EXPECT_EQ(h.session.totals().reconnects_completed, 0u);
}

TEST(Heartbeat, FalsePositiveDetachesAndRejoins) {
  // control_loss_extra = 1 drops every probe (chance(1) draws nothing, so
  // the run stays deterministic): node 2's streak starts at its first probe
  // (t=1), reaches 3 misses at t=3, and the false verdict lands at t=3.5.
  // The parent is alive — the node acts on the verdict anyway, detaching
  // and rejoining in the same event; detection latency is measured from
  // the first miss.
  FaultParams f;
  f.heartbeat_period = 1.0;
  f.heartbeat_misses = 3;
  f.heartbeat_timeout = 0.5;
  f.lossy_control = true;
  f.control_loss_extra = 1.0;
  f.retry.max_retries = 1;
  FaultHarness h(line_underlay({0.0, 0.06, 0.1}), f);
  h.session.join(1, 8);
  h.session.join(2, 8);
  ASSERT_EQ(h.parent(2), 1u);

  h.sim.run_until(3.75);
  std::vector<TimingRecord> recs;
  h.session.drain_reconnect_records(recs);
  ASSERT_GE(recs.size(), 1u);
  EXPECT_EQ(recs[0].at, 3.5);
  EXPECT_DOUBLE_EQ(recs[0].detection, 3.5 - 1.0);
  // Still in the tree: the rejoin happened within the detection event.
  EXPECT_TRUE(h.session.tree().is_ancestor(0, 2));
  EXPECT_NO_THROW(h.session.tree().validate());
}

TEST(LossyControl, ChargesRetriesWithExponentialBackoff) {
  // Every exchange loses both attempts (chance(1), no draws) and exhausts
  // max_retries = 2: each of the join's three round trips costs the base
  // RTT (10) plus 0.25 + 0.5 of backoff wait, and triple the messages.
  FaultParams f;
  f.lossy_control = true;
  f.control_loss_extra = 1.0;
  f.retry.timeout = 0.25;
  f.retry.backoff_factor = 2.0;
  f.retry.timeout_max = 4.0;
  f.retry.max_retries = 2;
  FaultHarness h(line_underlay({0.0, 10.0}), f);
  const TimingRecord rec = h.session.join(1, 4);
  EXPECT_EQ(rec.messages, 18);                 // 3 exchanges x 2 msgs x 3 sends
  EXPECT_DOUBLE_EQ(rec.duration, 3 * (10.0 + 0.75));
}

TEST(LossyControl, BackoffIsCappedAtRetryTimeoutMax) {
  FaultParams f;
  f.lossy_control = true;
  f.control_loss_extra = 1.0;
  f.retry.timeout = 1.0;
  f.retry.backoff_factor = 2.0;
  f.retry.timeout_max = 2.0;
  f.retry.max_retries = 4;  // waits 1 + 2 + 2 + 2 (capped), not 1 + 2 + 4 + 8
  FaultHarness h(line_underlay({0.0, 10.0}), f);
  const TimingRecord rec = h.session.join(1, 4);
  EXPECT_DOUBLE_EQ(rec.duration, 3 * (10.0 + 7.0));
}

TEST(LossyControl, RejectsMalformedRetrySettings) {
  // With lossy control on, a negative or non-finite cap, a backoff factor
  // that is not finite and positive, or a negative retry budget would turn
  // into negative or non-finite times; the constructor names the field.
  // The same values are inert (and accepted) with lossy control off.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* field;
    void (*set)(FaultParams&, double);
    double value;
  };
  const auto cap = [](FaultParams& f, double v) { f.retry.timeout_max = v; };
  const auto backoff = [](FaultParams& f, double v) { f.retry.backoff_factor = v; };
  const auto retries = [](FaultParams& f, double v) {
    f.retry.max_retries = static_cast<int>(v);
  };
  for (const Bad& bad : {Bad{"retry_timeout_max", cap, -1.0},
                         Bad{"retry_timeout_max", cap, nan},
                         Bad{"retry_timeout_max", cap, inf},
                         Bad{"backoff_factor", backoff, 0.0},
                         Bad{"backoff_factor", backoff, -2.0},
                         Bad{"backoff_factor", backoff, nan},
                         Bad{"backoff_factor", backoff, inf},
                         Bad{"max_retries", retries, -1.0}}) {
    FaultParams f;
    bad.set(f, bad.value);
    EXPECT_NO_THROW(FaultHarness(line_underlay({0.0, 10.0}), f))
        << bad.field << " = " << bad.value << " with lossy control off";
    f.lossy_control = true;
    f.control_loss_extra = 0.1;
    try {
      FaultHarness h(line_underlay({0.0, 10.0}), f);
      ADD_FAILURE() << bad.field << " = " << bad.value << " was accepted";
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find(bad.field), std::string::npos)
          << e.what();
    }
  }
}

TEST(LossyControl, ZeroExtraLossOnLosslessPathsDrawsNothing) {
  // lossy_control on, but effective p == 0: elapsed/messages and the whole
  // tree must be identical to the knob-off run (Rng::chance(0) contract).
  const auto run = [](bool lossy) {
    FaultParams f;
    f.lossy_control = lossy;
    FaultHarness h(line_underlay({0.0, 10.0, 20.0, 5.0}), f);
    std::vector<TimingRecord> recs;
    for (net::HostId n = 1; n <= 3; ++n) recs.push_back(h.session.join(n, 4));
    return recs;
  };
  const auto a = run(false);
  const auto b = run(true);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].messages, b[i].messages);
    EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
  }
}

TEST(Crash, OrphanSubtreeCountsMissedChunksDuringOutage) {
  // Chunks flow at 1/s from t=1. Parent crashes at t=4.25; the orphan's
  // verdict lands at t=7.5 (3 misses + 0.5 timeout), so the chunks at
  // t=5, 6, 7 are expected but undeliverable — exactly 3 lost chunks.
  // (RTTs are tiny so join/rejoin handshake outages stay under the gaps
  // between chunk emissions.)
  FaultParams f;
  f.heartbeat_period = 1.0;
  f.heartbeat_misses = 3;
  f.heartbeat_timeout = 0.5;
  FaultHarness h(line_underlay({0.0, 0.06, 0.1}), f, /*chunk_rate=*/1.0);
  h.session.join(1, 8);
  h.session.join(2, 8);
  ASSERT_EQ(h.parent(2), 1u);

  h.sim.schedule_at(4.25, [&] { h.session.crash(1); });
  h.sim.run_until(10.4);  // chunks at 1..10; rejoin done by 8
  h.session.stop();
  const Session::Counters& t = h.session.totals();
  EXPECT_EQ(t.chunks_expected - t.chunks_delivered, 3u);
  EXPECT_EQ(h.session.totals().crashes, 1u);
}

TEST(Crash, OrphanNeverRejoinsUnderADetachedGrandparent) {
  // A crash orphan's grandparent can itself be a crash orphan still waiting
  // for its verdict. Detached, it reports the slot its own uplink will
  // retake as free; an orphan that rejoined there left it one link over its
  // degree limit once it reattached. These seeds of the smoke-size flash
  // shape with crash churn hit that case: with the attached-grandparent
  // check in Session::reconnect_start removed, each fails its paranoid
  // tree validation (the first three of seeds 1-150 that do).
  for (const std::uint64_t seed : {23u, 34u, 52u}) {
    experiments::RunConfig cfg = testutil::flash_heartbeat_config(seed);
    cfg.scenario.crash_fraction = 1.0;
    cfg.session.paranoid_checks = true;
    experiments::RunResult r;
    EXPECT_NO_THROW(r = experiments::run_once(cfg)) << "seed " << seed;
    EXPECT_GT(r.detection_avg, 0.0) << "seed " << seed;
  }
}

TEST(Faults, InertKnobsDoNotPerturbRunOnce) {
  // With heartbeat_period == 0 and lossy_control == false every other
  // fault knob is dead configuration: the full experiment pipeline must
  // produce bit-identical scalars whatever their values.
  experiments::RunConfig base;
  base.substrate = experiments::Substrate::kTransitStub;
  base.protocol = experiments::Proto::kVdm;
  base.scenario.target_members = 32;
  base.seed = 5;

  experiments::RunConfig tweaked = base;
  tweaked.session.faults.heartbeat_misses = 7;
  tweaked.session.faults.heartbeat_timeout = 9.0;
  tweaked.session.faults.control_loss_extra = 0.5;  // inert: lossy_control off
  tweaked.session.faults.retry.timeout = 3.0;
  tweaked.session.faults.retry.max_retries = 1;

  const experiments::RunResult a = experiments::run_once(base);
  const experiments::RunResult b = experiments::run_once(tweaked);
  EXPECT_EQ(a.stretch, b.stretch);
  EXPECT_EQ(a.stress, b.stress);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.overhead, b.overhead);
  EXPECT_EQ(a.startup_avg, b.startup_avg);
  EXPECT_EQ(a.reconnect_avg, b.reconnect_avg);
  EXPECT_EQ(a.detection_avg, 0.0);
  EXPECT_EQ(b.detection_avg, 0.0);
}

TEST(Faults, CrashChurnRunOnceReportsDetectionAndOutage) {
  // End-to-end: scenario-driven crashes with heartbeats and a lossy control
  // plane produce separate detection and outage statistics, and the outage
  // always includes the detection that preceded it.
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = 32;
  cfg.scenario.join_phase = 200.0;
  cfg.scenario.total_time = 2000.0;
  cfg.scenario.churn_interval = 100.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.10;
  cfg.scenario.crash_fraction = 1.0;  // every departure is a crash
  cfg.session.faults.heartbeat_period = 1.0;
  cfg.session.faults.heartbeat_misses = 3;
  cfg.session.faults.heartbeat_timeout = 0.5;
  cfg.session.faults.lossy_control = true;
  cfg.session.faults.control_loss_extra = 0.01;
  cfg.seed = 3;
  const experiments::RunResult r = experiments::run_once(cfg);
  EXPECT_GT(r.detection_avg, 0.0);
  EXPECT_GE(r.outage_avg, r.detection_avg);
  EXPECT_GE(r.outage_max, r.detection_max);
  // Crash churn with delayed detection must show up as data loss.
  EXPECT_GT(r.loss, 0.0);
}

}  // namespace
}  // namespace vdm::overlay
