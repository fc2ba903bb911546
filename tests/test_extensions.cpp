// Tests for the paper's optional / future-work features: HMTP's
// foster-child quick start (§2.4.7), the playout buffer that absorbs
// reconnection jitter (§5.4.3), and the cached measurement service (§6.2).

#include <gtest/gtest.h>

#include <memory>

#include "baselines/hmtp_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "helpers.hpp"
#include "overlay/metric.hpp"
#include "util/require.hpp"

namespace vdm {
namespace {

using testutil::line_underlay;

// ------------------------------------------------------------ foster child

TEST(FosterChild, StartupIsOneHandshake) {
  baselines::HmtpConfig cfg;
  cfg.foster_child = true;
  baselines::HmtpProtocol hmtp(cfg);
  testutil::Harness h(line_underlay({0.0, 10.0, 12.0}), hmtp);
  h.join(1);
  const overlay::TimingRecord rec = h.session.join(2, 4);
  // Probe + foster handshake with the root: rtt(2,0)=12 each -> 24, far
  // below the full search (which also walks to node 1).
  EXPECT_DOUBLE_EQ(rec.duration, 24.0);
  EXPECT_GT(rec.messages, 4);  // ... but the search messages are still paid
}

TEST(FosterChild, StillEndsAtTheProperParent) {
  baselines::HmtpConfig cfg;
  cfg.foster_child = true;
  baselines::HmtpProtocol hmtp(cfg);
  testutil::Harness h(line_underlay({0.0, 10.0, 12.0}), hmtp);
  h.join(1);
  h.join(2);  // closest member is node 1 -> foster at root, then move
  EXPECT_EQ(h.parent(2), 1u);
  EXPECT_NO_THROW(h.session.tree().validate());
}

TEST(FosterChild, FasterStartupThanPlainJoin) {
  auto startup = [](bool foster) {
    baselines::HmtpConfig cfg;
    cfg.foster_child = foster;
    baselines::HmtpProtocol hmtp(cfg);
    testutil::Harness h(line_underlay({0.0, 10.0, 20.0, 30.0, 31.0}), hmtp);
    for (net::HostId n = 1; n <= 3; ++n) h.join(n);
    return h.session.join(4, 4).duration;
  };
  EXPECT_LT(startup(true), startup(false));
}

TEST(FosterChild, SaturatedRootFallsBackToPlainJoin) {
  baselines::HmtpConfig cfg;
  cfg.foster_child = true;
  baselines::HmtpProtocol hmtp(cfg);
  testutil::Harness h(line_underlay({0.0, 10.0, 12.0}), hmtp, /*source_degree=*/1);
  h.join(1);  // root now full
  EXPECT_EQ(h.join(2), 1u);  // normal search placed it under node 1
  EXPECT_NO_THROW(h.session.tree().validate());
}

// --------------------------------------------------------------- buffering

double run_loss_with_buffer(double buffer_seconds) {
  sim::Simulator simulator;
  net::MatrixUnderlay u = line_underlay({0.0, 1.0, 2.0});
  core::VdmProtocol vdm;
  overlay::DelayMetric metric;
  overlay::SessionParams sp;
  sp.source = 0;
  sp.chunk_rate = 10.0;
  sp.buffer_seconds = buffer_seconds;
  overlay::Session session(simulator, u, vdm, metric, sp, util::Rng(1));
  session.start();
  session.join(1, 4);
  session.join(2, 4);
  simulator.run_until(20.0);
  const overlay::Session::Counters snapshot = session.totals();
  simulator.run_until(30.0);
  session.leave(1);  // orphan 2: reconnection outage of a few seconds
  simulator.run_until(40.0);
  const overlay::Session::Counters w = session.totals() - snapshot;
  VDM_REQUIRE(w.chunks_expected > 0);
  return 1.0 - static_cast<double>(w.chunks_delivered) /
                   static_cast<double>(w.chunks_expected);
}

TEST(PlayoutBuffer, DeepBufferAbsorbsReconnectionOutage) {
  const double no_buffer = run_loss_with_buffer(0.0);
  const double deep_buffer = run_loss_with_buffer(30.0);
  EXPECT_GT(no_buffer, 0.0);
  EXPECT_DOUBLE_EQ(deep_buffer, 0.0);
}

TEST(PlayoutBuffer, ShallowBufferAbsorbsPartOfTheOutage) {
  const double no_buffer = run_loss_with_buffer(0.0);
  const double shallow = run_loss_with_buffer(2.0);
  EXPECT_LE(shallow, no_buffer);
}

// ------------------------------------------------------------ cached metric

TEST(CachedMetric, HitIsFreeAndStable) {
  sim::Simulator simulator;
  const net::MatrixUnderlay u = line_underlay({0.0, 10.0});
  overlay::CachedMetric cached(std::make_unique<overlay::DelayMetric>(0.2),
                               simulator, /*ttl=*/100.0);
  util::Rng rng(2);
  overlay::MetricProvider::Cost cost;
  const double first = cached.measure_with_cost(u, 0, 1, rng, cost);
  EXPECT_EQ(cost.messages, 2);
  EXPECT_GT(cost.elapsed, 0.0);
  EXPECT_EQ(cached.misses(), 1u);

  const double second = cached.measure_with_cost(u, 0, 1, rng, cost);
  EXPECT_EQ(cost.messages, 0);       // served by the statistics service
  EXPECT_DOUBLE_EQ(cost.elapsed, 0.0);
  EXPECT_DOUBLE_EQ(second, first);   // same (possibly stale) value
  EXPECT_EQ(cached.hits(), 1u);
}

TEST(CachedMetric, SymmetricKey) {
  sim::Simulator simulator;
  const net::MatrixUnderlay u = line_underlay({0.0, 10.0});
  overlay::CachedMetric cached(std::make_unique<overlay::DelayMetric>(),
                               simulator, 100.0);
  util::Rng rng(3);
  (void)cached.measure(u, 0, 1, rng);
  (void)cached.measure(u, 1, 0, rng);
  EXPECT_EQ(cached.hits(), 1u);  // the reverse direction hit the same entry
}

TEST(CachedMetric, TtlExpiryForcesRemeasurement) {
  sim::Simulator simulator;
  const net::MatrixUnderlay u = line_underlay({0.0, 10.0});
  overlay::CachedMetric cached(std::make_unique<overlay::DelayMetric>(),
                               simulator, /*ttl=*/5.0);
  util::Rng rng(4);
  (void)cached.measure(u, 0, 1, rng);
  simulator.run_until(10.0);  // past the TTL
  overlay::MetricProvider::Cost cost;
  (void)cached.measure_with_cost(u, 0, 1, rng, cost);
  EXPECT_EQ(cost.messages, 2);
  EXPECT_EQ(cached.misses(), 2u);
}

TEST(CachedMetric, SpeedsUpJoinsAgainstExpensiveProbes) {
  // Wrapping the loss metric (§6.2's motivating case): after the first few
  // joins warm the cache, later joins cost far fewer messages.
  auto join_messages = [](bool with_cache) {
    sim::Simulator simulator;
    net::MatrixUnderlay u = line_underlay({0.0, 10.0, 20.0, 30.0, 5.0});
    core::VdmProtocol vdm;
    std::unique_ptr<overlay::MetricProvider> metric;
    if (with_cache) {
      metric = std::make_unique<overlay::CachedMetric>(
          std::make_unique<overlay::LossMetric>(), simulator, 1e6);
    } else {
      metric = std::make_unique<overlay::LossMetric>();
    }
    overlay::SessionParams sp;
    sp.source = 0;
    overlay::Session session(simulator, u, vdm, *metric, sp, util::Rng(5));
    session.start();
    int total = 0;
    for (net::HostId h = 1; h <= 4; ++h) total += session.join(h, 4).messages;
    return total;
  };
  EXPECT_LT(join_messages(true), join_messages(false));
}

TEST(CachedMetric, RejectsBadConstruction) {
  sim::Simulator simulator;
  EXPECT_THROW(overlay::CachedMetric(nullptr, simulator, 1.0), util::InvariantError);
  EXPECT_THROW(overlay::CachedMetric(std::make_unique<overlay::DelayMetric>(),
                                     simulator, 0.0),
               util::InvariantError);
}

}  // namespace
}  // namespace vdm
