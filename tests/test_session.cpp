#include "overlay/session.hpp"

#include <gtest/gtest.h>

#include "core/vdm_protocol.hpp"
#include "helpers.hpp"
#include "util/require.hpp"

namespace vdm::overlay {
namespace {

using testutil::Harness;
using testutil::line_underlay;

TEST(Session, StartActivatesSourceOnly) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0}), vdm);
  EXPECT_TRUE(h.session.tree().member(0).alive);
  EXPECT_FALSE(h.session.tree().member(1).alive);
}

TEST(Session, DoubleStartThrows) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0}), vdm);
  EXPECT_THROW(h.session.start(), util::InvariantError);
}

TEST(Session, SourceCannotJoin) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0}), vdm);
  EXPECT_THROW(h.session.join(0, 3), util::InvariantError);
}

TEST(Session, DoubleJoinThrows) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0}), vdm);
  h.join(1);
  EXPECT_THROW(h.session.join(1, 3), util::InvariantError);
}

TEST(Session, CountersAccumulateAndWindowResets) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  const auto after_one = h.session.totals().control_messages;
  EXPECT_GT(after_one, 0u);
  // A window is the difference of two snapshots of the totals.
  const Session::Counters snapshot = h.session.totals();
  EXPECT_EQ((h.session.totals() - snapshot).control_messages, 0u);
  h.join(2);
  EXPECT_GT((h.session.totals() - snapshot).control_messages, 0u);
  EXPECT_GT(h.session.totals().control_messages, after_one);
}

TEST(Session, StartupRecordsDrainOnTake) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  h.join(2);
  std::vector<TimingRecord> recs;
  h.session.drain_startup_records(recs);
  EXPECT_EQ(recs.size(), 2u);
  h.session.drain_startup_records(recs);
  EXPECT_TRUE(recs.empty());
}

TEST(Session, ChunksFlowDownTheTree) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm, 8, 1, /*chunk_rate=*/5.0);
  h.join(1);
  h.join(2);
  h.sim.run_until(100.0);
  const auto& t = h.session.totals();
  EXPECT_GT(t.chunks_emitted, 0u);
  // Two receivers per emission once both are in.
  EXPECT_GT(t.data_transmissions, t.chunks_emitted);
  EXPECT_GT(h.session.member_chunks(1).received, 0u);
  EXPECT_GT(h.session.member_chunks(2).received, 0u);
}

TEST(Session, NoLossOnCleanStaticNetwork) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm, 8, 1, 5.0);
  h.join(1);
  h.join(2);
  h.sim.run_until(2.0);  // past join handshakes
  const Session::Counters snapshot = h.session.totals();
  h.sim.run_until(50.0);
  const Session::Counters w = h.session.totals() - snapshot;
  ASSERT_GT(w.chunks_expected, 0u);
  EXPECT_EQ(w.chunks_expected, w.chunks_delivered);
}

TEST(Session, LinkLossShowsUpInDelivery) {
  // 50% loss on every pseudo-link: delivery must hover near 50% for the
  // source's direct child.
  std::vector<double> delay{0.0, 0.005, 0.005, 0.0};
  std::vector<double> loss{0.0, 0.5, 0.5, 0.0};
  net::MatrixUnderlay u(2, std::move(delay), std::move(loss));
  core::VdmProtocol vdm;
  Harness h(std::move(u), vdm, 8, 1, /*chunk_rate=*/100.0);
  h.join(1);
  h.sim.run_until(1.0);
  const Session::Counters snapshot = h.session.totals();
  h.sim.run_until(101.0);  // ~10000 chunks
  const Session::Counters w = h.session.totals() - snapshot;
  ASSERT_GT(w.chunks_expected, 5000u);
  const double rate = static_cast<double>(w.chunks_delivered) /
                      static_cast<double>(w.chunks_expected);
  EXPECT_NEAR(rate, 0.5, 0.05);
}

TEST(Session, DataPlaneCanBeDisabled) {
  sim::Simulator simulator;
  net::MatrixUnderlay u = line_underlay({0.0, 10.0});
  core::VdmProtocol vdm;
  DelayMetric metric;
  SessionParams sp;
  sp.source = 0;
  sp.data_plane = false;
  Session session(simulator, u, vdm, metric, sp, util::Rng(1));
  session.start();
  session.join(1, 3);
  simulator.run_until(100.0);
  EXPECT_EQ(session.totals().chunks_emitted, 0u);
}

TEST(Session, EligibleParentRules) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0, 30.0}), vdm);
  h.join(1);
  h.join(2);  // chain 0 -> 1 -> 2
  EXPECT_FALSE(h.session.eligible_parent(1, 1));  // self
  EXPECT_FALSE(h.session.eligible_parent(1, 2));  // own descendant
  EXPECT_FALSE(h.session.eligible_parent(1, 3));  // not alive
  EXPECT_TRUE(h.session.eligible_parent(2, 0));
  EXPECT_TRUE(h.session.eligible_parent(2, 1));
}

TEST(Session, MeasureParallelChargesMaxTimeSumMessages) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 30.0}), vdm);
  OpStats stats;
  const std::vector<net::HostId> targets{0, 2};
  std::vector<double> out;
  const std::span<const double> d =
      h.session.measure_parallel(1, targets, out, stats);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0], 10.0);  // rtt 1<->0
  EXPECT_DOUBLE_EQ(d[1], 20.0);  // rtt 1<->2
  EXPECT_EQ(stats.messages, 4);
  EXPECT_DOUBLE_EQ(stats.elapsed, 20.0);  // slowest probe only
}

TEST(Session, ChargeHelpers) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0}), vdm);
  OpStats stats;
  h.session.charge_exchange(0, 1, stats);
  EXPECT_EQ(stats.messages, 2);
  EXPECT_DOUBLE_EQ(stats.elapsed, 10.0);
  h.session.charge_notification(3, stats);
  EXPECT_EQ(stats.messages, 5);
  EXPECT_DOUBLE_EQ(stats.elapsed, 10.0);  // notifications add no wait
}

TEST(Session, JoinsAndReconnectCountersTrack) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  h.join(1);
  h.join(2);
  EXPECT_EQ(h.session.totals().joins_completed, 2u);
  h.session.leave(1);
  EXPECT_EQ(h.session.totals().reconnects_completed, 1u);
}

TEST(Session, StopCancelsStreamAndTimers) {
  core::VdmConfig cfg;
  cfg.refinement = true;
  core::VdmProtocol vdm(cfg);
  Harness h(line_underlay({0.0, 10.0}), vdm);
  h.join(1);
  h.session.stop();
  const auto chunks = h.session.totals().chunks_emitted;
  h.sim.run_until(1000.0);
  EXPECT_EQ(h.session.totals().chunks_emitted, chunks);
  EXPECT_EQ(h.session.totals().refines_run, 0u);
}

}  // namespace
}  // namespace vdm::overlay
