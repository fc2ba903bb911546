#include "metrics/collector.hpp"

#include <gtest/gtest.h>

#include "core/vdm_protocol.hpp"
#include "helpers.hpp"

namespace vdm::metrics {
namespace {

using testutil::Harness;
using testutil::line_underlay;

TEST(Collector, CaptureSnapshotsTreeAndWindow) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm, 8, 1, /*chunk_rate=*/5.0);
  Collector c(h.session);
  h.join(1);
  h.join(2);
  h.sim.run_until(50.0);
  c.capture(h.sim.now());
  ASSERT_EQ(c.samples().size(), 1u);
  const EpochSample& e = c.samples()[0];
  EXPECT_DOUBLE_EQ(e.at, 50.0);
  EXPECT_EQ(e.tree.members, 3u);
  EXPECT_GT(e.control_messages, 0u);
  EXPECT_GT(e.data_transmissions, 0u);
  EXPECT_EQ(e.startup_times.size(), 2u);
  EXPECT_TRUE(e.reconnect_times.empty());
}

TEST(Collector, CaptureResetsWindow) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  Collector c(h.session);
  h.join(1);
  c.capture(h.sim.now());
  c.capture(h.sim.now());
  EXPECT_GT(c.samples()[0].control_messages, 0u);
  EXPECT_EQ(c.samples()[1].control_messages, 0u);
}

TEST(Collector, OverheadDefinitions) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0}), vdm, 8, 1, /*chunk_rate=*/10.0);
  Collector c(h.session);
  h.join(1);
  h.sim.run_until(10.0);
  c.capture(h.sim.now());
  const EpochSample& e = c.samples()[0];
  // One receiver: transmissions == emissions-into-tree, so the two overhead
  // normalizations coincide (up to the chunks emitted before the join).
  EXPECT_GT(e.overhead, 0.0);
  EXPECT_GT(e.overhead_per_chunk, 0.0);
  EXPECT_NEAR(e.overhead, static_cast<double>(e.control_messages) /
                              static_cast<double>(e.data_transmissions),
              1e-12);
}

TEST(Collector, LossRateFromWindowCounters) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm, 8, 1, 5.0);
  Collector c(h.session);
  h.join(1);
  h.join(2);
  h.sim.run_until(100.0);  // well past both join handshakes
  c.capture(h.sim.now());  // epoch 0: join-phase noise
  h.sim.run_until(140.0);
  h.session.leave(1);      // orphan 2 suffers an outage
  h.sim.run_until(141.0);
  c.capture(h.sim.now());
  EXPECT_GT(c.samples()[1].loss_rate, 0.0);
  EXPECT_LE(c.samples()[1].loss_rate, 1.0);
  ASSERT_EQ(c.samples()[1].reconnect_times.size(), 1u);
}

TEST(Collector, MeanAccessorsSkipEpochs) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0}), vdm);
  Collector c(h.session);
  h.join(1);
  c.capture(1.0);
  h.join(2);
  c.capture(2.0);
  // Hop averages: epoch0 tree = S->1 (hop 1.0); epoch1 = chain (hop 1.5).
  EXPECT_DOUBLE_EQ(c.mean_hopcount(0), (1.0 + 1.5) / 2.0);
  EXPECT_DOUBLE_EQ(c.mean_hopcount(1), 1.5);
}

TEST(Collector, MeanOfEmptyIsZero) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0}), vdm);
  Collector c(h.session);
  EXPECT_DOUBLE_EQ(c.mean_stress(), 0.0);
  EXPECT_DOUBLE_EQ(c.mean_loss(5), 0.0);
}

TEST(Collector, TimingAggregationAcrossEpochs) {
  core::VdmProtocol vdm;
  Harness h(line_underlay({0.0, 10.0, 20.0, 30.0}), vdm);
  Collector c(h.session);
  h.join(1);
  c.capture(1.0);
  h.join(2);
  h.join(3);
  c.capture(2.0);
  EXPECT_EQ(c.all_times(&EpochSample::startup_times).size(), 3u);
}

}  // namespace
}  // namespace vdm::metrics
