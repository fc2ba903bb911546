// Intra-session parallelism determinism: every run_once scalar must be
// bit-identical across --run-threads {1, 2, 0} on every substrate. The one
// parallel phase inside a run, the collector's measure_tree reads, computes
// pure underlay reads concurrently and reduces them in fixed order, so the
// thread count must be unobservable in the output. The graph substrate
// additionally pins that the knob is inert when the underlay forbids
// concurrent reads.

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "experiments/runner.hpp"

namespace vdm::experiments {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(bits(a.stress), bits(b.stress));
  EXPECT_EQ(bits(a.stress_max), bits(b.stress_max));
  EXPECT_EQ(bits(a.stretch), bits(b.stretch));
  EXPECT_EQ(bits(a.stretch_leaf), bits(b.stretch_leaf));
  EXPECT_EQ(bits(a.stretch_max), bits(b.stretch_max));
  EXPECT_EQ(bits(a.stretch_min), bits(b.stretch_min));
  EXPECT_EQ(bits(a.hopcount), bits(b.hopcount));
  EXPECT_EQ(bits(a.hop_leaf), bits(b.hop_leaf));
  EXPECT_EQ(bits(a.hop_max), bits(b.hop_max));
  EXPECT_EQ(bits(a.loss), bits(b.loss));
  EXPECT_EQ(bits(a.overhead), bits(b.overhead));
  EXPECT_EQ(bits(a.overhead_per_chunk), bits(b.overhead_per_chunk));
  EXPECT_EQ(bits(a.network_usage), bits(b.network_usage));
  EXPECT_EQ(bits(a.startup_avg), bits(b.startup_avg));
  EXPECT_EQ(bits(a.startup_max), bits(b.startup_max));
  EXPECT_EQ(bits(a.startup_p50), bits(b.startup_p50));
  EXPECT_EQ(bits(a.startup_p99), bits(b.startup_p99));
  EXPECT_EQ(bits(a.join_rate), bits(b.join_rate));
  EXPECT_EQ(bits(a.reconnect_avg), bits(b.reconnect_avg));
  EXPECT_EQ(bits(a.reconnect_max), bits(b.reconnect_max));
  EXPECT_EQ(bits(a.mst_ratio), bits(b.mst_ratio));
  EXPECT_EQ(a.final_members, b.final_members);
}

void expect_thread_invariant(RunConfig cfg) {
  cfg.session.threads = 1;
  const RunResult serial = run_once(cfg);
  cfg.session.threads = 2;
  const RunResult two = run_once(cfg);
  cfg.session.threads = 0;  // hardware concurrency
  const RunResult hw = run_once(cfg);
  expect_bitwise_equal(serial, two);
  expect_bitwise_equal(serial, hw);
}

RunConfig base_config() {
  RunConfig cfg;
  cfg.scenario.target_members = 24;
  cfg.scenario.join_phase = 200.0;
  cfg.scenario.total_time = 1000.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.1;
  cfg.session.chunk_rate = 1.0;
  cfg.seed = 11;
  return cfg;
}

TEST(IntraRunParallel, BitIdenticalAcrossThreadsOnGraph) {
  // GraphUnderlay reports concurrent_reads() == false, so the knob must be
  // completely inert here — including with per-link loss in play.
  RunConfig cfg = base_config();
  cfg.substrate = Substrate::kTransitStub;
  cfg.routers = 60;
  cfg.link_loss_max = 0.02;
  expect_thread_invariant(cfg);
}

TEST(IntraRunParallel, BitIdenticalAcrossThreadsOnMatrix) {
  RunConfig cfg = base_config();
  cfg.substrate = Substrate::kGeoUs;
  expect_thread_invariant(cfg);
}

TEST(IntraRunParallel, BitIdenticalAcrossThreadsOnMatrixWithLoss) {
  // Nonzero per-pair loss keeps the flood on the serial path (draws) while
  // probe batches may still parallelize — both must stay invariant.
  RunConfig cfg = base_config();
  cfg.substrate = Substrate::kGeoWorld;
  cfg.link_loss_max = 0.02;
  expect_thread_invariant(cfg);
}

TEST(IntraRunParallel, BitIdenticalAcrossThreadsOnCoord) {
  // The coordinate substrate is the parallel showcase: lossless (sharded
  // floods engage) and pure-arithmetic delays (probe fan-out engages).
  RunConfig cfg = base_config();
  cfg.substrate = Substrate::kCoordPlane;
  cfg.scenario.target_members = 64;
  expect_thread_invariant(cfg);
}

TEST(IntraRunParallel, BitIdenticalAcrossThreadsOnCoordConcurrentJoins) {
  // Flash-crowd style batched joins exercise the pipeline's measure_parallel
  // batches under the locating placement index.
  RunConfig cfg = base_config();
  cfg.substrate = Substrate::kCoordWorld;
  cfg.session.join_mode = overlay::JoinMode::kConcurrent;
  cfg.scenario.target_members = 64;
  expect_thread_invariant(cfg);
}

TEST(IntraRunParallel, BitIdenticalAcrossThreadsWithProbeNoise) {
  // Measurement noise makes every probe draw from the rng — the serial
  // FIFO commit must replay those draws in exactly the serial order.
  RunConfig cfg = base_config();
  cfg.substrate = Substrate::kCoordUs;
  cfg.probe_noise = 0.1;
  cfg.protocol = Proto::kVdmRefine;
  expect_thread_invariant(cfg);
}

}  // namespace
}  // namespace vdm::experiments
