#include "experiments/runner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/require.hpp"

namespace vdm::experiments {
namespace {

RunConfig small_config() {
  RunConfig cfg;
  cfg.substrate = Substrate::kTransitStub;
  cfg.routers = 60;
  cfg.scenario.target_members = 15;
  cfg.scenario.join_phase = 200.0;
  cfg.scenario.total_time = 1200.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.1;
  cfg.session.chunk_rate = 1.0;
  cfg.seed = 3;
  return cfg;
}

void expect_sane(const RunResult& r) {
  EXPECT_GE(r.stress, 1.0);
  EXPECT_GT(r.stretch, 0.0);
  EXPECT_GE(r.hopcount, 1.0);
  EXPECT_GE(r.loss, 0.0);
  EXPECT_LE(r.loss, 1.0);
  EXPECT_GT(r.overhead, 0.0);
  EXPECT_GT(r.network_usage, 0.0);
  EXPECT_GT(r.startup_avg, 0.0);
  EXPECT_GE(r.startup_max, r.startup_avg);
  EXPECT_GE(r.mst_ratio, 1.0 - 1e-9);
  EXPECT_EQ(r.final_members, 16u);  // target + source
}

TEST(Runner, VdmOnTransitStub) {
  const RunResult r = run_once(small_config());
  expect_sane(r);
  EXPECT_GT(r.reconnect_avg, 0.0);  // churn forced reconnections
}

TEST(Runner, HmtpOnTransitStub) {
  RunConfig cfg = small_config();
  cfg.protocol = Proto::kHmtp;
  expect_sane(run_once(cfg));
}

TEST(Runner, RandomProtocolOnTransitStub) {
  RunConfig cfg = small_config();
  cfg.protocol = Proto::kRandom;
  expect_sane(run_once(cfg));
}

TEST(Runner, VdmRefineOnTransitStub) {
  RunConfig cfg = small_config();
  cfg.protocol = Proto::kVdmRefine;
  expect_sane(run_once(cfg));
}

TEST(Runner, GeoSubstrates) {
  RunConfig cfg = small_config();
  cfg.substrate = Substrate::kGeoUs;
  expect_sane(run_once(cfg));
  cfg.substrate = Substrate::kGeoWorld;
  expect_sane(run_once(cfg));
}

TEST(Runner, WaxmanSubstrate) {
  RunConfig cfg = small_config();
  cfg.substrate = Substrate::kWaxman;
  expect_sane(run_once(cfg));
}

TEST(Runner, LossMetricOnLossyLinks) {
  RunConfig cfg = small_config();
  cfg.metric = Metric::kLoss;
  cfg.link_loss_max = 0.02;
  const RunResult r = run_once(cfg);
  expect_sane(r);
  EXPECT_GT(r.loss, 0.0);  // per-link errors leak through
}

TEST(Runner, BlendMetricRuns) {
  RunConfig cfg = small_config();
  cfg.metric = Metric::kBlend;
  cfg.link_loss_max = 0.02;
  expect_sane(run_once(cfg));
}

TEST(Runner, BtpOnTransitStub) {
  RunConfig cfg = small_config();
  cfg.protocol = Proto::kBtp;
  expect_sane(run_once(cfg));
}

TEST(Runner, CachedMetricsRun) {
  RunConfig cfg = small_config();
  cfg.metric = Metric::kCachedDelay;
  expect_sane(run_once(cfg));
  cfg.metric = Metric::kCachedLoss;
  cfg.link_loss_max = 0.02;
  expect_sane(run_once(cfg));
}

TEST(Runner, CachedLossCutsOverheadVsPlainLoss) {
  RunConfig plain = small_config();
  plain.metric = Metric::kLoss;
  plain.link_loss_max = 0.02;
  RunConfig cached = plain;
  cached.metric = Metric::kCachedLoss;
  EXPECT_LT(run_once(cached).overhead, run_once(plain).overhead);
}

TEST(Runner, FosterChildCutsHmtpStartup) {
  RunConfig plain = small_config();
  plain.protocol = Proto::kHmtp;
  RunConfig foster = plain;
  foster.hmtp_foster_child = true;
  EXPECT_LT(run_once(foster).startup_avg, run_once(plain).startup_avg);
}

TEST(Runner, BufferReducesChurnLoss) {
  RunConfig plain = small_config();
  plain.scenario.churn_rate = 0.2;
  RunConfig buffered = plain;
  buffered.session.buffer_seconds = 30.0;
  EXPECT_LT(run_once(buffered).loss, run_once(plain).loss);
}

TEST(Runner, DeterministicAcrossCalls) {
  const RunResult a = run_once(small_config());
  const RunResult b = run_once(small_config());
  EXPECT_DOUBLE_EQ(a.stress, b.stress);
  EXPECT_DOUBLE_EQ(a.stretch, b.stretch);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_DOUBLE_EQ(a.overhead, b.overhead);
  EXPECT_DOUBLE_EQ(a.startup_avg, b.startup_avg);
  EXPECT_DOUBLE_EQ(a.mst_ratio, b.mst_ratio);
}

TEST(Runner, SeedChangesOutcome) {
  RunConfig cfg = small_config();
  const RunResult a = run_once(cfg);
  cfg.seed = cfg.seed + 1;
  const RunResult b = run_once(cfg);
  EXPECT_NE(a.network_usage, b.network_usage);
}

TEST(Runner, KeepEpochsRetainsSeries) {
  RunConfig cfg = small_config();
  EXPECT_TRUE(run_once(cfg).epochs.empty());
  cfg.keep_epochs = true;
  const RunResult r = run_once(cfg);
  // One epoch per measurement: join phase + churn slots.
  EXPECT_GE(r.epochs.size(), 3u);
}

TEST(Runner, BatchedJoinScenario) {
  RunConfig cfg = small_config();
  cfg.scenario.batched_joins = true;
  cfg.scenario.batch_size = 5;
  cfg.scenario.target_members = 15;
  cfg.keep_epochs = true;
  const RunResult r = run_once(cfg);
  EXPECT_EQ(r.epochs.size(), 3u);
  EXPECT_EQ(r.final_members, 16u);
}

TEST(Runner, RunManyAggregates) {
  const AggregateResult agg = run_many(small_config(), 4, /*threads=*/2);
  EXPECT_EQ(agg.runs.size(), 4u);
  EXPECT_EQ(agg.stress.n, 4u);
  EXPECT_GE(agg.stress.mean, 1.0);
  EXPECT_GE(agg.stress.ci_halfwidth, 0.0);
  EXPECT_LE(agg.stretch.lo(), agg.stretch.mean);
}

TEST(Runner, RunManyParallelEqualsSequential) {
  const AggregateResult par = run_many(small_config(), 3, 3);
  const AggregateResult seq = run_many(small_config(), 3, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(par.runs[i].stretch, seq.runs[i].stretch);
    EXPECT_DOUBLE_EQ(par.runs[i].overhead, seq.runs[i].overhead);
  }
}

TEST(Runner, RunManyPropagatesWorkerExceptions) {
  // host_pool <= target_members trips a precondition inside run_once on a
  // worker thread; run_many must surface it on the caller instead of
  // letting the worker std::terminate the process.
  RunConfig bad = small_config();
  bad.host_pool = 2;
  bad.scenario.target_members = 8;
  EXPECT_THROW(run_many(bad, 4, 2), util::InvariantError);
}

TEST(Runner, DefaultSeedsEnvKnobs) {
  ::unsetenv("VDM_FULL");
  EXPECT_EQ(default_seeds(4, 32), 4u);
  ::setenv("VDM_FULL", "1", 1);
  EXPECT_EQ(default_seeds(4, 32), 32u);
  ::unsetenv("VDM_FULL");
}

}  // namespace
}  // namespace vdm::experiments
