// run_grid's determinism contract and the per-worker run arenas. The
// contract under test: a grid sweep is bit-identical — not merely close —
// to the serial per-point run_many loops it replaces, for every thread
// count and task completion order, and a reused RunScratch changes nothing
// about a run while allocating no scaffolding after its first run of a
// shape.

#include "experiments/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "overlay/walk.hpp"
#include "util/require.hpp"

namespace vdm::experiments {
namespace {

RunConfig small_config() {
  RunConfig cfg;
  cfg.substrate = Substrate::kTransitStub;
  cfg.routers = 60;
  cfg.scenario.target_members = 12;
  cfg.scenario.join_phase = 200.0;
  cfg.scenario.total_time = 1000.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.1;
  cfg.session.chunk_rate = 1.0;
  cfg.seed = 3;
  return cfg;
}

/// Hexfloat rendering: two doubles render identically iff they are
/// bit-identical (modulo -0.0/+0.0, which never arises from these sums).
/// EXPECT_DOUBLE_EQ tolerates 4 ULPs — not good enough for a determinism
/// contract.
std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// One string capturing every scalar of a run, for whole-run bit equality.
std::string fingerprint(const RunResult& r) {
  std::string out;
  for (const double v : {r.stress, r.stress_max, r.stretch, r.stretch_leaf,
                         r.stretch_max, r.stretch_min, r.hopcount, r.hop_leaf,
                         r.hop_max, r.loss, r.overhead, r.overhead_per_chunk,
                         r.network_usage, r.startup_avg, r.startup_max,
                         r.reconnect_avg, r.reconnect_max, r.mst_ratio}) {
    out += hex(v);
    out += '|';
  }
  out += std::to_string(r.final_members);
  return out;
}

std::string fingerprint(const AggregateResult& agg) {
  std::string out;
  for (const util::Summary* s :
       {&agg.stress, &agg.stretch, &agg.hopcount, &agg.loss, &agg.overhead,
        &agg.network_usage, &agg.startup_avg, &agg.reconnect_avg, &agg.mst_ratio}) {
    out += hex(s->mean);
    out += hex(s->ci_halfwidth);
    out += hex(s->min);
    out += hex(s->max);
    out += '|';
  }
  for (const RunResult& r : agg.runs) out += fingerprint(r) + "\n";
  return out;
}

/// The shapes one arena carries in turn: every substrate on the sequential
/// join path, with a concurrent flash crowd (heartbeats, crash churn) and a
/// locating-first run in between. The arena then moves the placement index,
/// the tree's observer and the heartbeat slab from one join mode to another
/// and back.
std::vector<RunConfig> arena_mix() {
  std::vector<RunConfig> mix;
  for (const Substrate substrate :
       {Substrate::kTransitStub, Substrate::kWaxman, Substrate::kGeoUs,
        Substrate::kCoordUs, Substrate::kCoordPlane}) {
    mix.push_back(small_config());
    mix.back().substrate = substrate;
  }
  RunConfig flash = small_config();
  flash.substrate = Substrate::kCoordUs;
  flash.session.join_mode = overlay::JoinMode::kConcurrent;
  flash.session.faults.heartbeat_period = 1.0;
  flash.scenario.crash_fraction = 1.0;
  flash.scenario.flash_count = 40;
  flash.scenario.flash_at = 100.0;
  mix.insert(mix.begin() + 1, flash);
  RunConfig locating = small_config();
  locating.session.join_mode = overlay::JoinMode::kLocating;
  mix.insert(mix.begin() + 4, locating);
  return mix;
}

std::vector<RunConfig> small_grid() {
  std::vector<RunConfig> points;
  points.push_back(small_config());
  points.push_back(small_config());
  points.back().protocol = Proto::kHmtp;
  points.push_back(small_config());
  points.back().scenario.target_members = 16;
  return points;
}

TEST(Sweep, GridMatchesPerPointRunManyBitwise) {
  const std::vector<RunConfig> points = small_grid();
  const std::vector<AggregateResult> grid = run_grid(points, 3);
  ASSERT_EQ(grid.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    const AggregateResult solo = run_many(points[p], 3);
    EXPECT_EQ(fingerprint(grid[p]), fingerprint(solo)) << "point " << p;
  }
}

TEST(Sweep, ThreadCountDoesNotChangeResults) {
  const std::vector<RunConfig> points = small_grid();
  SweepOptions serial;
  serial.threads = 1;
  const std::vector<AggregateResult> base = run_grid(points, 2, serial);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    SweepOptions opt;
    opt.threads = threads;
    const std::vector<AggregateResult> got = run_grid(points, 2, opt);
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t p = 0; p < base.size(); ++p) {
      EXPECT_EQ(fingerprint(got[p]), fingerprint(base[p]))
          << "threads=" << threads << " point " << p;
    }
  }
}

TEST(Sweep, SeedOffsetsArePerPointNotPerTask) {
  // Point A at base seed 3 and point B at base seed 4, 2 seeds each: A's
  // second task and B's first task are the same (config, seed) pair and
  // must produce the same bits. A flattened-index seeding scheme (seed =
  // base + global task index) would break this.
  std::vector<RunConfig> points{small_config(), small_config()};
  points[1].seed = points[0].seed + 1;
  const std::vector<AggregateResult> aggs = run_grid(points, 2);
  ASSERT_EQ(aggs[0].runs.size(), 2u);
  ASSERT_EQ(aggs[1].runs.size(), 2u);
  EXPECT_EQ(fingerprint(aggs[0].runs[1]), fingerprint(aggs[1].runs[0]));
  EXPECT_NE(fingerprint(aggs[0].runs[0]), fingerprint(aggs[0].runs[1]));
}

TEST(Sweep, IdenticalPointsProduceIdenticalAggregates) {
  const std::vector<RunConfig> points{small_config(), small_config()};
  const std::vector<AggregateResult> aggs = run_grid(points, 2);
  EXPECT_EQ(fingerprint(aggs[0]), fingerprint(aggs[1]));
}

TEST(Sweep, ArenaRunsMatchFreshRunsBitwise) {
  RunScratch scratch;
  const std::vector<RunConfig> mix = arena_mix();
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const RunResult warm = run_once(mix[i], scratch);  // one scratch for all
    const RunResult fresh = run_once(mix[i]);
    EXPECT_EQ(fingerprint(warm), fingerprint(fresh)) << "shape " << i;
  }
}

TEST(Sweep, ArenaStopsGrowingAfterFirstRunOfAShape) {
  const RunConfig cfg = small_config();
  RunScratch scratch;
  (void)run_once(cfg, scratch);
  const std::uint64_t after_first = scratch.grow_events();
  EXPECT_GE(after_first, 1u);  // the first run had to build the arenas
  EXPECT_GT(scratch.capacity_bytes(), 0u);
  for (int i = 0; i < 3; ++i) (void)run_once(cfg, scratch);
  // Steady state: repeating a run the arena has already seen rebuilds every
  // buffer in place without a single scaffolding reallocation.
  EXPECT_EQ(scratch.grow_events(), after_first);
}

TEST(Sweep, ArenaGrowsAcrossShapesThenSettles) {
  // A worker arena serves whatever mix of substrates, join modes and seeds
  // its shard and steals hand it. New shapes may bump the capacity
  // high-water; a second pass over the same mix must not — capacity is
  // monotone, never released between runs.
  RunScratch scratch;
  const std::vector<RunConfig> mix = arena_mix();
  const auto cycle = [&scratch, &mix] {
    for (RunConfig cfg : mix) {
      for (std::uint64_t seed = 3; seed < 6; ++seed) {
        cfg.seed = seed;
        (void)run_once(cfg, scratch);
      }
    }
  };
  cycle();
  const std::uint64_t after_first_cycle = scratch.grow_events();
  cycle();
  EXPECT_EQ(scratch.grow_events(), after_first_cycle);
}

TEST(Sweep, ProgressReportsEveryTaskOnce) {
  const std::vector<RunConfig> points{small_config(), small_config()};
  constexpr std::size_t kSeeds = 3;
  std::mutex mu;
  std::vector<std::size_t> dones;
  SweepOptions opt;
  opt.threads = 2;
  opt.progress = [&](std::size_t done, std::size_t total) {
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(total, points.size() * kSeeds);
    dones.push_back(done);
  };
  (void)run_grid(points, kSeeds, opt);
  ASSERT_EQ(dones.size(), points.size() * kSeeds);
  // The callback is serialized and `done` counts completions, so the
  // sequence is exactly 1..total in order regardless of task interleaving.
  for (std::size_t i = 0; i < dones.size(); ++i) EXPECT_EQ(dones[i], i + 1);
}

/// Unsynchronized on purpose: if the sweep ran this observer from more than
/// one worker, the vector writes would race (TSan) and the recorded step
/// sequence would interleave nondeterministically.
class RecordingObserver final : public overlay::WalkObserver {
 public:
  void on_step(const overlay::WalkStep& s) override {
    steps.push_back({s.joiner, s.node, s.step});
  }
  std::vector<std::tuple<net::HostId, net::HostId, int>> steps;
};

TEST(Sweep, WalkObserverClampsGridToOneWorker) {
  // Reference sequence: explicitly serial.
  RecordingObserver serial;
  std::vector<RunConfig> points{small_config(), small_config()};
  points[1].seed += 100;
  for (RunConfig& p : points) p.walk_observer = &serial;
  SweepOptions one;
  one.threads = 1;
  const std::vector<AggregateResult> a = run_grid(points, 2, one);

  // Same grid asking for 4 workers: the observer must force one worker, so
  // the observed step stream is byte-for-byte the serial stream.
  RecordingObserver clamped;
  for (RunConfig& p : points) p.walk_observer = &clamped;
  SweepOptions four;
  four.threads = 4;
  const std::vector<AggregateResult> b = run_grid(points, 2, four);

  ASSERT_FALSE(serial.steps.empty());
  EXPECT_EQ(serial.steps, clamped.steps);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(fingerprint(a[i].runs.front()), fingerprint(b[i].runs.front()));
  }
}

TEST(Sweep, EmptyGridReturnsEmpty) {
  EXPECT_TRUE(run_grid({}, 4).empty());
}

TEST(Sweep, WorkerExceptionPropagatesFromGrid) {
  std::vector<RunConfig> points{small_config(), small_config()};
  points[1].host_pool = 2;  // trips a precondition inside run_once
  points[1].scenario.target_members = 8;
  EXPECT_THROW(run_grid(points, 2, {}), util::InvariantError);
}

}  // namespace
}  // namespace vdm::experiments
