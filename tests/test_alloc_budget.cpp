// Steady-state allocation budget for arena run_once: ZERO. The RunScratch
// arena owns every piece of per-run scaffolding — topology, underlay,
// collector, walk buffers, membership tree, Session working buffers, the
// refine/stream/heartbeat timer slabs, the MST-ratio working set and the
// cached protocol/metric objects — so a warm arena replays a shape without
// touching the heap at all. This test pins that exactly, so a change that
// reintroduces even one per-run construction fails loudly instead of
// showing up as a bench regression months later.
//
// The global-new counter mirrors bench/bench_e2e.cpp. gtest itself
// allocates (assertion bookkeeping), so the measured window contains only
// the run_once call.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "experiments/runner.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace vdm::experiments {
namespace {

RunConfig paper_config() {
  RunConfig cfg;
  cfg.substrate = Substrate::kTransitStub;
  cfg.protocol = Proto::kVdm;
  cfg.scenario.target_members = 200;  // the paper's headline overlay size
  cfg.seed = 7;
  return cfg;
}

TEST(AllocBudget, SteadyStateArenaRunStaysUnderBudget) {
  RunScratch scratch;
  const RunConfig cfg = paper_config();
  // Two warm runs: the first builds every arena buffer, the second settles
  // capacities that only converge after the shape has been seen once
  // (e.g. children lists sized by the observed churn).
  (void)run_once(cfg, scratch);
  (void)run_once(cfg, scratch);
  const std::uint64_t grows_before = scratch.grow_events();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const RunResult r = run_once(cfg, scratch);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  EXPECT_GT(r.final_members, 0u);
  EXPECT_EQ(scratch.grow_events(), grows_before)
      << "a warm arena grew during a repeat run of the same shape";
  // Down from ~1.8k pre-arena and ~80 pre-slab: a warm arena replays the
  // shape with no heap traffic whatsoever.
  EXPECT_EQ(allocs, 0u)
      << "steady-state run_once allocated " << allocs
      << " times; per-run allocation crept back in";
}

TEST(AllocBudget, HmtpRefinementStaysUnderBudgetToo) {
  // HMTP refines every member every 30 s by restarting its join search at a
  // random node of its root path, drawn by depth without building the path,
  // so the shape with the most refinement walks allocates nothing warm
  // either. VDM, BTP and Random share the first test's machinery.
  RunScratch scratch;
  RunConfig cfg = paper_config();
  cfg.protocol = Proto::kHmtp;
  (void)run_once(cfg, scratch);
  (void)run_once(cfg, scratch);
  const std::uint64_t grows_before = scratch.grow_events();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const RunResult r = run_once(cfg, scratch);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  EXPECT_GT(r.totals.refine_ticks, 0u);
  EXPECT_EQ(scratch.grow_events(), grows_before);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocBudget, LossyFloodStaysUnderBudgetToo) {
  // The paper_lossy_512 shape at test size: VDM-L over router links whose
  // loss is drawn up to 2 %, 2 chunks/s. Every other shape here runs on a
  // lossless underlay, whose chunks are counted; these chunks take the
  // lossy flood, and its cached visit order rides the session scratch too.
  RunScratch scratch;
  RunConfig cfg = paper_config();
  cfg.metric = Metric::kLoss;
  cfg.link_loss_max = 0.02;
  cfg.session.chunk_rate = 2.0;
  (void)run_once(cfg, scratch);
  (void)run_once(cfg, scratch);
  const std::uint64_t grows_before = scratch.grow_events();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const RunResult r = run_once(cfg, scratch);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  EXPECT_GT(r.loss, 0.0);  // the chunks were flooded over lossy links
  EXPECT_EQ(scratch.grow_events(), grows_before);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocBudget, CoordSubstrateStaysUnderBudgetToo) {
  // Same gate on the coordinate substrate: its underlay rebind is two
  // vector refills, so the steady state must match the graph substrate's.
  RunScratch scratch;
  RunConfig cfg = paper_config();
  cfg.substrate = Substrate::kCoordPlane;
  cfg.compute_mst_ratio = false;
  (void)run_once(cfg, scratch);
  (void)run_once(cfg, scratch);
  const std::uint64_t grows_before = scratch.grow_events();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  (void)run_once(cfg, scratch);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(scratch.grow_events(), grows_before);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocBudget, CrashChurnWithHeartbeatsStaysUnderBudgetToo) {
  // The BM_RunOnceCrashChurn shape: every departure crashes, every member
  // runs a heartbeat detector over a lossy control plane. The detector's
  // per-host timer slab and the pending crash orphans ride the arena like
  // the rest, so detection and recovery allocate nothing either.
  RunScratch scratch;
  RunConfig cfg = paper_config();
  cfg.scenario.churn_rate = 0.10;
  cfg.scenario.crash_fraction = 1.0;
  cfg.session.faults.heartbeat_period = 1.0;
  cfg.session.faults.heartbeat_misses = 3;
  cfg.session.faults.heartbeat_timeout = 0.5;
  cfg.session.faults.lossy_control = true;
  cfg.session.faults.control_loss_extra = 0.01;
  (void)run_once(cfg, scratch);
  (void)run_once(cfg, scratch);
  const std::uint64_t grows_before = scratch.grow_events();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const RunResult r = run_once(cfg, scratch);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  EXPECT_GT(r.detection_avg, 0.0);  // crashes were detected, not skipped
  EXPECT_EQ(scratch.grow_events(), grows_before);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocBudget, ConcurrentFlashWithHeartbeatsStaysUnderBudgetToo) {
  // A small flash_crash_control shape: Poisson churn on the US coordinate
  // substrate, a flash crowd through the concurrent join pipeline, and a
  // heartbeat detector on every member over a lossy control plane. The
  // region presets are read in place and the generator's pre-drawn arrival
  // instants ride the scenario scratch, so this shape allocates nothing
  // warm either.
  RunScratch scratch;
  RunConfig cfg;
  cfg.substrate = Substrate::kCoordUs;
  cfg.protocol = Proto::kVdm;
  cfg.scenario.target_members = 64;
  cfg.scenario.flash_count = 256;
  cfg.scenario.flash_at = 400.0;
  cfg.scenario.join_phase = 400.0;
  cfg.scenario.total_time = 1200.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.workload.kind = overlay::WorkloadKind::kPoisson;
  cfg.workload.mean_session = 800.0;
  cfg.session.join_mode = overlay::JoinMode::kConcurrent;
  cfg.session.chunk_rate = 0.1;
  cfg.session.faults.heartbeat_period = 1.0;
  cfg.session.faults.heartbeat_misses = 3;
  cfg.session.faults.lossy_control = true;
  cfg.session.faults.control_loss_extra = 0.01;
  cfg.compute_mst_ratio = false;
  cfg.seed = 7;
  (void)run_once(cfg, scratch);
  (void)run_once(cfg, scratch);
  const std::uint64_t grows_before = scratch.grow_events();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const RunResult r = run_once(cfg, scratch);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  EXPECT_GT(r.final_members, cfg.scenario.target_members);  // the crowd joined
  EXPECT_EQ(scratch.grow_events(), grows_before);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace vdm::experiments
