// End-to-end performance baseline: full run_once simulations at several
// overlay sizes plus a measure_tree micro-benchmark with a heap-allocation
// counter. This binary is the repo's perf trajectory anchor — run it via
//
//   ./build/bench/bench_e2e | ./build/tools/bench_to_json --label <label>
//
// and compare against the checked-in BENCH_e2e.json (see README "Performance").

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "experiments/runner.hpp"
#include "experiments/sweep.hpp"
#include "metrics/tree_metrics.hpp"
#include "net/graph_underlay.hpp"
#include "overlay/membership.hpp"
#include "sim/simulator.hpp"
#include "topology/transit_stub.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "wire/wire.hpp"

// ---------------------------------------------------------------- allocation
// Global-new instrumentation so the measure_tree micro can assert "zero heap
// allocations in steady state" instead of hand-waving it.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// aligned_alloc/malloc memory is interchangeable under free(); GCC's
// heuristic cannot see that across the replaced operator set.
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

namespace vdm {
namespace {

// ----------------------------------------------------------------- e2e runs

/// One complete paper-style experiment seed: build transit-stub substrate,
/// run the join/churn/measure timeline, aggregate epoch metrics.
void BM_RunOnceTransitStub(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.seed = 7;  // fixed seed: identical work every iteration and every run
  for (auto _ : state) {
    experiments::RunResult r = experiments::run_once(cfg);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RunOnceTransitStub)
    ->Arg(64)
    ->Arg(200)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// Runs `cfg` once to warm an arena, then times run_once into it and
/// reports the zero-allocation gate: arena_grow_per_iter and allocs_per_iter
/// must both read exactly 0 once the arena owns every buffer the shape
/// needs. arena_mb is the heap the arena holds after the timed loop
/// (deterministic per shape). Returns the last timed run's result.
experiments::RunResult run_warm(benchmark::State& state,
                                const experiments::RunConfig& cfg) {
  experiments::RunScratch scratch;
  benchmark::DoNotOptimize(experiments::run_once(cfg, scratch));  // warm

  const std::uint64_t grows_before = scratch.grow_events();
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  experiments::RunResult last;
  for (auto _ : state) {
    last = experiments::run_once(cfg, scratch);
    benchmark::DoNotOptimize(last);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const auto iters = static_cast<double>(state.iterations());
  state.counters["arena_grow_per_iter"] =
      static_cast<double>(scratch.grow_events() - grows_before) / iters;
  state.counters["allocs_per_iter"] = static_cast<double>(allocs) / iters;
  state.counters["arena_mb"] = static_cast<double>(scratch.capacity_bytes()) / (1 << 20);
  return last;
}

/// run_once under the full failure model: every churn departure is an
/// ungraceful crash, children run heartbeat detection, and the control
/// plane drops and retries messages. Tracks the cost of the fault path
/// (detection timers + orphan walks + retry draws) relative to
/// BM_RunOnceTransitStub at the same size.
void BM_RunOnceCrashChurn(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.scenario.churn_rate = 0.10;
  cfg.scenario.crash_fraction = 1.0;
  cfg.session.faults.heartbeat_period = 1.0;
  cfg.session.faults.heartbeat_misses = 3;
  cfg.session.faults.heartbeat_timeout = 0.5;
  cfg.session.faults.lossy_control = true;
  cfg.session.faults.control_loss_extra = 0.01;
  cfg.seed = 7;
  // Crash churn is the walk-heaviest configuration (every departure triggers
  // orphan reconnection walks) and the only one with a failure detector on
  // every member, so the alloc counters here gate the zero-allocation claim
  // of the TreeWalk path and the heartbeat slab: once the arena is warm, a
  // full run allocates nothing (allocs_per_iter == 0, like BM_RunOnceArena).
  const experiments::RunResult last = run_warm(state, cfg);
  // Share of simulator events that are periodic ticks (here the chunk
  // clock's: plain VDM runs no refinement) rather than one-shots;
  // deterministic per seed.
  state.counters["periodic_share"] =
      static_cast<double>(last.sim_periodic_fires) /
      static_cast<double>(last.sim_events);
}
BENCHMARK(BM_RunOnceCrashChurn)->Arg(200)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- sweeps

/// run_once into a warm per-worker arena — the steady-state unit of work a
/// sweep worker executes. arena_grow_per_iter must be exactly 0: after the
/// warmup run the scratch owns every buffer the run shape needs, so repeat
/// runs rebuild topology, routing state and collector storage in place.
/// The 2048-member row is BM_RunOnceTransitStub/2048 on a warm arena, the
/// zero-allocation gate of the largest transit-stub shape.
void BM_RunOnceArena(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.seed = 7;
  run_warm(state, cfg);
}
BENCHMARK(BM_RunOnceArena)->Arg(200)->Arg(2048)->Unit(benchmark::kMillisecond);

/// The paper_lossy_512 shape on a warm arena: VDM-L on the transit-stub
/// with every router link's loss drawn up to 2 % (Chapter 4), 2 chunks/s.
/// The only e2e row whose chunks take the lossy flood (every other row's
/// underlay is lossless, so its chunks are counted); allocs_per_iter and
/// arena_grow_per_iter must read 0 here too. trees_per_iter is the run's
/// Dijkstra tree count (RunResult::net_trees) and settled_per_iter the
/// vertices those trees settled (RunResult::net_settled), both
/// deterministic per seed.
void BM_RunOnceLossy(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.metric = experiments::Metric::kLoss;
  cfg.link_loss_max = 0.02;
  cfg.session.chunk_rate = 2.0;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.seed = 7;
  const experiments::RunResult last = run_warm(state, cfg);
  state.counters["trees_per_iter"] = static_cast<double>(last.net_trees);
  state.counters["settled_per_iter"] = static_cast<double>(last.net_settled);
}
BENCHMARK(BM_RunOnceLossy)->Arg(512)->Unit(benchmark::kMillisecond);

/// Trace-driven churn end to end: every iteration regenerates the Poisson
/// workload (same seed, same event list) and replays it through
/// ScenarioDriver::run_trace on the coordinate underlay. Measures the
/// workload engine's full path — generation, event scheduling, sustained
/// join/leave churn at Little's-law rate — on top of a warm arena.
/// arena_grow_per_iter must be exactly 0: the event list, the driver pool
/// and the collector slots all reach steady capacity on the warm run.
void BM_ChurnTrace(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kCoordPlane;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.workload.kind = overlay::WorkloadKind::kPoisson;
  cfg.workload.mean_session = 800.0;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.scenario.join_phase = 400.0;
  cfg.scenario.total_time = 1200.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.session.chunk_rate = 0.1;
  cfg.compute_mst_ratio = false;
  cfg.seed = 7;
  const experiments::RunResult last = run_warm(state, cfg);
  state.counters["final_members"] = static_cast<double>(last.final_members);
}
BENCHMARK(BM_ChurnTrace)->Arg(1024)->Unit(benchmark::kMillisecond);

/// run_once on the coordinate-embedded underlay: delay is O(1) from host
/// coordinates, so no router graph, no O(N^2) matrix, and run_once scales
/// to overlays two orders of magnitude past the paper's 200 members. The
/// timeline is compressed (fewer epochs) but streams at the deployment's 10
/// chunks/s (PAPER.md §2): on this lossless underlay each chunk is counted
/// from membership, so the 65536 row measures tree construction and churn,
/// not an edge-by-edge flood. arena_grow_per_iter must be exactly 0 after
/// the warm run, same contract as BM_RunOnceArena.
void BM_RunOnceCoord(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kCoordPlane;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = static_cast<std::size_t>(state.range(0));
  cfg.scenario.join_phase = 400.0;
  cfg.scenario.total_time = 1200.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.01;
  cfg.session.chunk_rate = 10.0;
  cfg.compute_mst_ratio = false;  // O(N^2) baseline would dominate at 65536
  cfg.seed = 7;
  run_warm(state, cfg);
}
BENCHMARK(BM_RunOnceCoord)
    ->Arg(2048)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

/// Flash crowd on the coordinate-embedded US underlay: a 1024-member
/// steady-state overlay absorbs range(0) simultaneous joiners through the
/// locating-first concurrent pipeline (DESIGN.md §10). joins_per_sec is the
/// sustained sim-time throughput of the burst cohort, startup_p99_ms the
/// tail attach latency. speedup_vs_sequential compares the same burst
/// through the baseline one-walk-at-a-time path (measured once, outside the
/// timed loop) — the gate requires >= 3x at 65536. arena_grow_per_iter must
/// be exactly 0 after the warm run, same contract as BM_RunOnceArena.
void BM_FlashCrowd(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kCoordUs;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = 1024;
  cfg.scenario.flash_count = static_cast<std::size_t>(state.range(0));
  cfg.scenario.flash_at = 400.0;
  cfg.scenario.join_phase = 400.0;
  cfg.scenario.total_time = 1200.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.01;
  cfg.session.chunk_rate = 0.1;
  cfg.session.join_mode = overlay::JoinMode::kConcurrent;
  cfg.compute_mst_ratio = false;
  cfg.seed = 7;

  experiments::RunConfig seq = cfg;
  seq.session.join_mode = overlay::JoinMode::kSequential;
  experiments::RunScratch scratch;
  const experiments::RunResult baseline = experiments::run_once(seq, scratch);

  benchmark::DoNotOptimize(experiments::run_once(cfg, scratch));  // warm
  const std::uint64_t grows_before = scratch.grow_events();
  double joins_per_sec = 0.0;
  double startup_p99 = 0.0;
  for (auto _ : state) {
    experiments::RunResult r = experiments::run_once(cfg, scratch);
    joins_per_sec = r.join_rate;
    startup_p99 = r.startup_p99;
    benchmark::DoNotOptimize(r);
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["joins_per_sec"] = joins_per_sec;
  state.counters["startup_p99_ms"] = startup_p99 * 1e3;
  state.counters["speedup_vs_sequential"] =
      baseline.join_rate > 0.0 ? joins_per_sec / baseline.join_rate : 0.0;
  state.counters["arena_grow_per_iter"] =
      static_cast<double>(scratch.grow_events() - grows_before) / iters;
  state.counters["arena_mb"] = static_cast<double>(scratch.capacity_bytes()) / (1 << 20);
}
BENCHMARK(BM_FlashCrowd)
    ->Arg(8192)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

/// A small paper-style grid (three overlay sizes x 4 seeds) through
/// run_grid. threads:1 is the serial reference; threads:0 lets the shared
/// pool size itself to the hardware — on a multi-core host the ratio of the
/// two rows is the sweep speedup (this is also what the determinism tests
/// pin: both rows produce bit-identical aggregates).
void BM_SweepGrid(benchmark::State& state) {
  std::vector<experiments::RunConfig> points;
  for (const std::size_t members : {64, 128, 200}) {
    experiments::RunConfig cfg;
    cfg.substrate = experiments::Substrate::kTransitStub;
    cfg.protocol = experiments::Proto::kVdm;
    cfg.scenario.target_members = members;
    cfg.seed = 7;
    points.push_back(cfg);
  }
  constexpr std::size_t kSeeds = 4;
  experiments::SweepOptions opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<experiments::AggregateResult> aggs =
        experiments::run_grid(points, kSeeds, opt);
    benchmark::DoNotOptimize(aggs);
  }
  state.counters["tasks"] = static_cast<double>(points.size() * kSeeds);
  state.counters["workers"] = static_cast<double>(
      util::TaskPool::global().workers_for(points.size() * kSeeds, opt.threads));
}
BENCHMARK(BM_SweepGrid)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

/// Strong scaling of a single-point seed sweep as the worker cap doubles.
/// speedup/efficiency are measured against the threads=1 row of the same
/// process run. On a single-core host every row collapses to ~1x — the
/// counters record what the hardware actually delivered, not an assumption.
void BM_RunManyScaling(benchmark::State& state) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = 64;
  cfg.seed = 7;
  constexpr std::size_t kSeeds = 8;
  const auto threads = static_cast<std::size_t>(state.range(0));

  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    experiments::AggregateResult agg = experiments::run_many(cfg, kSeeds, threads);
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    benchmark::DoNotOptimize(agg);
  }
  const double per_iter = seconds / static_cast<double>(state.iterations());

  static double serial_per_iter = 0.0;  // filled by the threads=1 row, which runs first
  if (threads == 1) serial_per_iter = per_iter;
  if (serial_per_iter > 0.0 && per_iter > 0.0) {
    const double speedup = serial_per_iter / per_iter;
    state.counters["speedup"] = speedup;
    state.counters["efficiency"] = speedup / static_cast<double>(threads);
  }
}
BENCHMARK(BM_RunManyScaling)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ event engine

/// The event engine alone: schedule/fire churn with a live timer population
/// the size of a paper run's (one timer per member plus in-flight control
/// events). allocs_per_iter must be exactly 0 — the slab, the indexed heap
/// and the inline callables make steady-state scheduling allocation-free.
void BM_SimScheduleFire(benchmark::State& state) {
  sim::Simulator s;
  std::uint64_t sink = 0;
  // Pre-grow slab and heap past the working set: 512 one-shot chains with
  // staggered periods (each firing schedules its successor, as a retry
  // backoff does), exercising schedule, cancel and slot reuse.
  struct Chain {
    sim::Simulator* s;
    std::uint64_t* sink;
    sim::Time period;
    void operator()() const {
      ++*sink;
      s->schedule_in(period, Chain{*this});
    }
  };
  constexpr int kTimers = 512;
  for (int i = 0; i < kTimers; ++i) {
    const sim::Time period = 0.5 + 0.001 * static_cast<sim::Time>(i);
    s.schedule_in(period, Chain{&s, &sink, period});
  }
  s.run(kTimers * 4);  // steady state before measuring
  // Warm with the exact batch shape below so the slab and heap reach the
  // measured loop's peak population before counting allocations.
  for (int i = 0; i < 64; ++i) {
    sim::EventId cancellable = s.schedule_in(0.25, [&sink] { ++sink; });
    s.schedule_in(0.25, [&sink] { ++sink; });
    s.cancel(cancellable);
    s.run(64);
  }

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    // One batch: a burst of cancellable one-shots (half cancelled, as churn
    // control traffic would be) riding on the chained timer population.
    sim::EventId cancellable = s.schedule_in(0.25, [&sink] { ++sink; });
    s.schedule_in(0.25, [&sink] { ++sink; });
    s.cancel(cancellable);
    s.run(64);
    benchmark::DoNotOptimize(sink);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimScheduleFire)->Unit(benchmark::kMicrosecond);

/// Per-member periodic timers alone: 10,000 members' timers on one 1 s
/// period (one ring) over a heap of 20,000 background one-off events
/// scattered across the next 1000 s (the up-front workload events); each
/// one that fires schedules a successor as far out, so the heap stays that
/// deep and ~20 of them interrupt each simulated second. One iteration is
/// one simulated second. ns_per_fire is wall time over every event fired;
/// allocs_per_iter must be exactly 0 once the ring, slab and heap are warm.
void BM_SimPeriodicTimers(benchmark::State& state) {
  constexpr std::uint32_t kMembers = 10000;
  constexpr int kBackground = 20000;
  sim::Simulator s;
  std::uint64_t sink = 0;
  // Stagger the members' phases over one period, as joins spread over time
  // do.
  for (std::uint32_t m = 0; m < kMembers; ++m) {
    s.run_until(static_cast<sim::Time>(m) / kMembers);
    s.schedule_every(1.0, [&sink, m] { sink += m; });
  }
  // Successor delays follow a Weyl sequence: deterministic and scattered
  // over the heap's key range.
  struct Background {
    sim::Simulator* s;
    std::uint64_t* sink;
    std::uint32_t weyl;
    void operator()() {
      ++*sink;
      const std::uint32_t next = weyl + 0x9e3779b9u;
      s->schedule_in(1000.0 * static_cast<sim::Time>(next >> 8) / (1u << 24),
                     Background{s, sink, next});
    }
  };
  for (int i = 0; i < kBackground; ++i) {
    Background{&s, &sink, static_cast<std::uint32_t>(i) * 2654435761u}();
  }
  s.run_until(s.now() + 3.0);  // steady state before measuring

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t fired_before = s.executed();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    s.run_until(s.now() + 1.0);
    benchmark::DoNotOptimize(sink);
  }
  const double ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const auto fired = static_cast<double>(s.executed() - fired_before);
  const auto iters = static_cast<double>(state.iterations());
  state.counters["allocs_per_iter"] = static_cast<double>(allocs) / iters;
  state.counters["fires_per_iter"] = fired / iters;
  state.counters["ns_per_fire"] = ns / fired;
}
BENCHMARK(BM_SimPeriodicTimers)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------- micro bench

struct TreeFixture {
  net::GraphUnderlay underlay;
  overlay::Membership tree;

  explicit TreeFixture(std::size_t members)
      : underlay(make_underlay(members)), tree(underlay.num_hosts()) {
    // Deterministic ternary tree over the first `members` hosts, host 0 as
    // the source; degree limit 4 leaves headroom like the paper's 2..5 range.
    for (net::HostId h = 0; h < members; ++h) tree.activate(h, 4);
    for (net::HostId h = 1; h < members; ++h) {
      const net::HostId parent = (h - 1) / 3;
      tree.attach(h, parent, underlay.rtt(parent, h));
    }
  }

  static net::GraphUnderlay make_underlay(std::size_t members) {
    util::Rng rng(42);
    topo::TransitStubParams tp;  // paper-size core: 792 routers
    topo::HostAttachment hp;
    hp.num_hosts = members;
    return topo::make_transit_stub_underlay(tp, hp, rng);
  }
};

/// measure_tree the way Collector::capture runs it: reusable scratch, warm
/// caches. allocs_per_iter must be exactly 0 — that is the zero-allocation
/// acceptance gate of the fast path.
void BM_MeasureTreeScratch(benchmark::State& state) {
  TreeFixture fx(static_cast<std::size_t>(state.range(0)));
  metrics::TreeMetricsScratch scratch;
  benchmark::DoNotOptimize(metrics::measure_tree(fx.tree, 0, fx.underlay, scratch));

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    metrics::TreeMetrics m = metrics::measure_tree(fx.tree, 0, fx.underlay, scratch);
    benchmark::DoNotOptimize(m);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MeasureTreeScratch)->Arg(200)->Unit(benchmark::kMicrosecond);

/// measure_tree via the convenience overload (per-call scratch).
void BM_MeasureTree(benchmark::State& state) {
  TreeFixture fx(static_cast<std::size_t>(state.range(0)));
  // Warm every routing/pair cache so the loop measures steady state.
  benchmark::DoNotOptimize(metrics::measure_tree(fx.tree, 0, fx.underlay));

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    metrics::TreeMetrics m = metrics::measure_tree(fx.tree, 0, fx.underlay);
    benchmark::DoNotOptimize(m);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MeasureTree)->Arg(200)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------- wire codec

/// Encode + decode one of every control message plus a full-MTU chunk — the
/// per-datagram cost every vdmd exchange pays twice. allocs_per_iter must be
/// exactly 0: encode writes into a caller span, decode reads views out of
/// the frame (the codec's zero-allocation contract, DESIGN.md §14).
void BM_WireCodec(benchmark::State& state) {
  std::array<std::byte, wire::kMaxPayload - 12> body{};
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::byte>(i * 31);
  }
  const std::array<wire::Message, 8> messages = {
      wire::Message{wire::Hello{.listen_port = 9000}},
      wire::Message{wire::Welcome{.host_id = 17, .num_hosts = 33}},
      wire::Message{wire::ProbeRequest{
          .token = 5, .target_host = 9, .target_ip = 0x7f000001, .target_port = 4242}},
      wire::Message{wire::ProbeReply{.token = 5, .target_host = 9, .rtt_seconds = 0.031}},
      wire::Message{wire::SetParent{
          .token = 6, .parent_host = 3, .parent_ip = 0x7f000001, .parent_port = 4243}},
      wire::Message{wire::Heartbeat{.from_host = 17, .seq = 12345}},
      wire::Message{wire::StatsReply{.token = 7,
                                     .host = 17,
                                     .chunks_received = 1000,
                                     .chunks_relayed = 999,
                                     .heartbeats_sent = 40,
                                     .control_received = 80}},
      wire::Message{wire::Chunk{.seq = 42, .emitted_at = 1.5, .payload = body}},
  };

  std::array<std::byte, wire::kMaxFrame> frame;
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (const wire::Message& m : messages) {
      const std::size_t n = wire::encode(m, frame);
      wire::Message out;
      const wire::DecodeError err =
          wire::decode(std::span<const std::byte>(frame.data(), n), out);
      benchmark::DoNotOptimize(out);
      if (!err.ok()) state.SkipWithError("decode failed");
      bytes += n;
    }
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  state.counters["messages_per_iter"] = static_cast<double>(messages.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WireCodec)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vdm

BENCHMARK_MAIN();
