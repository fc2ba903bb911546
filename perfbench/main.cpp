// vdm_perfbench: the repository's benchmark of record.
//
//   vdm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <file>]
//   vdm_perfbench --smoke
//
// --trace 0 measures the end-to-end metrics: serial run_once calls on one
// warm RunScratch for --seconds, cycling over the workload's simulation
// seeds, plus the set-up time and the process's peak memory. --trace 1
// measures the per-layer metrics: untraced run_once and the traced
// composition (layers.hpp) in pairs, then one run with the session's phase
// profile on to cross-check the outside-in split. Both check every run's
// outputs and end with one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --smoke runs toy-size versions of every workload and exits non-zero
// unless traced == untraced bit for bit.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "experiments/runner.hpp"
#include "layers.hpp"
#include "overlay/workload.hpp"
#include "workloads.hpp"

// ---------------------------------------------------------------- allocations
// Global operator new replaced in this binary only, so the per-layer run
// can count the heap allocations of one warm run_once.

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

namespace {

namespace ex = vdm::experiments;
namespace ov = vdm::overlay;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Metrics of the final JSON line, in insertion order.
class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Pass/fail bookkeeping: every run is one operation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
};

ex::RunConfig config_for(const Workload& w, std::uint64_t seed, std::size_t i) {
  ex::RunConfig c = w.config;
  c.seed = perfbench::sub_seed(seed, i);
  return c;
}

/// Prints the hexfloat digest of one run's scalars, so a drift between two
/// builds names the scalar that moved.
void print_digest(std::string_view workload, std::uint64_t seed,
                  const ex::RunResult& r) {
  std::printf("digest %.*s seed=%llu", static_cast<int>(workload.size()),
              workload.data(), static_cast<unsigned long long>(seed));
  for (const perfbench::Scalar& s : perfbench::scalars(r)) {
    std::printf(" %.*s=%a", static_cast<int>(s.name.size()), s.name.data(),
                s.value);
  }
  std::printf("\n");
}

/// Output checks shared by every run: the final membership the workload
/// implies, and bitwise equality with the first run of the same seed.
class Checker {
 public:
  Checker(const Workload& w, std::uint64_t seed, Tally& tally)
      : w_(w), seed_(seed), tally_(tally), expected_(w.sub_seeds),
        reference_(w.sub_seeds) {}

  /// Checks `r` as a run of simulation seed `i`; the first run of each seed
  /// becomes its reference.
  void check(std::size_t i, const ex::RunResult& r, std::string_view what) {
    if (!expected_[i]) {
      expected_[i] = perfbench::expected_final_members(config_for(w_, seed_, i));
    }
    const std::string tag = std::string(w_.name) + " seed " +
                            std::to_string(perfbench::sub_seed(seed_, i)) + " " +
                            std::string(what);
    if (r.final_members != *expected_[i]) {
      tally_.fail(tag + ": final_members " + std::to_string(r.final_members) +
                  " != expected " + std::to_string(*expected_[i]));
    }
    if (!reference_[i]) {
      reference_[i] = r;
    } else if (!perfbench::bitwise_equal(r, *reference_[i])) {
      tally_.fail(tag + ": simulated scalars differ from the first run");
      print_digest(w_.name, perfbench::sub_seed(seed_, i), *reference_[i]);
      print_digest(w_.name, perfbench::sub_seed(seed_, i), r);
    }
  }

  const std::optional<ex::RunResult>& reference(std::size_t i) const {
    return reference_[i];
  }

 private:
  const Workload& w_;
  std::uint64_t seed_;
  Tally& tally_;
  std::vector<std::optional<std::size_t>> expected_;
  std::vector<std::optional<ex::RunResult>> reference_;
};

/// Host seconds and heap allocations of one run.
struct RunCost {
  double secs = 0.0;
  std::uint64_t allocs = 0;
};

/// One run_once of simulation seed `i`, timed and checked; nullopt when it
/// threw.
std::optional<ex::RunResult> timed_run(const Workload& w, std::uint64_t seed,
                                       std::size_t i, ex::RunScratch& scratch,
                                       Checker& checker, Tally& tally,
                                       RunCost& cost, bool profile = false) {
  ex::RunConfig cfg = config_for(w, seed, i);
  cfg.session.profile = profile;
  ++tally.attempted;
  try {
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    ex::RunResult r = ex::run_once(cfg, scratch);
    cost.secs = seconds_since(t0);
    cost.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    std::printf("run %.*s seed=%llu%s %.6f s\n", static_cast<int>(w.name.size()),
                w.name.data(), static_cast<unsigned long long>(cfg.seed),
                profile ? " profiled" : "", cost.secs);
    checker.check(i, r, profile ? "profiled run_once" : "run_once");
    return r;
  } catch (const std::exception& e) {
    tally.fail(std::string(w.name) + " run_once threw: " + e.what());
    return std::nullopt;
  }
}

/// Builds the substrate and the workload event list of `cfg` with the
/// public builders; returns host seconds.
double time_setup(const ex::RunConfig& cfg) {
  const Clock::time_point t0 = Clock::now();
  const vdm::util::Rng root(cfg.seed);
  vdm::util::Rng topo_rng = root.split(1);
  vdm::util::Rng scenario_rng = root.split(2);
  const std::unique_ptr<vdm::net::Underlay> underlay =
      perfbench::build_underlay(cfg, topo_rng);
  std::vector<ov::WorkloadEvent> events;
  if (cfg.workload.kind != ov::WorkloadKind::kSlots) {
    ov::generate_workload(cfg.scenario, cfg.workload, cfg.host_pool,
                          /*source=*/0, scenario_rng, events);
  }
  const double secs = seconds_since(t0);
  if (underlay->num_hosts() != cfg.host_pool) {
    throw std::runtime_error("set-up built the wrong host count");
  }
  return secs;
}

/// Set-up times of a workload: each sample sets up every simulation seed
/// once and keeps the mean per seed, so a regression on any seed shows.
class SetupSamples {
 public:
  SetupSamples(const Workload& w, std::uint64_t seed, Tally& tally)
      : w_(w), seed_(seed), tally_(tally) {}

  /// Takes at least `n` samples, and more until `secs` have passed; a
  /// throw fails the run once and stops sampling.
  void take(std::size_t n, double secs = 0.0) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t rep = 0;
         !broken_ && (rep < n || seconds_since(t0) < secs); ++rep) {
      double sum = 0.0;
      try {
        for (std::size_t i = 0; i < w_.sub_seeds; ++i) {
          sum += time_setup(config_for(w_, seed_, i));
        }
      } catch (const std::exception& e) {
        ++tally_.attempted;
        tally_.fail(std::string(w_.name) + " set-up threw: " + e.what());
        broken_ = true;
        return;
      }
      samples_.push_back(sum / static_cast<double>(w_.sub_seeds));
    }
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  const Workload& w_;
  std::uint64_t seed_;
  Tally& tally_;
  std::vector<double> samples_;
  bool broken_ = false;
};

// ------------------------------------------------------------- end to end

/// Set-up samples taken before the first run, and after each timed run:
/// at least kSetupPerRun, and more for kSetupShare of the run's time.
constexpr std::size_t kSetupFresh = 9;
constexpr std::size_t kSetupPerRun = 3;
constexpr double kSetupShare = 0.02;

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Tally tally;
  Checker checker(w, seed, tally);
  Report report;
  const std::size_t k = w.sub_seeds;

  // Set-up samples in the fresh process, then more after every timed run,
  // so that they span the whole measurement and not one moment of the host.
  SetupSamples setup(w, seed, tally);
  setup.take(kSetupFresh);

  // Warm-up run on a fresh scratch, then timed passes over every seed: at
  // least two, and more while another whole pass fits in `seconds`.
  ex::RunScratch scratch;
  RunCost cost;
  timed_run(w, seed, 0, scratch, checker, tally, cost);
  std::vector<std::vector<double>> times(k);
  const Clock::time_point start = Clock::now();
  double pass_s = 0.0;
  std::size_t passes = 0;
  do {
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < k; ++i) {
      if (timed_run(w, seed, i, scratch, checker, tally, cost)) {
        times[i].push_back(cost.secs);
      }
      setup.take(kSetupPerRun, kSetupShare * cost.secs);
    }
    pass_s = seconds_since(pass_start);
    ++passes;
  } while (passes < 2 || seconds_since(start) + pass_s <= seconds);

  // Host time: per seed the fastest of its timed runs, then the mean over
  // the seeds. Interference from other tenants of a shared host only ever
  // adds time and comes in spells that can cover several runs, so the
  // minimum is the per-seed estimate it moves least; the mean keeps every
  // seed's cost in the figure.
  double run_s = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (times[i].empty()) {
      tally.fail(std::string(w.name) + ": a simulation seed has no timed run");
      continue;
    }
    const double best = *std::min_element(times[i].begin(), times[i].end());
    run_s += best / static_cast<double>(k);
    std::printf("times %.*s seed=%llu: %zu timed runs, min %.6f s, median "
                "%.6f s\n", static_cast<int>(w.name.size()), w.name.data(),
                static_cast<unsigned long long>(perfbench::sub_seed(seed, i)),
                times[i].size(), best, median(times[i]));
  }
  // Set-up time: the fastest sample, for the same reason. Whether a sample
  // lands after a run, and whether the allocator hands it fresh pages,
  // splits the samples into modes whose mix varies from process to process,
  // so their median spreads several times wider across processes.
  const std::vector<double>& setups = setup.samples();
  const double setup_s =
      setups.empty() ? 0.0 : *std::min_element(setups.begin(), setups.end());
  std::printf("setup %.*s: %zu samples, min %.6g s, median %.6g s\n",
              static_cast<int>(w.name.size()), w.name.data(), setups.size(),
              setup_s, median(setups));

  // Simulated scalars: mean over the simulation seeds.
  double hopcount = 0.0;
  double overhead = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::optional<ex::RunResult>& r = checker.reference(i);
    if (!r) {
      tally.fail(std::string(w.name) + ": a simulation seed never completed");
      continue;
    }
    print_digest(w.name, perfbench::sub_seed(seed, i), *r);
    hopcount += r->hopcount / static_cast<double>(k);
    overhead += r->overhead / static_cast<double>(k);
  }

  report.add("run_s", run_s, "s");
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("hopcount", hopcount, "hops");
  report.add("overhead", overhead, "ratio");
  report.print(tally.failed == 0, tally.attempted, tally.failed);
  return tally.failed == 0 ? 0 : 1;
}

// -------------------------------------------------------------- per layer

/// The underlay decorator hides CoordUnderlay from the placement index's
/// dynamic_cast, which would move a locating or concurrent run off its grid
/// fast path (and change its tree), so those runs leave net.* unmeasured.
bool can_wrap_underlay(const Workload& w) {
  return w.config.session.join_mode == ov::JoinMode::kSequential;
}

std::optional<perfbench::TracedRun> checked_trace(const Workload& w,
                                                  std::uint64_t seed,
                                                  std::size_t i,
                                                  Checker& checker,
                                                  Tally& tally) {
  ++tally.attempted;
  try {
    perfbench::TracedRun t =
        perfbench::traced_run(config_for(w, seed, i), can_wrap_underlay(w));
    checker.check(i, t.result, "traced run");
    return t;
  } catch (const std::exception& e) {
    tally.fail(std::string(w.name) + " traced run failed: " + e.what());
    return std::nullopt;
  }
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

int run_layers(const Workload& w, std::uint64_t seed, double seconds,
               const std::string& spans_path) {
  using perfbench::LayerStats;
  Tally tally;
  Checker checker(w, seed, tally);
  Report report;
  const std::size_t k = w.sub_seeds;

  // Warm-up on a fresh scratch; every simulation seed's traced run must
  // reproduce its untraced scalars.
  const Clock::time_point start = Clock::now();
  ex::RunScratch scratch;
  RunCost cost;
  for (std::size_t i = 0; i < k; ++i) {
    timed_run(w, seed, i, scratch, checker, tally, cost);
    checked_trace(w, seed, i, checker, tally);
  }

  // Untraced/traced pairs on the first seed while another pair fits in
  // `seconds`, warm-up included (at least one pair).
  std::vector<double> untraced_s;
  std::vector<LayerStats> layers;
  std::optional<perfbench::TracedRun> last;
  std::uint64_t allocs = 0;
  double pair_s = 0.0;
  do {
    const Clock::time_point pair_start = Clock::now();
    if (timed_run(w, seed, 0, scratch, checker, tally, cost)) {
      untraced_s.push_back(cost.secs);
      allocs = cost.allocs;
    }
    if (std::optional<perfbench::TracedRun> t =
            checked_trace(w, seed, 0, checker, tally)) {
      layers.push_back(t->layers);
      last = std::move(t);
    }
    pair_s = seconds_since(pair_start);
  } while (seconds_since(start) + pair_s <= seconds);
  if (layers.empty() || untraced_s.empty()) {
    tally.fail(std::string(w.name) + ": no traced/untraced pair completed");
    report.print(false, tally.attempted, tally.failed);
    return 1;
  }

  // The session's own phase profile for the same seed.
  const std::optional<ex::RunResult> profiled =
      timed_run(w, seed, 0, scratch, checker, tally, cost, /*profile=*/true);
  const double profiled_s = cost.secs;

  // Counts repeat exactly across traced runs of one seed.
  const LayerStats& c = layers.front();
  for (const LayerStats& l : layers) {
    if (l.sim_events != c.sim_events || l.walk_steps != c.walk_steps ||
        l.probes != c.probes || l.delay_reads != c.delay_reads ||
        l.join_calls != c.join_calls || l.drains != c.drains ||
        l.totals.data_transmissions != c.totals.data_transmissions) {
      tally.fail(std::string(w.name) + ": traced counts differ between runs");
    }
  }
  const auto med = [&layers](auto field) {
    std::vector<double> v;
    for (const LayerStats& l : layers) v.push_back(field(l));
    return median(std::move(v));
  };
  const double run_s = med([](const LayerStats& l) { return l.run_s; });
  const double residual = med([](const LayerStats& l) { return l.residual_s(); });
  const double join_s = med([](const LayerStats& l) { return l.join_s; });
  const double walk_s =
      med([](const LayerStats& l) { return l.join_s + l.refine_s; });
  const double capture_s = med([](const LayerStats& l) { return l.capture_s; });
  const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };

  report.add("topology.build_s",
             med([](const LayerStats& l) { return l.topology_build_s; }), "s");
  report.add("workload.setup_s",
             med([](const LayerStats& l) { return l.workload_setup_s; }), "s");
  report.add("workload.events", u64(c.workload_events), "count");
  report.add("sim.events", u64(c.sim_events), "count");
  report.add("sim.ns_per_event", 1e9 * ratio(residual, u64(c.sim_events)), "ns");
  report.add("session.residual_s", residual, "s");
  report.add("session.residual_share", ratio(residual, run_s), "ratio");
  report.add("flood.chunks", u64(c.totals.chunks_emitted), "count");
  report.add("flood.edge_visits", u64(c.totals.data_transmissions), "count");
  report.add("flood.ns_per_edge_visit",
             1e9 * ratio(residual, u64(c.totals.data_transmissions)), "ns");
  report.add("session.joins", u64(c.totals.joins_completed), "count");
  report.add("session.reconnects", u64(c.totals.reconnects_completed), "count");
  report.add("session.control_messages", u64(c.totals.control_messages), "count");
  report.add("walk.join_calls", u64(c.join_calls), "count");
  report.add("walk.drains", u64(c.drains), "count");
  report.add("walk.join_s", join_s, "s");
  report.add("walk.steps", u64(c.walk_steps), "count");
  report.add("walk.ns_per_step", 1e9 * ratio(walk_s, u64(c.walk_steps)), "ns");
  report.add("metric.probes", u64(c.probes), "count");
  report.add("net.delay_reads", u64(c.delay_reads), "count");
  report.add("net.loss_reads", u64(c.loss_reads), "count");
  report.add("net.path_link_visits", u64(c.path_link_visits), "count");
  report.add("metrics.captures", u64(c.captures), "count");
  report.add("metrics.capture_s", capture_s, "s");
  report.add("metrics.final_s",
             med([](const LayerStats& l) { return l.final_s; }), "s");
  report.add("mem.allocs_per_run", u64(allocs), "count");
  report.add("mem.arena_bytes", u64(scratch.capacity_bytes()), "bytes");
  // A traced run can come out faster than an untraced one by noise alone;
  // clamped so that lower is better.
  report.add("trace.overhead_s", std::max(0.0, run_s - median(untraced_s)), "s");

  // Tree quality of the traced seed: seed-to-seed spread is too wide for an
  // end-to-end bound at these run lengths (see README.md).
  const ex::RunResult& tree = last->result;
  report.add("tree.stretch", tree.stretch, "ratio");
  report.add("tree.stress", tree.stress, "ratio");
  report.add("tree.loss_rate", tree.loss, "ratio");
  report.add("tree.startup_p99_s", tree.startup_p99, "s");
  report.add("tree.reconnect_avg_s", tree.reconnect_avg, "s");
  report.add("tree.outage_avg_s", tree.outage_avg, "s");

  // Outside-in split against the session's phase profile. Join and flood
  // come from the traced run itself, whose session has the profile on, so
  // host-speed drift between runs cannot enter: walk.join_s against the
  // profile's join, the residual against its flood (the residual also holds
  // timers, churn handling and the event engine). The capture time is
  // measured by run_once, so it comes from the separate profiled run. Gaps
  // are absolute, |outside / inside - 1|, so that lower is better.
  {
    const auto gap = [&](auto outside, auto inside) {
      return med([&](const LayerStats& l) {
               return std::fabs(ratio(outside(l), inside(l)) - 1.0);
             });
    };
    report.add("xcheck.join_gap",
               gap([](const LayerStats& l) { return l.join_s; },
                   [](const LayerStats& l) { return l.profile.join_secs; }),
               "ratio");
    report.add("xcheck.flood_gap",
               gap([](const LayerStats& l) { return l.residual_s(); },
                   [](const LayerStats& l) { return l.profile.flood_secs; }),
               "ratio");
    const ex::RunResult prof = profiled.value_or(ex::RunResult{});
    report.add("xcheck.metrics_gap",
               std::fabs(ratio(capture_s, prof.profile_metrics_secs) - 1.0),
               "ratio");
    std::printf("profile %.*s: run %.4f s = join %.4f + refine %.4f + flood "
                "%.4f + metrics %.4f + unattributed %.4f\n",
                static_cast<int>(w.name.size()), w.name.data(), profiled_s,
                prof.profile_join_secs, prof.profile_refine_secs,
                prof.profile_flood_secs, prof.profile_metrics_secs,
                profiled_s - prof.profile_join_secs - prof.profile_refine_secs -
                    prof.profile_flood_secs - prof.profile_metrics_secs);
  }
  std::printf("split %.*s: traced run %.4f s (untraced %.4f s) = setup %.4f + "
              "walks %.4f + captures %.4f + residual %.4f + final %.4f; "
              "%zu traced runs\n",
              static_cast<int>(w.name.size()), w.name.data(), run_s,
              median(untraced_s),
              med([](const LayerStats& l) {
                return l.topology_build_s + l.workload_setup_s;
              }),
              walk_s, capture_s, residual,
              med([](const LayerStats& l) { return l.final_s; }), layers.size());
  if (!c.net_measured) {
    std::printf("unmeasured %.*s: net.* (the placement index needs the bare "
                "CoordUnderlay)\n",
                static_cast<int>(w.name.size()), w.name.data());
  }
  print_digest(w.name, perfbench::sub_seed(seed, 0), tree);
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    perfbench::write_spans(out, last->spans);
    if (!out) tally.fail("cannot write spans to " + spans_path);
  }
  report.print(tally.failed == 0, tally.attempted, tally.failed);
  return tally.failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ smoke

/// Toy-size workloads: two untraced runs, one profiled run and one traced
/// run per simulation seed, all bit-identical.
int run_smoke() {
  Tally tally;
  for (const Workload& w : perfbench::workloads(/*smoke=*/true)) {
    const std::uint64_t failed_before = tally.failed;
    for (const std::uint64_t seed : {1u, 2u}) {
      Checker checker(w, seed, tally);
      ex::RunScratch scratch;
      RunCost cost;
      for (std::size_t i = 0; i < w.sub_seeds; ++i) {
        timed_run(w, seed, i, scratch, checker, tally, cost);
        timed_run(w, seed, i, scratch, checker, tally, cost);
        timed_run(w, seed, i, scratch, checker, tally, cost, /*profile=*/true);
        checked_trace(w, seed, i, checker, tally);
      }
    }
    std::printf("smoke %.*s: %s\n", static_cast<int>(w.name.size()),
                w.name.data(), tally.failed == failed_before ? "ok" : "FAILED");
  }
  std::printf("smoke: %llu runs, %llu failed\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s --workload <name> --seed <n> --seconds <s> "
                   "--trace <0|1> [--spans <file>] | --smoke\n", argv[0]);
      return 2;
    }
  }
  if (smoke) return run_smoke();
  if (seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "--seconds must be positive and --trace 0 or 1\n");
    return 2;
  }
  for (const Workload& w : perfbench::workloads(/*smoke=*/false)) {
    if (w.name != workload) continue;
    return trace == 1 ? run_layers(w, seed, seconds, spans_path)
                      : run_end_to_end(w, seed, seconds);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
