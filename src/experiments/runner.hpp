#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "metrics/collector.hpp"
#include "overlay/journal.hpp"
#include "overlay/scenario.hpp"
#include "overlay/session.hpp"
#include "overlay/workload.hpp"
#include "util/stats.hpp"

namespace vdm::experiments {

/// Which substrate a run simulates on.
enum class Substrate {
  kTransitStub,  ///< GT-ITM-style router graph (Chapter 3/4 setting)
  kWaxman,       ///< flat Waxman router graph (robustness cross-check)
  kGeoUs,        ///< PlanetLab-like latency space, US-only pool (Chapter 5)
  kGeoWorld,     ///< PlanetLab-like latency space, world-wide pool
  kCoordUs,      ///< coordinate-embedded underlay, US geo placement (O(1) delay)
  kCoordWorld,   ///< coordinate-embedded underlay, world geo placement
  kCoordPlane,   ///< coordinate-embedded underlay, synthetic uniform plane
};

enum class Proto { kVdm, kVdmRefine, kHmtp, kBtp, kRandom };

enum class Metric { kDelay, kLoss, kBlend, kCachedDelay, kCachedLoss };

/// Complete description of one experiment run (or one seed of a family).
struct RunConfig {
  Substrate substrate = Substrate::kTransitStub;
  Proto protocol = Proto::kVdm;
  Metric metric = Metric::kDelay;

  overlay::ScenarioParams scenario;
  overlay::SessionParams session;
  /// Membership process. kSlots compiles the classic churn-slot (or
  /// batched) timeline and the synthetic kinds generate theirs, both from
  /// the scenario rng stream; kTrace loads `workload.trace_path`. Every
  /// kind runs as an event list (ScenarioDriver::run_trace).
  overlay::WorkloadParams workload;

  /// Host pool size; 0 = auto (enough spare hosts for churn joins).
  std::size_t host_pool = 0;
  /// Number of routers for router-graph substrates; 0 = paper default.
  std::size_t routers = 0;

  /// Per-link random error-rate ceiling for router substrates (Chapter 4:
  /// "each physical link is assigned a random error rate between 0% and 2%")
  /// or per-pair ceiling for geo substrates.
  double link_loss_max = 0.0;
  /// Multiplicative RTT measurement noise (std dev) — the PlanetLab-like
  /// imperfection of probes.
  double probe_noise = 0.0;

  /// Protocol tuning (ablation knobs; defaults follow the paper).
  double vdm_epsilon = 0.0;
  double vdm_case2_descend_ratio = 0.0;
  sim::Time vdm_refine_period = sim::minutes(3);
  bool hmtp_refinement = true;
  sim::Time hmtp_refine_period = sim::seconds(30);
  bool hmtp_foster_child = false;

  /// Compute the final-tree MST ratio (Figure 5.31). The baseline is an
  /// O(N^2) Prim pass over the surviving members — negligible at paper
  /// scale, dominant at coordinate-substrate scale (100k+ members), so
  /// large-N runs switch it off and report mst_ratio = 1.0.
  bool compute_mst_ratio = true;

  /// Epochs dropped from scalar aggregation (the join-phase epoch is noisy).
  std::size_t epoch_skip = 1;
  /// Retain the full epoch series in the result: the Chapter-4 time plots
  /// and the trajectory of workload runs (vdmsim --trajectory).
  bool keep_epochs = false;

  /// Tracing hook: installed on the protocol so every tree walk (join,
  /// reconnect, refine) reports per-iteration steps (vdmsim --trace-joins).
  /// Not owned; must outlive the run. Leave null for normal runs.
  overlay::WalkObserver* walk_observer = nullptr;
  /// Membership sink: records the run's attaches and detaches (vdmsim
  /// --journal). It keeps the first run it sees, so a sweep records its
  /// first seed. Not owned; must outlive the run. Leave null for normal
  /// runs.
  overlay::MembershipJournal* journal = nullptr;

  std::uint64_t seed = 1;
};

/// Scalars of one run: epoch means (after epoch_skip) plus event timings.
struct RunResult {
  double stress = 0.0;
  double stress_max = 0.0;
  double stretch = 0.0;
  double stretch_leaf = 0.0;
  double stretch_max = 0.0;
  double stretch_min = 0.0;
  double hopcount = 0.0;
  double hop_leaf = 0.0;
  double hop_max = 0.0;
  double loss = 0.0;
  double overhead = 0.0;
  double overhead_per_chunk = 0.0;
  double network_usage = 0.0;
  double startup_avg = 0.0;
  double startup_max = 0.0;
  /// Startup-time distribution tails (flash-crowd headline numbers). Not
  /// part of the golden scalar list — goldens pin the paper-era fields.
  double startup_p50 = 0.0;
  double startup_p99 = 0.0;
  /// Sustained join throughput of the largest same-instant arrival cohort
  /// (the flash crowd when one was scheduled): cohort size over its
  /// makespan, in joins per sim-second. Degenerates to 1/startup for
  /// scattered arrivals.
  double join_rate = 0.0;
  double reconnect_avg = 0.0;
  double reconnect_max = 0.0;
  /// Crash-detection latency and full outage (detection + rejoin) over the
  /// run's crash recoveries; 0 when no crash churn (or no heartbeats) ran.
  double detection_avg = 0.0;
  double detection_max = 0.0;
  double outage_avg = 0.0;
  double outage_max = 0.0;
  /// Tree-cost / MST-cost on the final settled tree (Figure 5.31).
  double mst_ratio = 1.0;
  std::size_t final_members = 0;

  /// Event-engine work, exact and deterministic per seed: events fired
  /// (Simulator::executed) and, of those, the periodic timers' ticks rather
  /// than one-shots (Simulator::periodic_fires).
  std::uint64_t sim_events = 0;
  std::uint64_t sim_periodic_fires = 0;
  /// Shortest-path trees the router graph's Router computed during the run
  /// (net::Router::trees_computed) and the vertices they settled
  /// (net::Router::vertices_settled); 0 on coordinate and matrix underlays.
  std::uint64_t net_trees = 0;
  std::uint64_t net_settled = 0;
  /// The session's whole-run counts (Session::totals()): messages, chunks,
  /// joins, and timer work such as heartbeat ticks and crash verdicts.
  overlay::Session::Counters totals;

  /// Wall-clock seconds per phase (vdmsim --profile); all zero unless
  /// config.session.profile. join covers every attaching walk (fresh,
  /// batched and reconnect), metrics the collector's capture sweeps.
  double profile_join_secs = 0.0;
  double profile_refine_secs = 0.0;
  double profile_flood_secs = 0.0;
  double profile_metrics_secs = 0.0;

  std::vector<metrics::EpochSample> epochs;  // only if keep_epochs
};

/// Reusable per-worker working memory for run_once: topology construction
/// buffers, the underlay (graph, router caches, host-pair cache), and the
/// collector's epoch storage. One scratch belongs to one worker; handing the
/// same scratch to consecutive runs rebuilds every structure in place, so a
/// steady-state sweep performs no scaffolding allocations after the first
/// run of each shape. Results are bit-identical to scratch-free runs.
class RunScratch {
 public:
  RunScratch();
  ~RunScratch();
  RunScratch(RunScratch&&) noexcept;
  RunScratch& operator=(RunScratch&&) noexcept;

  /// Runs whose end-of-run arena capacity exceeded every earlier run's (the
  /// first run on a fresh scratch always grows). A steady-state sweep holds
  /// this constant — the alloc counter proving arena reuse.
  std::uint64_t grow_events() const;
  /// Heap bytes currently reserved across all arena-managed buffers.
  std::size_t capacity_bytes() const;

  /// Opaque storage (definition local to runner.cpp).
  struct Impl;

 private:
  friend RunResult run_once(const RunConfig& config, RunScratch& scratch);
  std::unique_ptr<Impl> impl_;
};

/// The exact WorkloadEvent list `config` executes, built by the same code
/// run_once uses (same seed, same pool → same events; kTrace loads the
/// file). Lets callers save a run's trace (vdmsim --save-trace) knowing it
/// replays the run bit for bit.
void workload_events(const RunConfig& config,
                     std::vector<overlay::WorkloadEvent>& out);

/// Executes one seed end to end: build substrate, run scenario, measure.
RunResult run_once(const RunConfig& config);

/// Arena variant: identical output, but topology/underlay/collector storage
/// comes from (and returns to) `scratch`.
RunResult run_once(const RunConfig& config, RunScratch& scratch);

/// Seed-aggregated statistics (one Summary per metric, paper-style 90% CI).
struct AggregateResult {
  util::Summary stress, stretch, stretch_leaf, stretch_max, hopcount, hop_leaf,
      hop_max, loss, overhead, overhead_per_chunk, network_usage, startup_avg,
      startup_max, startup_p50, startup_p99, join_rate, reconnect_avg,
      reconnect_max, detection_avg, detection_max, outage_avg, outage_max,
      mst_ratio;
  std::vector<RunResult> runs;
};

/// Runs `num_seeds` independent seeds (config.seed + i) on up to `threads`
/// workers (0 = hardware concurrency) and aggregates. A thin wrapper over
/// run_grid (sweep.hpp) with a single grid point: shared task pool,
/// per-worker arenas, deterministic index-ordered aggregation.
AggregateResult run_many(const RunConfig& config, std::size_t num_seeds,
                         std::size_t threads = 0);

/// Reads the VDM_FULL environment knob: returns `fast` seeds normally and
/// `full` (paper-scale) seeds when VDM_FULL=1. Lets `bench/figures` finish
/// quickly by default; its entries take the result as the seed count when
/// --seeds does not give one.
std::size_t default_seeds(std::size_t fast, std::size_t full);

}  // namespace vdm::experiments
