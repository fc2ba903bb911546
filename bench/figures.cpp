// Reproduces the paper's evaluation figures, plus ablations and two sweeps
// beyond the paper, as console tables:
//
//   figures [ENTRY...] [--seeds N] [--members N] [--threads N] [--seed N]
//           [--mean-session S]
//
// Each entry prints the series its figures plot, one banner and table per
// panel, with the paper's expectation quoted above the table. No entry name
// runs every entry, in the order of kEntries (`--help` lists them). Each
// entry keeps its own defaults; `--members`, `--seed` and `--mean-session`
// apply to the entries that have such a knob. Defaults finish in seconds;
// VDM_FULL=1 (or --seeds) restores paper-scale seed counts. Any other flag
// or entry name exits 2. See EXPERIMENTS.md for measured-vs-paper verdicts.

#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/hmtp_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "experiments/runner.hpp"
#include "experiments/sweep.hpp"
#include "overlay/walk.hpp"
#include "overlay/workload.hpp"
#include "testbed/controller.hpp"
#include "testbed/node_pool.hpp"
#include "testbed/report.hpp"
#include "testbed/scenario_file.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace vdm;
using namespace vdm::experiments;

namespace {

// ------------------------------------------------------------------ options

/// The command line's flags, parsed once before any entry runs. An unset
/// flag (neither given nor in its VDM_<NAME> variable) takes the reading
/// entry's own default.
struct Options {
  std::optional<std::size_t> seeds, members;
  std::optional<std::int64_t> seed;
  std::optional<double> mean_session;
  std::size_t threads = 0;  // 0 = hardware concurrency

  /// `fast` seeds, or `full` under VDM_FULL=1, unless --seeds says otherwise.
  std::size_t seeds_or(std::size_t fast, std::size_t full) const {
    return seeds ? *seeds : default_seeds(fast, full);
  }
};

template <class T>
std::optional<T> given(const util::Flags& flags, const std::string& name,
                       T (util::Flags::*get)(const std::string&, T) const) {
  if (flags.get(name, "").empty()) return std::nullopt;
  return (flags.*get)(name, T{});
}

Options parse_options(const util::Flags& flags) {
  Options o;
  o.seeds = given(flags, "seeds", &util::Flags::get_count);
  if (o.seeds == std::size_t{0}) {
    throw std::invalid_argument("--seeds: expected at least 1, got '0'");
  }
  o.members = given(flags, "members", &util::Flags::get_count);
  o.seed = given(flags, "seed", &util::Flags::get_int);
  o.mean_session = given(flags, "mean-session", &util::Flags::get_double);
  o.threads = flags.get_count("threads", 0);
  return o;
}

// ------------------------------------------------------------------- tables

void banner(const std::string& title, const std::string& setup,
            const std::string& expectation = "") {
  std::cout << "\n=== " << title << " ===\n" << setup;
  if (!expectation.empty()) {
    std::cout << (setup.empty() ? "" : "\n") << "paper expectation: " << expectation;
  }
  std::cout << "\n\n";
}

/// "mean ±ci" for a seed summary, the number for a plain mean, the integer
/// for a count.
std::string cell_text(const util::Summary& s, int precision) {
  return util::Table::fmt(s.mean, precision) + " ±" +
         util::Table::fmt(s.ci_halfwidth, precision);
}
std::string cell_text(double v, int precision) { return util::Table::fmt(v, precision); }
std::string cell_text(std::uint64_t v, int /*precision*/) { return std::to_string(v); }

/// One table column: a field of each row's `series`-th result.
template <class R>
struct Column {
  template <class V>
  Column(std::string column_name, V R::* field, int precision = 3,
         std::size_t series_index = 0)
      : name(std::move(column_name)),
        series(series_index),
        cell([field, precision](const R& r) { return cell_text(r.*field, precision); }) {}

  std::string name;
  std::size_t series;
  std::function<std::string(const R&)> cell;
};

/// Results laid out row-major, rows x series (`results.size() / rows.size()`
/// per row), printed as panels: a banner and a table of one row per label.
template <class R>
struct Sheet {
  std::string row_header;
  std::vector<std::string> rows;
  std::vector<std::string> series;  // column names for the one-field panels
  std::vector<R> results;
  std::string setup;  // banner text above every panel's expectation

  void panel(const std::string& title, const std::string& expectation,
             const std::vector<Column<R>>& cols) const {
    banner(title, setup, expectation);
    std::vector<std::string> header{row_header};
    for (const Column<R>& c : cols) header.push_back(c.name);
    util::Table t(std::move(header));
    const std::size_t stride = results.size() / rows.size();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::vector<std::string> row{rows[i]};
      for (const Column<R>& c : cols) row.push_back(c.cell(results[i * stride + c.series]));
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }

  /// One column per series, each showing `field`.
  template <class V>
  void panel(const std::string& title, const std::string& expectation,
             V R::* field, int precision = 3) const {
    std::vector<Column<R>> cols;
    for (std::size_t s = 0; s < series.size(); ++s) {
      cols.emplace_back(series[s], field, precision, s);
    }
    panel(title, expectation, cols);
  }
};

// ------------------------------------------------------------- simulations

std::vector<AggregateResult> run(const std::vector<RunConfig>& points,
                                 std::size_t seeds, const Options& o) {
  SweepOptions sweep;
  sweep.threads = o.threads;
  return run_grid(points, seeds, sweep);
}

/// The Chapter 3 NS-2 setting: transit-stub (792 routers), 2000 s join
/// phase, 10000 s sessions, 400 s churn slots at the default 5 %, 100 s
/// settle before each measurement, degree limits U[2,5], 1 chunk/s.
RunConfig chapter3(std::size_t members, std::uint64_t seed) {
  RunConfig cfg;
  cfg.substrate = Substrate::kTransitStub;
  cfg.scenario.target_members = members;
  cfg.scenario.join_phase = 2000.0;
  cfg.scenario.total_time = 10000.0;
  cfg.scenario.churn_interval = 400.0;
  cfg.scenario.settle_time = 100.0;
  cfg.session.chunk_rate = 1.0;
  cfg.seed = seed;
  return cfg;
}

/// Heartbeat failure detection: 1 s probes, 3 misses plus a 0.5 s timeout.
void heartbeats(RunConfig& cfg) {
  cfg.session.faults.heartbeat_period = 1.0;
  cfg.session.faults.heartbeat_misses = 3;
  cfg.session.faults.heartbeat_timeout = 0.5;
}

/// One Chapter-5 testbed configuration (a synthetic PlanetLab deployment):
/// a 170-node US pool (~140 usable after the filter, the paper's pool),
/// 400 s churn slots, 10 chunks/s, 5 % probe noise; `degree` caps every
/// member and the source.
struct TestbedConfig {
  std::size_t members = 100;
  double churn_rate = 0.05;
  sim::Time join_phase = 2000.0;
  sim::Time total_time = 5000.0;
  int degree = 4;
  enum class Proto { kVdm, kVdmRefine, kHmtp } proto = Proto::kVdm;
  std::uint64_t seed = 1;
};

/// Builds the pool, filters it, generates a scenario file, and drives the
/// MainController — the whole §5.2 pipeline — returning the session report.
testbed::SessionReport run_testbed_once(const TestbedConfig& cfg) {
  util::Rng root(cfg.seed);
  util::Rng pool_rng = root.split(1);
  util::Rng scenario_rng = root.split(2);
  util::Rng session_rng = root.split(3);

  testbed::PoolParams pp;
  pp.num_nodes = 170;
  const testbed::NodePool pool = testbed::make_pool(pp, topo::us_regions(), pool_rng);

  testbed::ScenarioSpec spec;
  for (const net::HostId h : pool.usable_nodes()) {
    if (h != 0) spec.nodes.push_back(h);
  }
  spec.members = cfg.members;
  spec.join_phase = cfg.join_phase;
  spec.total_time = cfg.total_time;
  spec.churn_interval = 400.0;
  spec.churn_rate = cfg.churn_rate;
  spec.degree_min = spec.degree_max = cfg.degree;
  const testbed::Scenario scenario = testbed::generate_scenario(spec, scenario_rng);

  std::unique_ptr<overlay::Protocol> protocol;
  switch (cfg.proto) {
    case TestbedConfig::Proto::kVdm:
      protocol = std::make_unique<core::VdmProtocol>();
      break;
    case TestbedConfig::Proto::kVdmRefine: {
      core::VdmConfig vc;
      vc.refinement = true;
      vc.refinement_period = sim::minutes(5);  // the paper's §5.4.5 period
      protocol = std::make_unique<core::VdmProtocol>(vc);
      break;
    }
    case TestbedConfig::Proto::kHmtp:
      protocol = std::make_unique<baselines::HmtpProtocol>();
      break;
  }

  std::vector<double> slowness;
  slowness.reserve(pool.health.size());
  for (const testbed::NodeHealth& h : pool.health) slowness.push_back(h.slowness);
  const testbed::FlakyMetric metric(std::make_unique<overlay::DelayMetric>(),
                                    std::move(slowness), 0.05);

  sim::Simulator simulator;
  testbed::ControllerParams cp;
  cp.source_degree = cfg.degree;
  cp.chunk_rate = 10.0;
  testbed::MainController controller(simulator, pool.topology.underlay,
                                     *protocol, metric, cp, session_rng);
  return controller.run(scenario);
}

/// Aggregate of one testbed configuration over several seeds.
struct TestbedAggregate {
  util::Summary startup_avg, startup_max, reconnect_avg, reconnect_max,
      stretch, stretch_min, stretch_leaf, stretch_max, hop, hop_leaf, hop_max,
      usage, loss, overhead, mst_ratio;
};

/// Folds one configuration's per-seed reports, in seed order.
TestbedAggregate aggregate_testbed(const TestbedConfig& cfg,
                                   std::span<const testbed::SessionReport> reports) {
  std::vector<double> su, su_mx, rc, rc_mx, st, st_min, st_leaf, st_max, hp,
      hp_leaf, hp_max, us, lo, ov, mr;
  for (const testbed::SessionReport& r : reports) {
    const util::Summary s_start = util::summarize(r.startup_times);
    su.push_back(s_start.mean);
    su_mx.push_back(s_start.max);
    if (!r.reconnect_times.empty()) {
      const util::Summary s_rec = util::summarize(r.reconnect_times);
      rc.push_back(s_rec.mean);
      rc_mx.push_back(s_rec.max);
    }
    // Tree metrics: average across the post-warmup snapshots (one final
    // snapshot alone is too noisy for 90% CIs over a handful of runs).
    util::OnlineStats a_st, a_min, a_leaf, a_max, a_hp, a_hpl, a_hpm, a_us;
    for (const metrics::EpochSample& e : r.epochs) {
      if (e.at < cfg.join_phase) continue;
      a_st.add(e.tree.stretch_avg);
      a_min.add(e.tree.stretch_min);
      a_leaf.add(e.tree.stretch_leaf_avg);
      a_max.add(e.tree.stretch_max);
      a_hp.add(e.tree.hop_avg);
      a_hpl.add(e.tree.hop_leaf_avg);
      a_hpm.add(e.tree.hop_max);
      a_us.add(e.tree.network_usage);
    }
    st.push_back(a_st.mean());
    st_min.push_back(a_min.mean());
    st_leaf.push_back(a_leaf.mean());
    st_max.push_back(a_max.mean());
    hp.push_back(a_hp.mean());
    hp_leaf.push_back(a_hpl.mean());
    hp_max.push_back(a_hpm.mean());
    us.push_back(a_us.mean());
    lo.push_back(r.loss_rate);
    ov.push_back(r.overhead_per_chunk);
    mr.push_back(r.mst_ratio);
  }
  TestbedAggregate agg;
  agg.startup_avg = util::summarize(su);
  agg.startup_max = util::summarize(su_mx);
  agg.reconnect_avg = util::summarize(rc);
  agg.reconnect_max = util::summarize(rc_mx);
  agg.stretch = util::summarize(st);
  agg.stretch_min = util::summarize(st_min);
  agg.stretch_leaf = util::summarize(st_leaf);
  agg.stretch_max = util::summarize(st_max);
  agg.hop = util::summarize(hp);
  agg.hop_leaf = util::summarize(hp_leaf);
  agg.hop_max = util::summarize(hp_max);
  agg.usage = util::summarize(us);
  agg.loss = util::summarize(lo);
  agg.overhead = util::summarize(ov);
  agg.mst_ratio = util::summarize(mr);
  return agg;
}

/// Runs each config over seeds 1..seeds in a plain loop (a testbed run
/// takes milliseconds) and aggregates per config, in config order.
std::vector<TestbedAggregate> run(const std::vector<TestbedConfig>& configs,
                                  std::size_t seeds) {
  std::vector<TestbedAggregate> out;
  std::vector<testbed::SessionReport> reports(seeds);
  for (TestbedConfig cfg : configs) {
    for (std::size_t s = 0; s < seeds; ++s) {
      cfg.seed = 1 + s;
      reports[s] = run_testbed_once(cfg);
    }
    out.push_back(aggregate_testbed(cfg, reports));
  }
  return out;
}

// ---------------------------------------------------- Chapter 3 (NS-2 setting)

// Figures 3.25-3.28: VDM against HMTP across churn rates. HMTP appears twice:
// with its periodic refinement (the deployable protocol; 30 s period as
// stated in §5.4.2) and with refinement disabled (matching VDM's
// zero-maintenance operating point). See EXPERIMENTS.md.
void fig3_churn(const Options& o) {
  const std::size_t seeds = o.seeds_or(6, 32);
  const std::size_t members = o.members.value_or(200);
  std::vector<RunConfig> points;
  std::vector<std::string> rows;
  for (const double churn : {0.01, 0.03, 0.05, 0.07, 0.10}) {
    RunConfig cfg = chapter3(members, 100);
    cfg.scenario.churn_rate = churn;
    points.push_back(cfg);
    cfg.protocol = Proto::kHmtp;
    points.push_back(cfg);
    cfg.hmtp_refinement = false;
    points.push_back(cfg);
    rows.push_back(util::Table::fmt(100 * churn, 0));
  }
  const Sheet<AggregateResult> s{
      "churn(%)", rows, {"VDM", "HMTP", "HMTP-norefine"}, run(points, seeds, o),
      "transit-stub 792 routers, " + std::to_string(members) + " members, " +
          std::to_string(seeds) + " seeds, degree U[2,5], 10000 s"};
  s.panel("Figure 3.25 — stress vs churn",
          "both ~1.45-1.75, VDM slightly lower, flat in churn",
          &AggregateResult::stress);
  s.panel("Figure 3.26 — stretch vs churn",
          "VDM below HMTP, mildly increasing with churn", &AggregateResult::stretch);
  s.panel("Figure 3.27 — loss rate vs churn",
          "small (churn-driven only), VDM below HMTP, increasing with churn",
          &AggregateResult::loss, 5);
  s.panel("Figure 3.28 — control overhead (msgs per data transmission) vs churn",
          "linear in churn; VDM well below refining HMTP (paper: 2.2% vs ~5%)",
          &AggregateResult::overhead, 4);
}

// Figures 3.29-3.32: VDM as the overlay grows from 100 to 1000 members.
void fig3_nodes(const Options& o) {
  const std::size_t seeds = o.seeds_or(4, 32);
  std::vector<RunConfig> points;
  std::vector<std::string> rows;
  for (const std::size_t n : {100, 200, 400, 700, 1000}) {
    points.push_back(chapter3(n, 200));
    rows.push_back(std::to_string(n));
  }
  const Sheet<AggregateResult> s{
      "nodes", rows, {"VDM"}, run(points, seeds, o),
      "transit-stub 792 routers, VDM, churn 5%, degree U[2,5], " +
          std::to_string(seeds) + " seeds"};
  s.panel("Figure 3.29 — stress vs number of nodes", "grows ~1.3 -> ~1.8, sub-linear",
          &AggregateResult::stress);
  s.panel("Figure 3.30 — stretch vs number of nodes",
          "grows with N (deeper trees), sub-linear", &AggregateResult::stretch);
  s.panel("Figure 3.31 — loss rate vs number of nodes",
          "grows mildly with N (bigger blast radius)", &AggregateResult::loss, 5);
  s.panel("Figure 3.32 — overhead vs number of nodes",
          "grows with diminishing increase (log N joins)", &AggregateResult::overhead);
}

// Figures 3.33-3.36: VDM as the average node degree sweeps 2 -> 8. The paper
// sweeps from 1.25, but its simulator counted only children against the
// limit; with the uplink correctly charged too (DESIGN.md invariant 2) a tree
// over N members needs 2(N-1) link endpoints, so average limits below 2
// cannot host the membership at all — the sub-2 points are structurally
// infeasible and are dropped rather than reproduced.
void fig3_degree(const Options& o) {
  const std::size_t seeds = o.seeds_or(4, 32);
  const std::size_t members = o.members.value_or(200);
  std::vector<RunConfig> points;
  std::vector<std::string> rows;
  for (const double d : {2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0}) {
    RunConfig cfg = chapter3(members, 300);
    cfg.scenario.degrees = overlay::DegreeSpec::average(d);
    cfg.session.source_degree_limit = std::max(2, static_cast<int>(d + 0.5));
    points.push_back(cfg);
    rows.push_back(util::Table::fmt(d, 2));
  }
  const Sheet<AggregateResult> s{
      "avg degree", rows, {"VDM"}, run(points, seeds, o),
      "transit-stub 792 routers, VDM, " + std::to_string(members) +
          " members, churn 5%, " + std::to_string(seeds) + " seeds"};
  s.panel("Figure 3.33 — stress vs average node degree", "roughly flat in degree",
          &AggregateResult::stress);
  s.panel("Figure 3.34 — stretch vs average node degree",
          "very high at degree ~1.25 (chains), drops steeply, flattens ~4-5",
          &AggregateResult::stretch);
  s.panel("Figure 3.35 — loss rate vs average node degree",
          "high at low degree (long paths), then decreasing / fluctuating",
          &AggregateResult::loss, 5);
  s.panel("Figure 3.36 — overhead vs average node degree",
          "U-shape: high at low degree (deep searches), minimum mid-range",
          &AggregateResult::overhead);
}

// Crash churn: VDM against HMTP as churn departures shift from graceful
// leaves to ungraceful crashes, under the dissertation's failure model
// (heartbeat failure detection, lossy control plane with retry/backoff —
// Chapter 5's unstable-node setting applied to the Chapter 3 substrate).
// Reconnection splits into detection latency (heartbeat misses + timeout)
// and the rejoin handshake; "outage" is their sum — what a viewer loses.
// No figure in the paper plots this directly; §3.3 + §5.3 describe the
// machinery, and the loss/overhead columns extend Figures 3.27/3.28 to
// ungraceful departures. See EXPERIMENTS.md.
void fig_crash_churn(const Options& o) {
  const std::size_t seeds = o.seeds_or(6, 32);
  const std::size_t members = o.members.value_or(200);
  std::vector<RunConfig> points;
  std::vector<std::string> rows;
  for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    RunConfig cfg = chapter3(members, 500);
    heartbeats(cfg);
    cfg.session.faults.lossy_control = true;
    cfg.session.faults.control_loss_extra = 0.01;
    cfg.scenario.crash_fraction = frac;
    points.push_back(cfg);
    cfg.protocol = Proto::kHmtp;
    points.push_back(cfg);
    rows.push_back(util::Table::fmt(100 * frac, 0));
  }
  const Sheet<AggregateResult> s{
      "crash(%)", rows, {"VDM", "HMTP"}, run(points, seeds, o),
      "transit-stub 792 routers, " + std::to_string(members) + " members, " +
          std::to_string(seeds) + " seeds, churn 5%, heartbeat 1 s x3 +0.5 s, "
          "control loss 1% with retry/backoff"};
  s.panel("Crash churn — loss rate vs crash fraction",
          "grows with crash fraction for both protocols (orphans are blind "
          "until detection, and that window is identical for both)",
          &AggregateResult::loss, 5);
  s.panel("Crash churn — detection latency (s) vs crash fraction",
          "flat ~ misses x period + timeout; identical machinery for both "
          "protocols",
          &AggregateResult::detection_avg);
  s.panel("Crash churn — outage = detection + rejoin (s) vs crash fraction",
          "detection-dominated (rejoin is sub-second, detection seconds)",
          &AggregateResult::outage_avg);
  s.panel("Crash churn — rejoin handshake alone (s) vs crash fraction",
          "sub-second and comparable: grandparent-start recovery is shared "
          "session machinery; differences reflect join-search depth only",
          &AggregateResult::reconnect_avg);
  s.panel("Crash churn — control overhead (msgs per data transmission) vs crash fraction",
          "dominated by the constant heartbeat probing; VDM well below "
          "refining HMTP",
          &AggregateResult::overhead, 4);
}

// Workload trajectories: all four protocols under the workload engine's
// membership processes — the paper's fixed-rate slot timeline ("slots")
// against sustained Poisson churn, a diurnal arrival wave and heavy-tailed
// Pareto sessions (cs/9809102's dynamic-membership regime). The scenario rng
// stream depends only on the seed and scenario shape, so for a given seed
// every protocol faces the *identical* membership event trace — differences
// between columns are purely protocol behaviour. The trailing table plots
// the first seed's per-measurement trajectory (member count and delivered
// continuity over time) under the diurnal wave. No figure in the paper plots
// this; §3.6.2 defines the slot timeline the generated kinds replace. See
// EXPERIMENTS.md.
void fig_churn_trace(const Options& o) {
  const std::size_t seeds = o.seeds_or(4, 16);
  const std::size_t members = o.members.value_or(100);
  const double mean_session = o.mean_session.value_or(2000.0);
  RunConfig base = chapter3(members, 900);
  base.scenario.join_phase = 1000.0;
  base.scenario.total_time = 6000.0;
  base.scenario.crash_fraction = 0.25;
  heartbeats(base);
  base.workload.mean_session = mean_session;
  base.keep_epochs = true;

  // Workload-major, protocol-minor.
  const std::vector<Proto> protocols{Proto::kVdm, Proto::kHmtp, Proto::kBtp,
                                     Proto::kRandom};
  std::vector<RunConfig> points;
  std::vector<std::string> rows;
  for (const overlay::WorkloadKind wk :
       {overlay::WorkloadKind::kSlots, overlay::WorkloadKind::kPoisson,
        overlay::WorkloadKind::kDiurnal, overlay::WorkloadKind::kPareto}) {
    for (const Proto proto : protocols) {
      RunConfig cfg = base;
      cfg.workload.kind = wk;
      cfg.protocol = proto;
      points.push_back(cfg);
    }
    rows.emplace_back(overlay::workload_kind_name(wk));
  }
  const Sheet<AggregateResult> s{
      "workload", rows, {"VDM", "HMTP", "BTP", "Random"}, run(points, seeds, o),
      "transit-stub 792 routers, " + std::to_string(members) + " members, " +
          std::to_string(seeds) + " seeds, mean session " +
          util::Table::fmt(mean_session, 0) +
          " s, crash fraction 25%, heartbeat 1 s x3 +0.5 s;\n"
          "per seed, all four protocols replay the identical membership trace"};
  s.panel("Workload churn — loss rate by membership process",
          "sustained (non-slotted) churn overlaps departures with repairs, so "
          "every generated kind loses more than the settled slot timeline; "
          "heavy-tailed Pareto sessions churn the tree's young leaves hardest",
          &AggregateResult::loss, 5);
  s.panel("Workload churn — control overhead (msgs per data transmission) by "
          "membership process",
          "ordering as in Fig 3.28: Random < VDM < BTP << refining HMTP, "
          "roughly workload-independent (heartbeats dominate)",
          &AggregateResult::overhead, 4);
  s.panel("Workload churn — outage = detection + rejoin (s) by membership process",
          "detection-dominated and flat across workloads — the failure "
          "detector, not the arrival process, sets the floor",
          &AggregateResult::outage_avg);
  s.panel("Workload churn — stretch by membership process",
          "tree quality holds near the slot-timeline value under every "
          "arrival process (VDM lowest, Random highest)",
          &AggregateResult::stretch);

  // Time series under the diurnal wave (row 2): membership breathes with the
  // arrival-rate swing while delivered continuity stays pinned near 1.
  const std::span<const AggregateResult> diurnal =
      std::span(s.results).subspan(2 * protocols.size(), protocols.size());
  banner("Diurnal trajectory (seed " + std::to_string(base.seed) + ")", s.setup,
         "member count follows the arrival wave; continuity stays >= ~0.99 "
         "for every protocol through both the crest and the trough");
  util::Table traj({"t", "members", "VDM", "HMTP", "BTP", "Random"});
  const std::vector<metrics::EpochSample>& lead = diurnal[0].runs.front().epochs;
  for (std::size_t i = 0; i < lead.size(); ++i) {
    std::vector<std::string> row{util::Table::fmt(lead[i].at, 0),
                                 std::to_string(lead[i].members)};
    for (const AggregateResult& p : diurnal) {
      // Continuity: the delivered fraction of the epoch's expected chunks.
      const std::vector<metrics::EpochSample>& tr = p.runs.front().epochs;
      row.push_back(i < tr.size() ? util::Table::fmt(1.0 - tr[i].loss_rate, 5) : "-");
    }
    traj.add_row(std::move(row));
  }
  traj.print(std::cout);
}

// ------------------------------------------------ Chapter 4 (loss-based VDM)

// Figures 4.6-4.9: delay-based VDM-D vs loss-based VDM-L over time, on a
// transit-stub network whose physical links carry random error rates in
// [0%, 2%]. 50 nodes join per interval (no churn); after each batch the
// settled tree is measured. Expectation: VDM-L trades stress/stretch for a
// clearly lower loss rate — the generalization payoff of Chapter 4.
void fig4_vdmd_vdml(const Options& o) {
  const std::size_t seeds = o.seeds_or(6, 32);
  const std::size_t members = o.members.value_or(200);
  std::vector<RunConfig> points;
  for (const Metric metric : {Metric::kLoss, Metric::kDelay}) {
    RunConfig cfg;
    cfg.substrate = Substrate::kTransitStub;
    cfg.metric = metric;
    cfg.link_loss_max = 0.02;  // "random error rate between 0% and 2%"
    cfg.scenario.batched_joins = true;
    cfg.scenario.batch_size = 50;
    cfg.scenario.target_members = members;
    cfg.scenario.churn_interval = 500.0;
    cfg.scenario.settle_time = 100.0;
    cfg.scenario.total_time = 500.0 * ((members + 49) / 50) + 100.0;
    cfg.session.chunk_rate = 1.0;
    cfg.keep_epochs = true;
    cfg.epoch_skip = 0;
    cfg.seed = 400;
    points.push_back(cfg);
  }
  const std::vector<AggregateResult> aggs = run(points, seeds, o);

  // Per-epoch averages across seeds: row e holds VDM-L's then VDM-D's.
  struct EpochMeans {
    double at = 0, stress = 0, stretch = 0, loss = 0, overhead = 0;
  };
  Sheet<EpochMeans> s{"time(s)", {}, {"VDM-L", "VDM-D"}, {},
                      "transit-stub 792 routers, link error U[0%,2%], 50 joins per "
                      "interval to " + std::to_string(members) + " members, " +
                          std::to_string(seeds) + " seeds"};
  const std::size_t epochs = aggs[0].runs.front().epochs.size();
  for (std::size_t e = 0; e < epochs; ++e) {
    for (const AggregateResult& agg : aggs) {
      EpochMeans m;
      for (const RunResult& r : agg.runs) {
        m.at += r.epochs[e].at;
        m.stress += r.epochs[e].tree.stress_avg;
        m.stretch += r.epochs[e].tree.stretch_avg;
        m.loss += r.epochs[e].loss_rate;
        m.overhead += r.epochs[e].overhead;
      }
      const auto n = static_cast<double>(agg.runs.size());
      s.results.push_back({m.at / n, m.stress / n, m.stretch / n, m.loss / n,
                           m.overhead / n});
    }
    s.rows.push_back(util::Table::fmt(s.results.back().at, 0));
  }
  s.panel("Figure 4.6 — stress vs time",
          "both rise with joins; VDM-L above VDM-D (~1.9 vs ~1.7)",
          &EpochMeans::stress);
  s.panel("Figure 4.7 — stretch vs time",
          "VDM-D gives the better (lower) path stretch", &EpochMeans::stretch);
  s.panel("Figure 4.8 — loss rate vs time",
          "VDM-L clearly below VDM-D (the headline win)", &EpochMeans::loss, 4);
  s.panel("Figure 4.9 — overhead vs time",
          "VDM-L's accounted overhead lower per data message",
          &EpochMeans::overhead, 4);
}

// ------------------------------------------------ Chapter 5 (PlanetLab testbed)

// Figures 5.1/5.2/5.5/5.6: the testbed pipeline end to end — synthesize a
// world-wide PlanetLab-like pool, run the three-stage node filter, drive a
// VDM session from a generated scenario file, and print the sample overlay
// tree with its geographic clustering statistics (the "clear clustering in
// continents" observation).
void fig5_sample_tree(const Options& o) {
  const auto seed = static_cast<std::uint64_t>(o.seed.value_or(11));
  const std::size_t members = o.members.value_or(40);
  util::Rng root(seed);
  util::Rng pool_rng = root.split(1);
  util::Rng scenario_rng = root.split(2);

  testbed::PoolParams pp;
  pp.num_nodes = 80;
  const testbed::NodePool pool = testbed::make_pool(pp, topo::world_regions(), pool_rng);
  const testbed::FilterReport filt = testbed::filter_nodes(pool);

  banner("Figure 5.2 — node selection filter",
         "80-node world pool; three filter stages as in the dissertation");
  util::Table ft({"stage", "dropped", "remaining"});
  ft.add_row({"unresponsive to ping", std::to_string(filt.dropped_unresponsive),
              std::to_string(filt.total - filt.dropped_unresponsive)});
  ft.add_row({"cannot ping out", std::to_string(filt.dropped_no_ping_out),
              std::to_string(filt.total - filt.dropped_unresponsive -
                             filt.dropped_no_ping_out)});
  ft.add_row({"agent fails to start", std::to_string(filt.dropped_agent),
              std::to_string(filt.usable)});
  ft.print(std::cout);

  // Scenario: join-only session so the final tree is the settled sample.
  testbed::ScenarioSpec spec;
  for (const net::HostId h : pool.usable_nodes()) {
    if (h != 0) spec.nodes.push_back(h);
  }
  spec.members = std::min(members, spec.nodes.size());
  spec.join_phase = 600.0;
  spec.total_time = 1200.0;
  spec.churn_rate = 0.0;
  spec.degree_min = spec.degree_max = 4;
  const testbed::Scenario scenario = testbed::generate_scenario(spec, scenario_rng);

  std::ostringstream scenario_text;
  overlay::write_trace(scenario_text, scenario.events, scenario.end_time);
  std::cout << "\nscenario file head (generated, replayable):\n";
  std::istringstream head(scenario_text.str());
  std::string line;
  for (int i = 0; i < 6 && std::getline(head, line); ++i) std::cout << "  " << line << '\n';

  core::VdmProtocol vdm;
  std::vector<double> slowness;
  for (const testbed::NodeHealth& h : pool.health) slowness.push_back(h.slowness);
  const testbed::FlakyMetric metric(std::make_unique<overlay::DelayMetric>(),
                                    std::move(slowness), 0.05);
  sim::Simulator simulator;
  testbed::ControllerParams cp;
  testbed::MainController controller(simulator, pool.topology.underlay, vdm,
                                     metric, cp, root.split(3));
  const testbed::SessionReport report = controller.run(scenario);

  banner("Figures 5.5/5.6 — sample overlay tree", "",
         "nodes cluster by region; few transcontinental links");
  std::cout << testbed::render_tree(controller.session().tree(), 0, pool.topology);

  const testbed::ClusterStats cs =
      testbed::cluster_stats(controller.session().tree(), 0, pool.topology);
  util::Table ct({"tree edges", "intra-region", "intra-continent", "cross-continent"});
  ct.add_row({std::to_string(cs.edges), std::to_string(cs.intra_region),
              std::to_string(cs.intra_continent), std::to_string(cs.cross_continent)});
  std::cout << '\n';
  ct.print(std::cout);
  std::cout << "intra-region fraction: "
            << util::Table::fmt(100 * cs.intra_region_fraction(), 1)
            << "%, cross-continent fraction: "
            << util::Table::fmt(100 * cs.cross_continent_fraction(), 1) << "%\n";
  std::cout << "final tree: " << report.final_tree.members
            << " members, stretch " << util::Table::fmt(report.final_tree.stretch_avg)
            << ", MST ratio " << util::Table::fmt(report.mst_ratio) << '\n';
}

// Figures 5.7-5.13: the Chapter-5 head-to-head on the PlanetLab-like testbed
// — VDM vs HMTP across churn rates 2-10%. 100 members from a ~140-node US
// pool, degree 4, source in the US-Mountain (Colorado) region, 10 chunks/s,
// 5000 s runs.
void fig5_churn(const Options& o) {
  const std::size_t seeds = o.seeds_or(5, 5);
  const std::size_t members = o.members.value_or(100);
  std::vector<TestbedConfig> configs;
  std::vector<std::string> rows;
  for (const double churn : {0.02, 0.04, 0.06, 0.08, 0.10}) {
    TestbedConfig cfg;
    cfg.members = members;
    cfg.churn_rate = churn;
    configs.push_back(cfg);
    cfg.proto = TestbedConfig::Proto::kHmtp;
    configs.push_back(cfg);
    rows.push_back(util::Table::fmt(100 * churn, 0));
  }
  using T = TestbedAggregate;
  const Sheet<T> s{"churn(%)", rows, {"VDM", "HMTP"}, run(configs, seeds),
                   "US testbed pool (~140 usable nodes), " + std::to_string(members) +
                       " members, degree 4, 10 chunks/s, 5000 s, " +
                       std::to_string(seeds) + " runs"};
  s.panel("Figure 5.7 — startup time (s) vs churn rate",
          "flat in churn; HMTP a little higher (more search steps)", &T::startup_avg);
  s.panel("Figure 5.8 — reconnection time (s) vs churn rate",
          "flat in churn; below startup time (search starts at grandparent)",
          &T::reconnect_avg);
  s.panel("Figure 5.9 — stretch vs churn rate", "VDM ~1.6 vs HMTP ~1.9", &T::stretch);
  s.panel("Figure 5.10 — hopcount vs churn rate",
          "VDM ~4.5 vs HMTP ~5.5, churn-independent", &T::hop, 2);
  s.panel("Figure 5.11 — resource usage (sum of used virtual-link delays, s) vs churn rate",
          "VDM uses less than HMTP", &T::usage);
  s.panel("Figure 5.12 — loss rate vs churn rate", "increases with churn; VDM lower",
          &T::loss, 5);
  s.panel("Figure 5.13 — overhead (control msgs per source chunk) vs churn rate",
          "HMTP much higher (30 s refinement messages)", &T::overhead, 4);
}

/// Figures 5.14-5.20 and 5.21-5.27 plot the same seven VDM metrics, over
/// membership and over node degree: panel i is Figure 5.(first + i).
void seven_metrics(const Sheet<TestbedAggregate>& s, int first, const std::string& axis,
                   const std::vector<std::string>& expectations) {
  using T = TestbedAggregate;
  const std::vector<std::pair<std::string, std::vector<Column<T>>>> panels{
      {"startup time (s)", {{"avg", &T::startup_avg}, {"max", &T::startup_max}}},
      {"reconnection time (s)", {{"avg", &T::reconnect_avg}, {"max", &T::reconnect_max}}},
      {"stretch",
       {{"min", &T::stretch_min}, {"avg", &T::stretch},
        {"leaf-avg", &T::stretch_leaf}, {"max", &T::stretch_max}}},
      {"hopcount", {{"avg", &T::hop, 2}, {"leaf-avg", &T::hop_leaf, 2}, {"max", &T::hop_max, 2}}},
      {"resource usage (s)", {{"avg", &T::usage}}},
      {"loss rate", {{"avg", &T::loss, 5}}},
      {"overhead (control msgs per source chunk)", {{"avg", &T::overhead, 4}}},
  };
  for (std::size_t i = 0; i < panels.size(); ++i) {
    s.panel("Figure 5." + std::to_string(first + static_cast<int>(i)) + " — " +
                panels[i].first + " vs " + axis,
            expectations[i], panels[i].second);
  }
}

// Figures 5.14-5.20: VDM on the testbed as membership scales 20 -> 100.
void fig5_nodes(const Options& o) {
  const std::size_t seeds = o.seeds_or(5, 5);
  std::vector<TestbedConfig> configs;
  std::vector<std::string> rows;
  for (const std::size_t n : {20, 40, 60, 80, 100}) {
    TestbedConfig cfg;
    cfg.members = n;
    configs.push_back(cfg);
    rows.push_back(std::to_string(n));
  }
  seven_metrics({"nodes", rows, {}, run(configs, seeds),
                 "US testbed pool (~140 usable nodes), VDM, churn 5%, degree 4, " +
                     std::to_string(seeds) + " runs"},
                14, "number of nodes",
                {"grows slowly with N (log-depth searches); max ~3x avg",
                 "independent of N (starts at the grandparent)",
                 "min < 1 (triangle violations), avg stabilizes ~1.5, max ~3",
                 "~log N growth; avg ~4, max up to ~11", "grows with N",
                 "grows with N (same churn rate hits more descendants)",
                 "grows with N (more nodes to query per join)"});
}

// Figures 5.21-5.27: VDM on the testbed as the node degree (children
// capacity) sweeps 2 -> 8. The paper's observation: every metric improves
// until degree ~5, after which the tree stops changing because VDM does not
// exploit capacity it does not need.
void fig5_degree(const Options& o) {
  const std::size_t seeds = o.seeds_or(5, 5);
  const std::size_t members = o.members.value_or(100);
  std::vector<TestbedConfig> configs;
  std::vector<std::string> rows;
  for (const int d : {2, 3, 4, 5, 6, 7, 8}) {
    TestbedConfig cfg;
    cfg.members = members;
    cfg.degree = d;
    configs.push_back(cfg);
    rows.push_back(std::to_string(d));
  }
  seven_metrics({"degree", rows, {}, run(configs, seeds),
                 "US testbed pool (~140 usable nodes), VDM, " + std::to_string(members) +
                     " members, churn 5%, " + std::to_string(seeds) + " runs"},
                21, "node degree",
                {"decreases until degree ~4-5, then flat", "no clear dependence on degree",
                 "decreasing to a knee near degree 5",
                 "~6 at degree 2, ~4 at degree 5, flat after",
                 "improves with degree, then flat", "higher at small degree (longer paths)",
                 "high at degree 2, decreasing to a plateau around degree 5"});
}

// Figures 5.28-5.30: the refinement component (VDM-R, 5-minute period).
// Expectation: ~10% better stretch and a more balanced tree (lower
// hopcount), paid for in control overhead.
void fig5_refinement(const Options& o) {
  const std::size_t seeds = o.seeds_or(5, 5);
  std::vector<TestbedConfig> configs;
  std::vector<std::string> rows;
  for (const std::size_t n : {10, 20, 30, 40, 50}) {
    TestbedConfig cfg;
    cfg.members = n;
    configs.push_back(cfg);
    cfg.proto = TestbedConfig::Proto::kVdmRefine;
    configs.push_back(cfg);
    rows.push_back(std::to_string(n));
  }
  using T = TestbedAggregate;
  const Sheet<T> s{"nodes", rows, {"VDM", "VDM-R"}, run(configs, seeds),
                   "US testbed pool (~140 usable nodes), churn 5%, degree 4, " +
                       std::to_string(seeds) + " runs; VDM-R refines every 5 min"};
  s.panel("Figure 5.28 — stretch vs number of nodes", "VDM-R ~10% better", &T::stretch);
  s.panel("Figure 5.29 — hopcount vs number of nodes", "VDM-R lower (more balanced tree)",
          &T::hop, 2);
  s.panel("Figure 5.30 — overhead (control msgs per source chunk) vs number of nodes",
          "VDM-R clearly higher — the cost of refinement", &T::overhead, 4);
}

// Figure 5.31: how close VDM's tree gets to the oracle minimum spanning tree,
// with degree limits lifted (the paper removes them for this comparison).
// Expectation: the ratio grows mildly with membership but stays
// well-bounded (paper: < 2 up to 50 nodes).
void fig5_mst_ratio(const Options& o) {
  const std::size_t seeds = o.seeds_or(5, 5);
  std::vector<TestbedConfig> configs;
  std::vector<std::string> rows;
  for (const std::size_t n : {10, 20, 30, 40, 50}) {
    TestbedConfig cfg;
    cfg.members = n;
    cfg.churn_rate = 0.0;  // settled join-only trees, as in the figure
    cfg.degree = 64;       // "we don't apply degree limitation"
    cfg.total_time = cfg.join_phase + 500.0;
    configs.push_back(cfg);
    rows.push_back(std::to_string(n));
  }
  const Sheet<TestbedAggregate> s{
      "nodes", rows, {"tree/MST ratio"}, run(configs, seeds),
      "US testbed pool, VDM, no degree limits, join-only, " + std::to_string(seeds) +
          " runs"};
  s.panel("Figure 5.31 — overlay tree cost / MST cost vs number of nodes",
          "ratio rises with N but stays < ~2", &TestbedAggregate::mst_ratio);
}

// ----------------------------------------------------------------- ablations

/// One classifier variant: its seed means, and how its join searches
/// resolved, counted from the walk's per-step decisions (every VDM step ends
/// in exactly one of these cases).
struct ClassifierVariant final : overlay::WalkObserver {
  double stress = 0, stretch = 0, hop = 0, usage = 0, mst = 0, overhead = 0;
  std::uint64_t attach = 0, splice = 0, descend = 0, free_child = 0, full_descend = 0;

  void on_step(const overlay::WalkStep& step) override {
    switch (step.decision) {
      case overlay::WalkDecision::kAttach: ++attach; break;
      case overlay::WalkDecision::kSplice: ++splice; break;
      case overlay::WalkDecision::kDirectionalDescend: ++descend; break;
      case overlay::WalkDecision::kClosestFreeChild: ++free_child; break;
      // Every child saturated: descend through the closest subtree with
      // room, or abort a pipelined walk that found none.
      case overlay::WalkDecision::kCapacityDescend:
      case overlay::WalkDecision::kAbort: ++full_descend; break;
      default: break;
    }
  }
};

// Ablation: the two knobs of the directionality classifier.
//
//  * epsilon — the margin by which the longest side must win before a
//    triple counts as directional (0 = the paper's pure longest-side rule).
//  * case2_descend_ratio — the degenerate-Case-II guard: when the newcomer
//    is `ratio`x closer to the child than to the parent, follow the child
//    instead of splicing (0 = off = the paper's rule).
//
// Also reports how join searches resolve (Case I / II / III frequencies).
void ablation_directionality(const Options& o) {
  const std::size_t seeds = o.seeds_or(3, 8);
  const std::size_t members = o.members.value_or(200);
  std::vector<RunConfig> points;
  std::vector<std::string> rows;
  RunConfig base = chapter3(members, 500);
  base.host_pool = members + members * 3 / 5 + 8;
  for (const double eps : {0.0, 0.02, 0.05, 0.10}) {
    points.push_back(base);
    points.back().vdm_epsilon = eps;
    rows.push_back("eps=" + util::Table::fmt(eps, 2));
  }
  for (const double ratio : {1.25, 1.5, 2.0, 3.0}) {
    points.push_back(base);
    points.back().vdm_case2_descend_ratio = ratio;
    rows.push_back("c2ratio=" + util::Table::fmt(ratio, 2));
  }
  // One observer per variant (an observer runs its sweep on one worker).
  std::vector<ClassifierVariant> variants(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) points[i].walk_observer = &variants[i];
  const std::vector<AggregateResult> aggs = run(points, seeds, o);
  const auto n = static_cast<double>(seeds);
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    ClassifierVariant& v = variants[i];
    for (const RunResult& r : aggs[i].runs) {  // plain means, summed in seed order
      v.stress += r.stress;
      v.stretch += r.stretch;
      v.hop += r.hopcount;
      v.usage += r.network_usage;
      v.mst += r.mst_ratio;
      v.overhead += r.overhead;
    }
    v.stress /= n;
    v.stretch /= n;
    v.hop /= n;
    v.usage /= n;
    v.mst /= n;
    v.overhead /= n;
  }
  using V = ClassifierVariant;
  Sheet<V> s{"variant", rows, {}, variants,
             "transit-stub 792 routers, " + std::to_string(members) +
                 " members, churn 5%, " + std::to_string(seeds) +
                 " seeds; first row = the paper's configuration"};
  s.panel("Ablation — directionality classifier knobs", "",
          {{"stress", &V::stress}, {"stretch", &V::stretch}, {"hop", &V::hop, 2},
           {"usage", &V::usage, 2}, {"MST ratio", &V::mst}, {"overhead", &V::overhead, 4}});
  s.setup = "Case III does most of the walking; Case II splices are the paper's novelty";
  s.panel("Join-search resolution profile (counts across all joins)", "",
          {{"CaseI attach", &V::attach}, {"CaseII splice", &V::splice},
           {"CaseIII steps", &V::descend}, {"full->free child", &V::free_child},
           {"full->descend", &V::full_descend}});
}

// Ablation: the quality-vs-overhead frontier of periodic refinement for both
// protocols. This is the design-space view behind the paper's §3.5 argument
// — HMTP *needs* refinement to converge (its join misses the between cases),
// VDM gets most of the quality at join time.
void ablation_refinement(const Options& o) {
  const std::size_t seeds = o.seeds_or(4, 16);
  const std::size_t members = o.members.value_or(200);
  const RunConfig base = chapter3(members, 600);
  std::vector<RunConfig> points;
  std::vector<std::string> rows;
  const auto add = [&](std::string name, Proto proto) -> RunConfig& {
    rows.push_back(std::move(name));
    points.push_back(base);
    points.back().protocol = proto;
    return points.back();
  };
  add("VDM (no refinement)", Proto::kVdm);
  for (const double period : {600.0, 180.0, 60.0}) {
    add("VDM-R " + util::Table::fmt(period, 0) + "s", Proto::kVdmRefine).vdm_refine_period =
        period;
  }
  add("HMTP (no refinement)", Proto::kHmtp).hmtp_refinement = false;
  for (const double period : {600.0, 120.0, 30.0}) {
    add("HMTP " + util::Table::fmt(period, 0) + "s", Proto::kHmtp).hmtp_refine_period =
        period;
  }
  add("BTP 30s (sibling switch)", Proto::kBtp);
  add("Random join", Proto::kRandom);

  using A = AggregateResult;
  const Sheet<A> s{"variant", rows, {}, run(points, seeds, o),
                   "transit-stub 792 routers, " + std::to_string(members) +
                       " members, churn 5%, " + std::to_string(seeds) + " seeds"};
  s.panel("Ablation — refinement period vs tree quality and overhead",
          "quality converges towards MST as refinement spends more messages; "
          "VDM's join-only point sits far left on the overhead axis",
          {{"stress", &A::stress}, {"stretch", &A::stretch},
           {"usage", &A::network_usage, 2}, {"MST ratio", &A::mst_ratio},
           {"overhead", &A::overhead, 4}});
}

// Ablation: the paper's optional / future-work components, quantified.
//
//  * Foster-child quick start for HMTP (§2.4.7) — startup time drops to one
//    handshake; message cost unchanged.
//  * Playout buffering (§5.4.3) — a couple of seconds of buffer absorbs the
//    reconnection jitter, collapsing the churn-driven loss rate.
//  * Cached measurement service (§6.2) — makes loss-based virtual distances
//    affordable: probe bursts are paid once per pair per TTL.
void ablation_extensions(const Options& o) {
  const std::size_t seeds = o.seeds_or(4, 16);
  RunConfig base = chapter3(150, 700);
  base.scenario.total_time = 8000.0;
  base.session.chunk_rate = 2.0;

  // All three tables as one flat grid: 2 foster, 4 buffer, 3 metric points.
  std::vector<RunConfig> points;
  for (const bool foster : {false, true}) {
    RunConfig cfg = base;
    cfg.protocol = Proto::kHmtp;
    cfg.hmtp_foster_child = foster;
    points.push_back(cfg);
  }
  std::vector<std::string> buffer_rows;
  for (const double buffer : {0.0, 0.5, 2.0, 10.0}) {
    RunConfig cfg = base;
    cfg.scenario.churn_rate = 0.10;
    cfg.session.buffer_seconds = buffer;
    points.push_back(cfg);
    buffer_rows.push_back(util::Table::fmt(buffer, 1));
  }
  for (const Metric metric : {Metric::kDelay, Metric::kLoss, Metric::kCachedLoss}) {
    RunConfig cfg = base;
    cfg.metric = metric;
    cfg.link_loss_max = 0.02;
    points.push_back(cfg);
  }
  const std::vector<AggregateResult> results = run(points, seeds, o);
  const auto slice = [&](std::size_t first, std::size_t count) {
    const auto begin = results.begin() + static_cast<std::ptrdiff_t>(first);
    return std::vector<AggregateResult>(begin, begin + static_cast<std::ptrdiff_t>(count));
  };

  using A = AggregateResult;
  const Sheet<A> foster{"variant", {"HMTP", "HMTP + foster child"}, {}, slice(0, 2),
                        "transit-stub, 150 members, churn 5%, " +
                            std::to_string(seeds) + " seeds"};
  foster.panel("Ablation — foster-child quick start (HMTP §2.4.7)",
               "startup collapses to ~one handshake; overhead unchanged",
               {{"startup avg (s)", &A::startup_avg}, {"startup max (s)", &A::startup_max},
                {"stretch", &A::stretch}, {"overhead", &A::overhead, 4}});
  const Sheet<A> buffer{"buffer (s)", buffer_rows, {}, slice(2, 4), "VDM, churn 10%"};
  buffer.panel("Ablation — playout buffer vs churn loss (§5.4.3)",
               "a couple of seconds of buffer hides reconnection outages",
               {{"loss rate", &A::loss, 5}, {"reconnect avg (s)", &A::reconnect_avg}});
  const Sheet<A> cache{"virtual distance", {"delay (VDM-D)", "loss (VDM-L)", "loss + cache"},
                       {}, slice(6, 3), "link error U[0%,2%]"};
  cache.panel("Ablation — cached measurement service for VDM-L (§6.2)",
              "caching recovers most of the probe-burst cost while keeping "
              "the loss-optimized tree",
              {{"loss rate", &A::loss, 4}, {"stretch", &A::stretch},
               {"startup avg (s)", &A::startup_avg}, {"overhead", &A::overhead, 4}});
}

// -------------------------------------------------------------------- main

struct Entry {
  const char* name;
  void (*run)(const Options&);
};

constexpr Entry kEntries[] = {
    {"fig3_churn", fig3_churn},
    {"fig3_nodes", fig3_nodes},
    {"fig3_degree", fig3_degree},
    {"fig_crash_churn", fig_crash_churn},
    {"fig_churn_trace", fig_churn_trace},
    {"fig4_vdmd_vdml", fig4_vdmd_vdml},
    {"fig5_sample_tree", fig5_sample_tree},
    {"fig5_churn", fig5_churn},
    {"fig5_nodes", fig5_nodes},
    {"fig5_degree", fig5_degree},
    {"fig5_refinement", fig5_refinement},
    {"fig5_mst_ratio", fig5_mst_ratio},
    {"ablation_directionality", ablation_directionality},
    {"ablation_refinement", ablation_refinement},
    {"ablation_extensions", ablation_extensions},
};

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  flags.reject_unknown({"help", "seeds", "members", "threads", "seed", "mean-session"});
  if (flags.get_bool("help", false)) {
    std::cout << "usage: figures [ENTRY...] [--seeds N] [--members N] [--threads N]\n"
                 "               [--seed N] [--mean-session S]\n"
                 "entries (none named = all, in this order):\n";
    for (const Entry& e : kEntries) std::cout << "  " << e.name << '\n';
    return 0;
  }
  std::vector<const Entry*> chosen;
  for (const std::string& name : flags.positional()) {
    const Entry* found = nullptr;
    for (const Entry& e : kEntries) {
      if (name == e.name) found = &e;
    }
    if (found == nullptr) {
      throw std::invalid_argument("unknown entry '" + name + "' (see --help)");
    }
    chosen.push_back(found);
  }
  if (chosen.empty()) {
    for (const Entry& e : kEntries) chosen.push_back(&e);
  }
  const Options options = parse_options(flags);
  for (const Entry* e : chosen) e->run(options);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
