// vdmsim — run a configurable overlay-multicast experiment from the command
// line and print (or CSV-export) the aggregate metrics. This is the
// downstream-user entry point: every knob of the reproduction is reachable
// without writing C++.
//
// Examples:
//   vdmsim --protocol vdm --members 200 --churn 0.05 --seeds 8
//   vdmsim --protocol hmtp --substrate geo-us --degree 4 --csv
//   vdmsim --protocol vdm --metric loss --link-loss 0.02 --members 100

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <span>
#include <string>

#include "experiments/runner.hpp"
#include "experiments/sweep.hpp"
#include "overlay/journal.hpp"
#include "overlay/walk.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace vdm;
using namespace vdm::experiments;

namespace {

int usage() {
  std::cout <<
      "vdmsim — Virtual Direction Multicast experiment driver\n\n"
      "  --protocol   vdm | vdm-r | hmtp | btp | random     (default vdm)\n"
      "  --underlay   transit-stub | waxman | geo-us | geo-world |\n"
      "               coord-us | coord-world | coord-plane   (default transit-stub)\n"
      "               (--substrate is an accepted alias; coord-* underlays\n"
      "               compute delay O(1) from coordinates — use them for\n"
      "               large overlays, e.g. --underlay coord-plane --nodes 65536)\n"
      "  --metric     delay | loss | blend | cached-delay | cached-loss (default delay)\n"
      "  --members    overlay size (--nodes is an alias)    (default 200)\n"
      "  --churn      fraction replaced per interval        (default 0.05)\n"
      "  --degree-min / --degree-max  child capacity bounds (default 2 / 5)\n"
      "  --degree-avg fractional average degree (overrides min/max)\n"
      "  --join-phase / --total-time / --interval / --settle  timeline (s)\n"
      "  --chunk-rate data chunks per second                (default 1)\n"
      "  --join-mode  sequential | locating | concurrent    (default sequential)\n"
      "               locating: placement-index entry point; concurrent:\n"
      "               locating + batched same-timestamp join pipeline\n"
      "  --flash      N burst arrivals at one instant on top of --members\n"
      "               (default 0; --flash-at sets the instant, default =\n"
      "               end of the join phase)\n"
      "  --workload   slots | poisson | diurnal | pareto | trace:<file>\n"
      "               membership process (default slots = the paper's churn\n"
      "               timeline); every kind runs as an explicit event list\n"
      "               — see README for the trace format\n"
      "  --mean-session   mean member session length, s     (default 2000)\n"
      "  --pareto-alpha   Pareto session shape, > 1         (default 1.5)\n"
      "  --diurnal-period / --diurnal-amplitude  arrival-rate wave\n"
      "               (defaults 4000 s / 0.8)\n"
      "  --save-trace <file>  write the first seed's event list as a trace,\n"
      "               any workload (replay it bit-identically with\n"
      "               --workload trace:<file>)\n"
      "  --trajectory print the first seed's per-measurement time series\n"
      "               (t, continuity, outage, overhead, members)\n"
      "  --journal <file>  write the first seed's tree changes as CSV:\n"
      "               t (hexfloat), attach | detach, child, parent\n"
      "  --link-loss  per-link error ceiling                (default 0)\n"
      "  --probe-noise RTT measurement noise std-dev        (default 0)\n"
      "  --hmtp-period / --no-hmtp-refine / --foster-child  HMTP controls\n"
      "  --buffer     playout buffer seconds               (default 0)\n"
      "  --crash-frac fraction of departures that crash    (default 0)\n"
      "  --heartbeat-period  parent probe period, s; 0 = instant detection\n"
      "  --heartbeat-misses  probes missed before declaring death (default 3)\n"
      "  --heartbeat-timeout wait after the last miss, s    (default 0.5)\n"
      "  --control-loss extra loss on control exchanges (enables retries)\n"
      "  --retry-timeout initial retransmission timeout, s  (default 0.25)\n"
      "  --mst / --no-mst  force the O(N^2) final-tree MST-ratio baseline\n"
      "               on/off (auto: off above 4096 members)\n"
      "  --seeds      independent repetitions               (default 8)\n"
      "  --seed       base seed                             (default 1)\n"
      "  --threads    worker cap for the seed sweep; 0 = hardware (default 0)\n"
      "  --run-threads  worker threads for the collector's tree-measurement\n"
      "               reads inside one seed; 0 = hardware (default 1 =\n"
      "               serial; results are bit-identical for any value)\n"
      "  --profile    print a per-phase wall-time footer (join / refine /\n"
      "               flood / metrics, summed across seeds) after the table,\n"
      "               with event (periodic / one-shot), timer, router tree\n"
      "               and settled-vertex counts\n"
      "  --quiet      suppress the per-seed progress line on stderr\n"
      "  --trace-joins  print one line per tree-walk step (forces --threads 1;\n"
      "               pair with small --members/--seeds, it is verbose)\n"
      "  --csv        emit machine-readable CSV instead of a table\n"
      "  --help       this text\n";
  return 0;
}

/// --trace-joins sink: one line per walk iteration across every join,
/// reconnection and refinement walk of the run.
class StdoutWalkTrace final : public overlay::WalkObserver {
 public:
  void on_step(const overlay::WalkStep& s) override {
    const std::string_view decision = overlay::walk_decision_name(s.decision);
    std::printf(
        "walk joiner=%llu step=%d at=%llu probes=%d decision=%.*s next=%llu\n",
        static_cast<unsigned long long>(s.joiner), s.step,
        static_cast<unsigned long long>(s.node), s.probes,
        static_cast<int>(decision.size()), decision.data(),
        static_cast<unsigned long long>(s.next));
  }
};

/// The whole CLI. Malformed numbers (util::Flags throws
/// std::invalid_argument) and configs the library rejects
/// (util::InvariantError) propagate to util::run_main, which turns them into
/// exit 2.
int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  // Every flag read below. Any other is a typo that would otherwise run a
  // different experiment than the one asked for.
  flags.reject_unknown(
      {"help", "protocol", "underlay", "substrate", "metric", "members",
       "nodes", "churn", "join-phase", "total-time", "interval", "settle",
       "degree-avg", "degree-min", "degree-max", "chunk-rate", "join-mode",
       "flash", "flash-at", "link-loss", "probe-noise", "hmtp-period",
       "no-hmtp-refine", "foster-child", "buffer", "crash-frac",
       "heartbeat-period", "heartbeat-misses", "heartbeat-timeout",
       "control-loss", "retry-timeout", "run-threads", "profile", "seed",
       "workload", "mean-session", "pareto-alpha", "diurnal-period",
       "diurnal-amplitude", "save-trace", "trajectory", "journal", "mst",
       "no-mst", "quiet", "seeds", "threads", "trace-joins", "csv"});
  if (flags.get_bool("help", false)) return usage();

  RunConfig cfg;
  const std::string proto = flags.get("protocol", "vdm");
  if (proto == "vdm") {
    cfg.protocol = Proto::kVdm;
  } else if (proto == "vdm-r") {
    cfg.protocol = Proto::kVdmRefine;
  } else if (proto == "hmtp") {
    cfg.protocol = Proto::kHmtp;
  } else if (proto == "btp") {
    cfg.protocol = Proto::kBtp;
  } else if (proto == "random") {
    cfg.protocol = Proto::kRandom;
  } else {
    std::cerr << "unknown --protocol '" << proto << "' (see --help)\n";
    return 2;
  }

  // --underlay is the documented spelling; --substrate stays as an alias so
  // existing scripts keep working. Unknown values are a hard usage error —
  // silently falling back to a default would bench the wrong substrate.
  const std::string substrate = flags.has("underlay")
                                    ? flags.get("underlay", "transit-stub")
                                    : flags.get("substrate", "transit-stub");
  if (substrate == "transit-stub") {
    cfg.substrate = Substrate::kTransitStub;
  } else if (substrate == "waxman") {
    cfg.substrate = Substrate::kWaxman;
  } else if (substrate == "geo-us") {
    cfg.substrate = Substrate::kGeoUs;
  } else if (substrate == "geo-world") {
    cfg.substrate = Substrate::kGeoWorld;
  } else if (substrate == "coord-us") {
    cfg.substrate = Substrate::kCoordUs;
  } else if (substrate == "coord-world") {
    cfg.substrate = Substrate::kCoordWorld;
  } else if (substrate == "coord-plane") {
    cfg.substrate = Substrate::kCoordPlane;
  } else {
    std::cerr << "unknown --underlay '" << substrate << "' (see --help)\n";
    return 2;
  }

  const std::string metric = flags.get("metric", "delay");
  if (metric == "delay") {
    cfg.metric = Metric::kDelay;
  } else if (metric == "loss") {
    cfg.metric = Metric::kLoss;
  } else if (metric == "blend") {
    cfg.metric = Metric::kBlend;
  } else if (metric == "cached-delay") {
    cfg.metric = Metric::kCachedDelay;
  } else if (metric == "cached-loss") {
    cfg.metric = Metric::kCachedLoss;
  } else {
    std::cerr << "unknown --metric '" << metric << "' (see --help)\n";
    return 2;
  }

  cfg.scenario.target_members = flags.has("nodes")
                                     ? flags.get_count("nodes", 200)
                                     : flags.get_count("members", 200);
  cfg.scenario.churn_rate = flags.get_double("churn", 0.05);
  cfg.scenario.join_phase = flags.get_double("join-phase", 2000.0);
  cfg.scenario.total_time = flags.get_double("total-time", 10000.0);
  cfg.scenario.churn_interval = flags.get_double("interval", 400.0);
  cfg.scenario.settle_time = flags.get_double("settle", 100.0);
  if (flags.has("degree-avg")) {
    cfg.scenario.degrees = overlay::DegreeSpec::average(flags.get_double("degree-avg", 4.0));
  } else {
    cfg.scenario.degrees = overlay::DegreeSpec::uniform(
        static_cast<int>(flags.get_int("degree-min", 2)),
        static_cast<int>(flags.get_int("degree-max", 5)));
  }
  cfg.session.chunk_rate = flags.get_double("chunk-rate", 1.0);
  const std::string join_mode = flags.get("join-mode", "sequential");
  if (join_mode == "sequential") {
    cfg.session.join_mode = overlay::JoinMode::kSequential;
  } else if (join_mode == "locating") {
    cfg.session.join_mode = overlay::JoinMode::kLocating;
  } else if (join_mode == "concurrent") {
    cfg.session.join_mode = overlay::JoinMode::kConcurrent;
  } else {
    std::cerr << "unknown --join-mode '" << join_mode << "' (see --help)\n";
    return 2;
  }
  cfg.scenario.flash_count = flags.get_count("flash", 0);
  cfg.scenario.flash_at =
      flags.get_double("flash-at", cfg.scenario.join_phase);
  cfg.link_loss_max = flags.get_double("link-loss", 0.0);
  cfg.probe_noise = flags.get_double("probe-noise", 0.0);
  cfg.hmtp_refine_period = flags.get_double("hmtp-period", 30.0);
  cfg.hmtp_refinement = !flags.get_bool("no-hmtp-refine", false);
  cfg.hmtp_foster_child = flags.get_bool("foster-child", false);
  cfg.session.buffer_seconds = flags.get_double("buffer", 0.0);
  cfg.scenario.crash_fraction = flags.get_double("crash-frac", 0.0);
  cfg.session.faults.heartbeat_period = flags.get_double("heartbeat-period", 0.0);
  cfg.session.faults.heartbeat_misses =
      static_cast<int>(flags.get_int("heartbeat-misses", 3));
  cfg.session.faults.heartbeat_timeout = flags.get_double("heartbeat-timeout", 0.5);
  if (flags.has("control-loss")) {
    cfg.session.faults.lossy_control = true;
    cfg.session.faults.control_loss_extra = flags.get_double("control-loss", 0.0);
  }
  cfg.session.faults.retry_timeout = flags.get_double("retry-timeout", 0.25);
  cfg.session.threads = static_cast<int>(flags.get_int("run-threads", 1));
  cfg.session.profile = flags.get_bool("profile", false);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  const std::string workload = flags.get("workload", "slots");
  if (!overlay::parse_workload_kind(workload, cfg.workload)) {
    std::cerr << "unknown --workload '" << workload << "' (see --help)\n";
    return 2;
  }
  cfg.workload.mean_session = flags.get_double("mean-session", 2000.0);
  cfg.workload.pareto_alpha = flags.get_double("pareto-alpha", 1.5);
  cfg.workload.diurnal_period = flags.get_double("diurnal-period", 4000.0);
  cfg.workload.diurnal_amplitude = flags.get_double("diurnal-amplitude", 0.8);
  const std::string save_trace = flags.get("save-trace", "");
  if (!save_trace.empty()) {
    std::vector<overlay::WorkloadEvent> events;
    workload_events(cfg, events);
    overlay::write_trace_file(save_trace, events, cfg.scenario.total_time);
    if (!flags.get_bool("quiet", false)) {
      std::cerr << "wrote " << events.size() << " events (seed " << cfg.seed
                << ") to " << save_trace << '\n';
    }
  }
  const bool want_trajectory = flags.get_bool("trajectory", false);
  cfg.keep_epochs = want_trajectory;
  const std::string journal_path = flags.get("journal", "");
  std::ofstream journal_out;
  overlay::MembershipJournal journal;
  if (!journal_path.empty()) {
    journal_out.open(journal_path);
    if (!journal_out) {
      std::cerr << "cannot write --journal '" << journal_path << "'\n";
      return 2;
    }
    cfg.journal = &journal;
  }

  // The MST-ratio baseline is an O(N^2) Prim pass over the final tree —
  // fine at paper scale, minutes at coordinate-substrate scale. Auto-off
  // above 4096 members; --mst / --no-mst override in either direction.
  cfg.compute_mst_ratio =
      cfg.scenario.target_members + cfg.scenario.flash_count <= 4096;
  if (flags.get_bool("mst", false)) cfg.compute_mst_ratio = true;
  if (flags.get_bool("no-mst", false)) cfg.compute_mst_ratio = false;
  if (!cfg.compute_mst_ratio && !flags.get_bool("no-mst", false) &&
      !flags.get_bool("quiet", false)) {
    std::cerr << "note: skipping O(N^2) mst_ratio above 4096 members "
                 "(--mst forces it)\n";
  }

  const auto seeds = flags.get_count("seeds", 8);

  SweepOptions sweep;
  sweep.threads = flags.get_count("threads", 0);
  StdoutWalkTrace trace;
  if (flags.get_bool("trace-joins", false)) {
    cfg.walk_observer = &trace;
    if (sweep.threads != 1) {
      std::cerr << "note: --trace-joins serializes the sweep; overriding "
                   "--threads "
                << sweep.threads << " (0 = hardware) to 1\n";
    }
    sweep.threads = 1;  // keep the interleaved trace deterministic
  }
  // run_grid runs a journaled sweep on one worker; the footer says so.
  if (cfg.journal != nullptr) sweep.threads = 1;
  const auto start = std::chrono::steady_clock::now();
  if (!flags.get_bool("quiet", false)) {
    sweep.progress = [start](std::size_t done, std::size_t total) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      const double eta = done > 0 ? elapsed * static_cast<double>(total - done) /
                                        static_cast<double>(done)
                                  : 0.0;
      std::fprintf(stderr, "\r  seed %zu/%zu  elapsed %.1fs  eta %.1fs ", done,
                   total, elapsed, eta);
      if (done == total) std::fputc('\n', stderr);
      std::fflush(stderr);
    };
  }
  const AggregateResult agg =
      run_grid(std::span<const RunConfig>(&cfg, 1), seeds, sweep).front();
  if (cfg.journal != nullptr) journal.write_csv(journal_out);

  util::Table t({"metric", "mean", "ci90", "min", "max"});
  auto row = [&](const std::string& name, const util::Summary& s, int prec = 4) {
    t.add_row({name, util::Table::fmt(s.mean, prec), util::Table::fmt(s.ci_halfwidth, prec),
               util::Table::fmt(s.min, prec), util::Table::fmt(s.max, prec)});
  };
  row("stress", agg.stress);
  row("stretch", agg.stretch);
  row("stretch_leaf", agg.stretch_leaf);
  row("hopcount", agg.hopcount);
  row("hop_max", agg.hop_max);
  row("loss_rate", agg.loss, 5);
  row("overhead", agg.overhead, 5);
  row("network_usage_s", agg.network_usage);
  row("startup_s", agg.startup_avg);
  row("startup_p50_s", agg.startup_p50);
  row("startup_p99_s", agg.startup_p99);
  row("joins_per_sec", agg.join_rate, 2);
  row("reconnect_s", agg.reconnect_avg);
  if (cfg.scenario.crash_fraction > 0.0) {
    row("detection_s", agg.detection_avg);
    row("outage_s", agg.outage_avg);
  }
  if (cfg.compute_mst_ratio) row("mst_ratio", agg.mst_ratio);

  if (flags.get_bool("csv", false)) {
    t.print_csv(std::cout);
  } else {
    std::cout << proto << " on " << substrate << ", "
              << cfg.scenario.target_members << " members, workload "
              << overlay::workload_kind_name(cfg.workload.kind) << ", churn "
              << 100 * cfg.scenario.churn_rate << "%, " << seeds << " seeds\n\n";
    t.print(std::cout);
  }

  if (cfg.session.profile) {
    double join = 0.0, refine = 0.0, flood = 0.0, metrics_t = 0.0;
    unsigned long long events = 0, periodic = 0, heartbeats = 0,
                       refine_ticks = 0, verdicts_true = 0, verdicts_false = 0,
                       trees = 0, settled = 0;
    for (const RunResult& r : agg.runs) {
      join += r.profile_join_secs;
      refine += r.profile_refine_secs;
      flood += r.profile_flood_secs;
      metrics_t += r.profile_metrics_secs;
      events += r.sim_events;
      periodic += r.sim_periodic_fires;
      heartbeats += r.totals.heartbeat_ticks;
      refine_ticks += r.totals.refine_ticks;
      verdicts_true += r.totals.verdicts_true;
      verdicts_false += r.totals.verdicts_false;
      trees += r.net_trees;
      settled += r.net_settled;
    }
    std::printf(
        "\nprofile (%zu seeds): join %.3fs  refine %.3fs  flood %.3fs  "
        "metrics %.3fs\n"
        "  sim events %llu (periodic %llu, one-shot %llu)\n"
        "  timers: heartbeat ticks %llu, refine ticks %llu, verdicts %llu true"
        " / %llu false\n"
        "  underlay: router trees %llu, vertices settled %llu\n"
        "  run-threads %d, sweep workers %zu\n",
        agg.runs.size(), join, refine, flood, metrics_t, events, periodic,
        events - periodic, heartbeats, refine_ticks, verdicts_true,
        verdicts_false, trees, settled, cfg.session.threads, sweep.threads);
  }

  if (want_trajectory && !agg.runs.empty()) {
    // Per epoch: continuity is the delivered fraction of expected chunks,
    // outage the mean of the epoch's crash recoveries (0 without one).
    util::Table traj({"t", "continuity", "outage_s", "overhead", "members"});
    for (const metrics::EpochSample& e : agg.runs.front().epochs) {
      const std::vector<double>& outages = e.outage_times;
      const double outage =
          outages.empty() ? 0.0
                          : std::accumulate(outages.begin(), outages.end(), 0.0) /
                                static_cast<double>(outages.size());
      traj.add_row({util::Table::fmt(e.at, 1), util::Table::fmt(1.0 - e.loss_rate, 5),
                    util::Table::fmt(outage, 3), util::Table::fmt(e.overhead, 5),
                    std::to_string(e.members)});
    }
    if (flags.get_bool("csv", false)) {
      traj.print_csv(std::cout);
    } else {
      std::cout << "\ntrajectory (seed " << cfg.seed << ")\n\n";
      traj.print(std::cout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
