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
#include <initializer_list>
#include <iostream>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "experiments/runner.hpp"
#include "experiments/sweep.hpp"
#include "overlay/journal.hpp"
#include "overlay/walk.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace vdm;
using namespace vdm::experiments;

namespace {

/// Every flag vdmsim reads, with its default; --help prints this table.
constexpr util::Flag kFlags[] = {
    {"protocol", "NAME", "vdm", "vdm | vdm-r | hmtp | btp | random"},
    {"underlay", "NAME", "transit-stub",
     "transit-stub | waxman | geo-us | geo-world | coord-us |\n"
     "coord-world | coord-plane (coord-*: O(1) delays, for large N)"},
    {"substrate", "NAME", "", "alias of --underlay"},
    {"metric", "NAME", "delay", "delay | loss | blend | cached-delay | cached-loss"},
    {"members", "N", "200", "overlay size"},
    {"nodes", "N", "", "alias of --members"},
    {"churn", "X", "0.05", "fraction replaced per interval"},
    {"degree-min", "N", "2", "child capacity lower bound"},
    {"degree-max", "N", "5", "child capacity upper bound"},
    {"degree-avg", "X", "", "fractional average degree (overrides min/max)"},
    {"join-phase", "S", "2000", "timeline: join phase, s"},
    {"total-time", "S", "10000", "timeline: run length, s"},
    {"interval", "S", "400", "timeline: churn interval, s"},
    {"settle", "S", "100", "timeline: settle time, s"},
    {"chunk-rate", "R", "1", "data chunks per second"},
    {"join-mode", "NAME", "sequential", "sequential | locating | concurrent (see README)"},
    {"flash", "N", "0", "burst arrivals at one instant on top of --members"},
    {"flash-at", "S", "", "the burst's instant (default: end of the join phase)"},
    {"workload", "KIND", "slots", "slots | poisson | diurnal | pareto | trace:<file>"},
    {"mean-session", "S", "2000", "mean member session length, s"},
    {"pareto-alpha", "X", "1.5", "Pareto session shape, > 1"},
    {"diurnal-period", "S", "4000", "arrival-rate wave period, s"},
    {"diurnal-amplitude", "X", "0.8", "arrival-rate wave amplitude"},
    {"save-trace", "FILE", "",
     "write the first seed's events as a trace (replay: --workload trace:FILE)"},
    {"trajectory", "", "", "print the first seed's per-measurement time series"},
    {"journal", "FILE", "", "write the first seed's tree changes as CSV"},
    {"link-loss", "X", "0", "per-link error ceiling"},
    {"probe-noise", "X", "0", "RTT measurement noise std-dev"},
    {"hmtp-period", "S", "30", "HMTP refinement period, s"},
    {"no-hmtp-refine", "", "", "turn HMTP refinement off"},
    {"foster-child", "", "", "HMTP foster-child quick start"},
    {"buffer", "S", "0", "playout buffer, s"},
    {"crash-frac", "X", "0", "fraction of departures that crash"},
    {"heartbeat-period", "S", "0", "parent probe period, s; 0 = instant detection"},
    {"heartbeat-misses", "N", "3", "probes missed before declaring death"},
    {"heartbeat-timeout", "S", "0.5", "wait after the last miss, s"},
    {"control-loss", "X", "", "extra loss on control exchanges (enables retries)"},
    {"retry-timeout", "S", "0.25", "initial retransmission timeout, s"},
    {"mst", "", "", "force the O(N^2) MST-ratio baseline on\n(auto: off above 4096 members)"},
    {"no-mst", "", "", "force the MST-ratio baseline off"},
    {"seeds", "N", "8", "independent repetitions"},
    {"seed", "N", "1", "base seed"},
    {"threads", "N", "0", "worker cap for the seed sweep; 0 = hardware"},
    {"run-threads", "N", "1", "workers for one seed's tree measurement; 0 = hardware"},
    {"profile", "", "", "print wall time per phase and work counts after the table"},
    {"quiet", "", "", "suppress the per-seed progress line on stderr"},
    {"trace-joins", "", "", "print every tree-walk step (forces --threads 1; verbose)"},
    {"csv", "", "", "emit machine-readable CSV instead of a table"},
};

constexpr util::Usage kUsage{.about = "Virtual Direction Multicast experiments.",
                             .flags = kFlags};

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

/// The value `--flag` names among `names`; any other throws naming it.
template <typename E>
E choose(std::string_view flag, const std::string& value,
         std::initializer_list<std::pair<std::string_view, E>> names) {
  for (const auto& [name, e] : names) {
    if (value == name) return e;
  }
  throw std::invalid_argument("unknown --" + std::string(flag) + " '" + value +
                              "' (see --help)");
}

/// The whole CLI. Malformed values (std::invalid_argument) and configs the
/// library rejects (util::InvariantError) exit 2 through util::run_main.
int run_cli(const util::Flags& flags) {
  RunConfig cfg;
  const std::string proto = flags.get("protocol");
  cfg.protocol = choose<Proto>("protocol", proto,
                               {{"vdm", Proto::kVdm}, {"vdm-r", Proto::kVdmRefine},
                                {"hmtp", Proto::kHmtp}, {"btp", Proto::kBtp},
                                {"random", Proto::kRandom}});
  // --underlay is the documented spelling; --substrate stays as an alias so
  // existing scripts keep working. Unknown values are a hard usage error —
  // silently falling back to a default would bench the wrong substrate.
  const std::string substrate =
      flags.get(flags.has("substrate") && !flags.has("underlay") ? "substrate" : "underlay");
  cfg.substrate = choose<Substrate>(
      "underlay", substrate,
      {{"transit-stub", Substrate::kTransitStub}, {"waxman", Substrate::kWaxman},
       {"geo-us", Substrate::kGeoUs}, {"geo-world", Substrate::kGeoWorld},
       {"coord-us", Substrate::kCoordUs}, {"coord-world", Substrate::kCoordWorld},
       {"coord-plane", Substrate::kCoordPlane}});
  cfg.metric = choose<Metric>(
      "metric", flags.get("metric"),
      {{"delay", Metric::kDelay}, {"loss", Metric::kLoss}, {"blend", Metric::kBlend},
       {"cached-delay", Metric::kCachedDelay}, {"cached-loss", Metric::kCachedLoss}});

  cfg.scenario.target_members = flags.get_count(flags.has("nodes") ? "nodes" : "members");
  cfg.scenario.churn_rate = flags.get_double("churn");
  cfg.scenario.join_phase = flags.get_double("join-phase");
  cfg.scenario.total_time = flags.get_double("total-time");
  cfg.scenario.churn_interval = flags.get_double("interval");
  cfg.scenario.settle_time = flags.get_double("settle");
  cfg.scenario.degrees =
      flags.has("degree-avg")
          ? overlay::DegreeSpec::average(flags.get_double("degree-avg"))
          : overlay::DegreeSpec::uniform(static_cast<int>(flags.get_int("degree-min")),
                                         static_cast<int>(flags.get_int("degree-max")));
  cfg.session.chunk_rate = flags.get_double("chunk-rate");
  cfg.session.join_mode = choose<overlay::JoinMode>(
      "join-mode", flags.get("join-mode"),
      {{"sequential", overlay::JoinMode::kSequential},
       {"locating", overlay::JoinMode::kLocating},
       {"concurrent", overlay::JoinMode::kConcurrent}});
  cfg.scenario.flash_count = flags.get_count("flash");
  cfg.scenario.flash_at = flags.has("flash-at") ? flags.get_double("flash-at")
                                                : cfg.scenario.join_phase;
  cfg.link_loss_max = flags.get_double("link-loss");
  cfg.probe_noise = flags.get_double("probe-noise");
  cfg.hmtp_refine_period = flags.get_double("hmtp-period");
  cfg.hmtp_refinement = !flags.get_bool("no-hmtp-refine");
  cfg.hmtp_foster_child = flags.get_bool("foster-child");
  cfg.session.buffer_seconds = flags.get_double("buffer");
  cfg.scenario.crash_fraction = flags.get_double("crash-frac");
  cfg.session.faults.heartbeat_period = flags.get_double("heartbeat-period");
  cfg.session.faults.heartbeat_misses = static_cast<int>(flags.get_int("heartbeat-misses"));
  cfg.session.faults.heartbeat_timeout = flags.get_double("heartbeat-timeout");
  if (flags.has("control-loss")) {
    cfg.session.faults.lossy_control = true;
    cfg.session.faults.control_loss_extra = flags.get_double("control-loss");
  }
  cfg.session.faults.retry.timeout = flags.get_double("retry-timeout");
  cfg.session.threads = static_cast<int>(flags.get_int("run-threads"));
  cfg.session.profile = flags.get_bool("profile");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  const std::string workload = flags.get("workload");
  if (!overlay::parse_workload_kind(workload, cfg.workload)) {
    throw std::invalid_argument("unknown --workload '" + workload + "' (see --help)");
  }
  cfg.workload.mean_session = flags.get_double("mean-session");
  cfg.workload.pareto_alpha = flags.get_double("pareto-alpha");
  cfg.workload.diurnal_period = flags.get_double("diurnal-period");
  cfg.workload.diurnal_amplitude = flags.get_double("diurnal-amplitude");
  const bool quiet = flags.get_bool("quiet");
  const std::string save_trace = flags.get("save-trace");
  if (!save_trace.empty()) {
    std::vector<overlay::WorkloadEvent> events;
    workload_events(cfg, events);
    overlay::write_trace_file(save_trace, events, cfg.scenario.total_time);
    if (!quiet) {
      std::cerr << "wrote " << events.size() << " events (seed " << cfg.seed
                << ") to " << save_trace << '\n';
    }
  }
  const bool want_trajectory = flags.get_bool("trajectory");
  cfg.keep_epochs = want_trajectory;
  const std::string journal_path = flags.get("journal");
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
  const bool no_mst = flags.get_bool("no-mst");
  if (flags.get_bool("mst")) cfg.compute_mst_ratio = true;
  if (no_mst) cfg.compute_mst_ratio = false;
  if (!cfg.compute_mst_ratio && !no_mst && !quiet) {
    std::cerr << "note: skipping O(N^2) mst_ratio above 4096 members "
                 "(--mst forces it)\n";
  }

  const auto seeds = flags.get_count("seeds");

  SweepOptions sweep;
  sweep.threads = flags.get_count("threads");
  StdoutWalkTrace trace;
  if (flags.get_bool("trace-joins")) {
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
  if (!quiet) {
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

  const bool csv = flags.get_bool("csv");
  if (csv) {
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
    if (csv) {
      traj.print_csv(std::cout);
    } else {
      std::cout << "\ntrajectory (seed " << cfg.seed << ")\n\n";
      traj.print(std::cout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, kUsage, run_cli); }
