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

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;
using namespace vdm::experiments;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", default_seeds(4, 16));
  const auto members = flags.get_count("members", 100);
  const double mean_session = flags.get_double("mean-session", 2000.0);

  RunConfig base;
  base.substrate = Substrate::kTransitStub;
  base.scenario.target_members = members;
  base.scenario.join_phase = 1000.0;
  base.scenario.total_time = 6000.0;
  base.scenario.churn_interval = 400.0;
  base.scenario.settle_time = 100.0;
  base.scenario.churn_rate = 0.05;
  base.scenario.crash_fraction = 0.25;
  base.session.chunk_rate = 1.0;
  base.session.faults.heartbeat_period = 1.0;
  base.session.faults.heartbeat_misses = 3;
  base.session.faults.heartbeat_timeout = 0.5;
  base.workload.mean_session = mean_session;
  base.keep_epochs = true;
  base.seed = 900;

  const std::vector<overlay::WorkloadKind> workloads{
      overlay::WorkloadKind::kSlots, overlay::WorkloadKind::kPoisson,
      overlay::WorkloadKind::kDiurnal, overlay::WorkloadKind::kPareto};
  const std::vector<Proto> protocols{Proto::kVdm, Proto::kHmtp, Proto::kBtp,
                                     Proto::kRandom};

  // One flat grid: workload-major, protocol-minor.
  std::vector<RunConfig> points;
  for (const overlay::WorkloadKind wk : workloads) {
    for (const Proto proto : protocols) {
      RunConfig cfg = base;
      cfg.workload.kind = wk;
      cfg.protocol = proto;
      points.push_back(cfg);
    }
  }
  SweepOptions sweep;
  sweep.threads = flags.get_count("threads", 0);
  const std::vector<AggregateResult> results = run_grid(points, seeds, sweep);
  const auto at = [&](std::size_t w, std::size_t p) -> const AggregateResult& {
    return results[w * protocols.size() + p];
  };

  const std::string setup =
      "transit-stub 792 routers, " + std::to_string(members) + " members, " +
      std::to_string(seeds) + " seeds, mean session " +
      util::Table::fmt(mean_session, 0) +
      " s, crash fraction 25%, heartbeat 1 s x3 +0.5 s;\n"
      "per seed, all four protocols replay the identical membership trace";

  auto emit = [&](const std::string& metric, const std::string& expectation,
                  util::Summary AggregateResult::* field, int precision = 3) {
    banner("Workload churn — " + metric + " by membership process",
           setup + "\n" + note_expectation(expectation));
    util::Table t({"workload", "VDM", "HMTP", "BTP", "Random"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      t.add_row({std::string(overlay::workload_kind_name(workloads[w])),
                 ci_cell(at(w, 0).*field, precision),
                 ci_cell(at(w, 1).*field, precision),
                 ci_cell(at(w, 2).*field, precision),
                 ci_cell(at(w, 3).*field, precision)});
    }
    t.print(std::cout);
  };

  emit("loss rate",
       "sustained (non-slotted) churn overlaps departures with repairs, so "
       "every generated kind loses more than the settled slot timeline; "
       "heavy-tailed Pareto sessions churn the tree's young leaves hardest",
       &AggregateResult::loss, 5);
  emit("control overhead (msgs per data transmission)",
       "ordering as in Fig 3.28: Random < VDM < BTP << refining HMTP, "
       "roughly workload-independent (heartbeats dominate)",
       &AggregateResult::overhead, 4);
  emit("outage = detection + rejoin (s)",
       "detection-dominated and flat across workloads — the failure "
       "detector, not the arrival process, sets the floor",
       &AggregateResult::outage_avg);
  emit("stretch",
       "tree quality holds near the slot-timeline value under every "
       "arrival process (VDM lowest, Random highest)",
       &AggregateResult::stretch);

  // Time series under the diurnal wave: membership breathes with the
  // arrival-rate swing while delivered continuity stays pinned near 1.
  const std::size_t diurnal = 2;  // index in `workloads`
  banner("Diurnal trajectory (seed " + std::to_string(base.seed) + ")",
         setup + "\n" +
             note_expectation("member count follows the arrival wave; "
                              "continuity stays >= ~0.99 for every protocol "
                              "through both the crest and the trough"));
  util::Table traj(
      {"t", "members", "VDM", "HMTP", "BTP", "Random"});
  const std::vector<metrics::EpochSample>& lead =
      at(diurnal, 0).runs.front().epochs;
  for (std::size_t i = 0; i < lead.size(); ++i) {
    std::vector<std::string> row{util::Table::fmt(lead[i].at, 0),
                                 std::to_string(lead[i].members)};
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      // Continuity: the delivered fraction of the epoch's expected chunks.
      const std::vector<metrics::EpochSample>& tr =
          at(diurnal, p).runs.front().epochs;
      row.push_back(i < tr.size() ? util::Table::fmt(1.0 - tr[i].loss_rate, 5)
                                  : "-");
    }
    traj.add_row(std::move(row));
  }
  traj.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
