// Figures 3.25-3.28: stress / stretch / loss / overhead vs churn rate,
// VDM against HMTP on the GT-ITM transit-stub substrate (NS-2 setting:
// 792 routers, 200 members, 10000 s sessions, 400 s churn slots, degree
// limits U[2,5], 90% CIs across seeds).
//
// HMTP appears twice: with its periodic refinement (the deployable
// protocol; 30 s period as stated in §5.4.2) and with refinement disabled
// (matching VDM's zero-maintenance operating point). See EXPERIMENTS.md.

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;
using namespace vdm::experiments;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", default_seeds(6, 32));
  const auto members = flags.get_count("members", 200);

  RunConfig base;
  base.substrate = Substrate::kTransitStub;
  base.scenario.target_members = members;
  base.scenario.join_phase = 2000.0;
  base.scenario.total_time = 10000.0;
  base.scenario.churn_interval = 400.0;
  base.scenario.settle_time = 100.0;
  base.session.chunk_rate = 1.0;
  base.seed = 100;

  const std::vector<double> churn_rates{0.01, 0.03, 0.05, 0.07, 0.10};

  // One flat grid: (churn rate x {VDM, HMTP, HMTP-norefine}), three points
  // per churn in the same order the serial loop ran them.
  std::vector<RunConfig> points;
  for (const double churn : churn_rates) {
    RunConfig cfg = base;
    cfg.scenario.churn_rate = churn;
    points.push_back(cfg);
    cfg.protocol = Proto::kHmtp;
    points.push_back(cfg);
    cfg.hmtp_refinement = false;
    points.push_back(cfg);
  }
  SweepOptions sweep;
  sweep.threads = flags.get_count("threads", 0);
  std::vector<AggregateResult> results = run_grid(points, seeds, sweep);

  struct Row {
    AggregateResult vdm, hmtp, hmtp_nr;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < churn_rates.size(); ++i) {
    rows.push_back(Row{std::move(results[3 * i]), std::move(results[3 * i + 1]),
                       std::move(results[3 * i + 2])});
  }

  const std::string setup =
      "transit-stub 792 routers, " + std::to_string(members) + " members, " +
      std::to_string(seeds) + " seeds, degree U[2,5], 10000 s";

  auto emit = [&](const std::string& fig, const std::string& metric,
                  const std::string& expectation,
                  util::Summary AggregateResult::* field, int precision = 3) {
    banner(fig + " — " + metric + " vs churn", setup + "\n" + note_expectation(expectation));
    util::Table t({"churn(%)", "VDM", "HMTP", "HMTP-norefine"});
    for (std::size_t i = 0; i < churn_rates.size(); ++i) {
      t.add_row({util::Table::fmt(100 * churn_rates[i], 0), ci_cell(rows[i].vdm.*field, precision),
                 ci_cell(rows[i].hmtp.*field, precision), ci_cell(rows[i].hmtp_nr.*field, precision)});
    }
    t.print(std::cout);
  };

  emit("Figure 3.25", "stress",
       "both ~1.45-1.75, VDM slightly lower, flat in churn",
       &AggregateResult::stress);
  emit("Figure 3.26", "stretch",
       "VDM below HMTP, mildly increasing with churn",
       &AggregateResult::stretch);
  emit("Figure 3.27", "loss rate",
       "small (churn-driven only), VDM below HMTP, increasing with churn",
       &AggregateResult::loss, 5);
  emit("Figure 3.28", "control overhead (msgs per data transmission)",
       "linear in churn; VDM well below refining HMTP (paper: 2.2% vs ~5%)",
       &AggregateResult::overhead, 4);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
