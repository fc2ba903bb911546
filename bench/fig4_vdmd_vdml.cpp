// Figures 4.6-4.9: delay-based VDM-D vs loss-based VDM-L over time, on a
// transit-stub network whose physical links carry random error rates in
// [0%, 2%]. 50 nodes join per interval (no churn); after each batch the
// settled tree is measured. Expectation: VDM-L trades stress/stretch for a
// clearly lower loss rate — the generalization payoff of Chapter 4.

#include <map>

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;
using namespace vdm::experiments;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", default_seeds(6, 32));
  const auto members = flags.get_count("members", 200);

  auto make_config = [&](Metric metric) {
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
    return cfg;
  };

  // Both metric variants as one grid sweep.
  SweepOptions sweep;
  sweep.threads = flags.get_count("threads", 0);
  const std::vector<RunConfig> points{make_config(Metric::kDelay),
                                      make_config(Metric::kLoss)};
  const std::vector<AggregateResult> aggs = run_grid(points, seeds, sweep);

  // Per-epoch averages across seeds for the two metrics.
  struct Series {
    std::vector<double> at, stress, stretch, loss, overhead;
  };
  auto run_series = [&](const AggregateResult& agg) {
    Series s;
    const std::size_t epochs = agg.runs.front().epochs.size();
    for (std::size_t e = 0; e < epochs; ++e) {
      double at = 0, stress = 0, stretch = 0, loss = 0, overhead = 0;
      for (const RunResult& r : agg.runs) {
        at += r.epochs[e].at;
        stress += r.epochs[e].tree.stress_avg;
        stretch += r.epochs[e].tree.stretch_avg;
        loss += r.epochs[e].loss_rate;
        overhead += r.epochs[e].overhead;
      }
      const auto n = static_cast<double>(agg.runs.size());
      s.at.push_back(at / n);
      s.stress.push_back(stress / n);
      s.stretch.push_back(stretch / n);
      s.loss.push_back(loss / n);
      s.overhead.push_back(overhead / n);
    }
    return s;
  };

  const Series vdm_d = run_series(aggs[0]);
  const Series vdm_l = run_series(aggs[1]);

  const std::string setup =
      "transit-stub 792 routers, link error U[0%,2%], 50 joins per interval to " +
      std::to_string(members) + " members, " + std::to_string(seeds) + " seeds";

  auto emit = [&](const std::string& fig, const std::string& metric,
                  const std::string& expectation,
                  std::vector<double> Series::* field, int precision) {
    banner(fig + " — " + metric + " vs time", setup + "\n" + note_expectation(expectation));
    util::Table t({"time(s)", "VDM-L", "VDM-D"});
    for (std::size_t e = 0; e < vdm_d.at.size(); ++e) {
      t.add_row({util::Table::fmt(vdm_d.at[e], 0),
                 util::Table::fmt((vdm_l.*field)[e], precision),
                 util::Table::fmt((vdm_d.*field)[e], precision)});
    }
    t.print(std::cout);
  };

  emit("Figure 4.6", "stress", "both rise with joins; VDM-L above VDM-D (~1.9 vs ~1.7)",
       &Series::stress, 3);
  emit("Figure 4.7", "stretch", "VDM-D gives the better (lower) path stretch",
       &Series::stretch, 3);
  emit("Figure 4.8", "loss rate", "VDM-L clearly below VDM-D (the headline win)",
       &Series::loss, 4);
  emit("Figure 4.9", "overhead", "VDM-L's accounted overhead lower per data message",
       &Series::overhead, 4);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
