// Figures 3.29-3.32: VDM's stress / stretch / loss / overhead as the
// overlay grows from 100 to 1000 members — the Chapter-3 scalability sweep.

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;
using namespace vdm::experiments;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", default_seeds(4, 32));

  const std::vector<std::size_t> sizes{100, 200, 400, 700, 1000};
  std::vector<RunConfig> points;
  for (const std::size_t n : sizes) {
    RunConfig cfg;
    cfg.substrate = Substrate::kTransitStub;
    cfg.scenario.target_members = n;
    cfg.scenario.join_phase = 2000.0;
    cfg.scenario.total_time = 10000.0;
    cfg.scenario.churn_interval = 400.0;
    cfg.scenario.settle_time = 100.0;
    cfg.scenario.churn_rate = 0.05;
    cfg.session.chunk_rate = 1.0;
    cfg.seed = 200;
    points.push_back(cfg);
  }
  SweepOptions sweep;
  sweep.threads = flags.get_count("threads", 0);
  const std::vector<AggregateResult> results = run_grid(points, seeds, sweep);

  const std::string setup = "transit-stub 792 routers, VDM, churn 5%, degree U[2,5], " +
                            std::to_string(seeds) + " seeds";

  auto emit = [&](const std::string& fig, const std::string& metric,
                  const std::string& expectation,
                  util::Summary AggregateResult::* field, int precision = 3) {
    banner(fig + " — " + metric + " vs number of nodes",
           setup + "\n" + note_expectation(expectation));
    util::Table t({"nodes", "VDM"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      t.add_row({std::to_string(sizes[i]), ci_cell(results[i].*field, precision)});
    }
    t.print(std::cout);
  };

  emit("Figure 3.29", "stress", "grows ~1.3 -> ~1.8, sub-linear",
       &AggregateResult::stress);
  emit("Figure 3.30", "stretch", "grows with N (deeper trees), sub-linear",
       &AggregateResult::stretch);
  emit("Figure 3.31", "loss rate", "grows mildly with N (bigger blast radius)",
       &AggregateResult::loss, 5);
  emit("Figure 3.32", "overhead", "grows with diminishing increase (log N joins)",
       &AggregateResult::overhead);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
