// Figures 5.28-5.30: the refinement component (VDM-R, 5-minute period).
// Expectation: ~10% better stretch and a more balanced tree (lower
// hopcount), paid for in control overhead.

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", experiments::default_seeds(5, 5));

  const std::vector<std::size_t> sizes{10, 20, 30, 40, 50};
  std::vector<TestbedConfig> configs;
  for (const std::size_t n : sizes) {
    TestbedConfig cfg;
    cfg.members = n;
    cfg.churn_rate = 0.05;
    cfg.proto = TestbedConfig::Proto::kVdm;
    configs.push_back(cfg);
    cfg.proto = TestbedConfig::Proto::kVdmRefine;
    configs.push_back(cfg);
  }
  const std::vector<TestbedAggregate> aggs = run_testbed_grid(
      configs, seeds, flags.get_count("threads", 0));

  struct Row {
    TestbedAggregate vdm, vdm_r;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    rows.push_back(Row{aggs[2 * i], aggs[2 * i + 1]});
  }

  const std::string setup = "US testbed pool (~140 usable nodes), churn 5%, degree 4, " +
                            std::to_string(seeds) + " runs; VDM-R refines every 5 min";

  auto emit = [&](const std::string& fig, const std::string& metric,
                  const std::string& expectation,
                  util::Summary TestbedAggregate::* field, int precision) {
    banner(fig + " — " + metric + " vs number of nodes",
           setup + "\n" + note_expectation(expectation));
    util::Table t({"nodes", "VDM", "VDM-R"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      t.add_row({std::to_string(sizes[i]), ci_cell(rows[i].vdm.*field, precision),
                 ci_cell(rows[i].vdm_r.*field, precision)});
    }
    t.print(std::cout);
  };

  emit("Figure 5.28", "stretch", "VDM-R ~10% better",
       &TestbedAggregate::stretch, 3);
  emit("Figure 5.29", "hopcount", "VDM-R lower (more balanced tree)",
       &TestbedAggregate::hop, 2);
  emit("Figure 5.30", "overhead (control msgs per source chunk)",
       "VDM-R clearly higher — the cost of refinement",
       &TestbedAggregate::overhead, 4);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
