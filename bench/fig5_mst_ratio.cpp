// Figure 5.31: how close VDM's tree gets to the oracle minimum spanning
// tree, with degree limits lifted (the paper removes them for this
// comparison). Expectation: the ratio grows mildly with membership but
// stays well-bounded (paper: < 2 up to 50 nodes).

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
    cfg.churn_rate = 0.0;  // settled join-only trees, as in the figure
    cfg.degree = 64;       // "we don't apply degree limitation"
    cfg.source_degree = 64;
    cfg.total_time = cfg.join_phase + 500.0;
    configs.push_back(cfg);
  }
  const std::vector<TestbedAggregate> rows = run_testbed_grid(
      configs, seeds, flags.get_count("threads", 0));

  banner("Figure 5.31 — overlay tree cost / MST cost vs number of nodes",
         "US testbed pool, VDM, no degree limits, join-only, " +
             std::to_string(seeds) + " runs\n" +
             note_expectation("ratio rises with N but stays < ~2"));
  util::Table t({"nodes", "tree/MST ratio"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    t.add_row({std::to_string(sizes[i]), ci_cell(rows[i].mst_ratio)});
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
