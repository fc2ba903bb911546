// Figures 5.14-5.20: VDM on the testbed as membership scales 20 -> 100:
// startup (avg/max), reconnection (avg/max), stretch (min/avg/leaf/max),
// hopcount (avg/leaf/max), resource usage, loss and overhead.

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", experiments::default_seeds(5, 5));

  const std::vector<std::size_t> sizes{20, 40, 60, 80, 100};
  std::vector<TestbedConfig> configs;
  for (const std::size_t n : sizes) {
    TestbedConfig cfg;
    cfg.members = n;
    cfg.churn_rate = 0.05;
    configs.push_back(cfg);
  }
  const std::vector<TestbedAggregate> rows = run_testbed_grid(
      configs, seeds, flags.get_count("threads", 0));

  const std::string setup = "US testbed pool (~140 usable nodes), VDM, churn 5%, degree 4, " +
                            std::to_string(seeds) + " runs";

  auto banner_for = [&](const std::string& fig, const std::string& what,
                        const std::string& expectation) {
    banner(fig + " — " + what + " vs number of nodes",
           setup + "\n" + note_expectation(expectation));
  };

  {
    banner_for("Figure 5.14", "startup time (s)",
               "grows slowly with N (log-depth searches); max ~3x avg");
    util::Table t({"nodes", "avg", "max"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      t.add_row({std::to_string(sizes[i]), ci_cell(rows[i].startup_avg),
                 ci_cell(rows[i].startup_max)});
    }
    t.print(std::cout);
  }
  {
    banner_for("Figure 5.15", "reconnection time (s)",
               "independent of N (starts at the grandparent)");
    util::Table t({"nodes", "avg", "max"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      t.add_row({std::to_string(sizes[i]), ci_cell(rows[i].reconnect_avg),
                 ci_cell(rows[i].reconnect_max)});
    }
    t.print(std::cout);
  }
  {
    banner_for("Figure 5.16", "stretch",
               "min < 1 (triangle violations), avg stabilizes ~1.5, max ~3");
    util::Table t({"nodes", "min", "avg", "leaf-avg", "max"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      t.add_row({std::to_string(sizes[i]), ci_cell(rows[i].stretch_min),
                 ci_cell(rows[i].stretch), ci_cell(rows[i].stretch_leaf),
                 ci_cell(rows[i].stretch_max)});
    }
    t.print(std::cout);
  }
  {
    banner_for("Figure 5.17", "hopcount", "~log N growth; avg ~4, max up to ~11");
    util::Table t({"nodes", "avg", "leaf-avg", "max"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      t.add_row({std::to_string(sizes[i]), ci_cell(rows[i].hop, 2),
                 ci_cell(rows[i].hop_leaf, 2), ci_cell(rows[i].hop_max, 2)});
    }
    t.print(std::cout);
  }
  {
    banner_for("Figure 5.18", "resource usage (s)", "grows with N");
    util::Table t({"nodes", "avg"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      t.add_row({std::to_string(sizes[i]), ci_cell(rows[i].usage)});
    }
    t.print(std::cout);
  }
  {
    banner_for("Figure 5.19", "loss rate",
               "grows with N (same churn rate hits more descendants)");
    util::Table t({"nodes", "avg"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      t.add_row({std::to_string(sizes[i]), ci_cell(rows[i].loss, 5)});
    }
    t.print(std::cout);
  }
  {
    banner_for("Figure 5.20", "overhead (control msgs per source chunk)",
               "grows with N (more nodes to query per join)");
    util::Table t({"nodes", "avg"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      t.add_row({std::to_string(sizes[i]), ci_cell(rows[i].overhead, 4)});
    }
    t.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
