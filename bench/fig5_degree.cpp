// Figures 5.21-5.27: VDM on the testbed as the node degree (children
// capacity) sweeps 2 -> 8. The paper's observation: every metric improves
// until degree ~5, after which the tree stops changing because VDM does
// not exploit capacity it does not need.

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", experiments::default_seeds(5, 5));
  const auto members = flags.get_count("members", 100);

  const std::vector<int> degrees{2, 3, 4, 5, 6, 7, 8};
  std::vector<TestbedConfig> configs;
  for (const int d : degrees) {
    TestbedConfig cfg;
    cfg.members = members;
    cfg.churn_rate = 0.05;
    cfg.degree = d;
    cfg.source_degree = d;
    configs.push_back(cfg);
  }
  const std::vector<TestbedAggregate> rows = run_testbed_grid(
      configs, seeds, flags.get_count("threads", 0));

  const std::string setup = "US testbed pool (~140 usable nodes), VDM, " + std::to_string(members) +
                            " members, churn 5%, " + std::to_string(seeds) + " runs";

  auto emit = [&](const std::string& fig, const std::string& what,
                  const std::string& expectation,
                  const std::vector<std::pair<std::string, util::Summary TestbedAggregate::*>>& cols,
                  int precision) {
    banner(fig + " — " + what + " vs node degree",
           setup + "\n" + note_expectation(expectation));
    std::vector<std::string> headers{"degree"};
    for (const auto& [name, field] : cols) headers.push_back(name);
    util::Table t(headers);
    for (std::size_t i = 0; i < degrees.size(); ++i) {
      std::vector<std::string> row{std::to_string(degrees[i])};
      for (const auto& [name, field] : cols) row.push_back(ci_cell(rows[i].*field, precision));
      t.add_row(row);
    }
    t.print(std::cout);
  };

  emit("Figure 5.21", "startup time (s)",
       "decreases until degree ~4-5, then flat",
       {{"avg", &TestbedAggregate::startup_avg}, {"max", &TestbedAggregate::startup_max}}, 3);
  emit("Figure 5.22", "reconnection time (s)", "no clear dependence on degree",
       {{"avg", &TestbedAggregate::reconnect_avg}, {"max", &TestbedAggregate::reconnect_max}}, 3);
  emit("Figure 5.23", "stretch", "decreasing to a knee near degree 5",
       {{"min", &TestbedAggregate::stretch_min},
        {"avg", &TestbedAggregate::stretch},
        {"leaf-avg", &TestbedAggregate::stretch_leaf},
        {"max", &TestbedAggregate::stretch_max}}, 3);
  emit("Figure 5.24", "hopcount", "~6 at degree 2, ~4 at degree 5, flat after",
       {{"avg", &TestbedAggregate::hop},
        {"leaf-avg", &TestbedAggregate::hop_leaf},
        {"max", &TestbedAggregate::hop_max}}, 2);
  emit("Figure 5.25", "resource usage (s)", "improves with degree, then flat",
       {{"avg", &TestbedAggregate::usage}}, 3);
  emit("Figure 5.26", "loss rate", "higher at small degree (longer paths)",
       {{"avg", &TestbedAggregate::loss}}, 5);
  emit("Figure 5.27", "overhead (control msgs per source chunk)",
       "high at degree 2, decreasing to a plateau around degree 5",
       {{"avg", &TestbedAggregate::overhead}}, 4);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
