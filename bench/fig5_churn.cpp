// Figures 5.7-5.13: the Chapter-5 head-to-head on the PlanetLab-like
// testbed — VDM vs HMTP across churn rates 2-10%: startup time,
// reconnection time, stretch, hopcount, resource usage, loss rate and
// control overhead. 100 members from a ~140-node US pool, degree 4,
// source in the US-Mountain (Colorado) region, 10 chunks/s, 5000 s runs.

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", experiments::default_seeds(5, 5));
  const auto members = flags.get_count("members", 100);

  const std::vector<double> churn_rates{0.02, 0.04, 0.06, 0.08, 0.10};
  std::vector<TestbedConfig> configs;
  for (const double churn : churn_rates) {
    TestbedConfig cfg;
    cfg.members = members;
    cfg.churn_rate = churn;
    cfg.proto = TestbedConfig::Proto::kVdm;
    configs.push_back(cfg);
    cfg.proto = TestbedConfig::Proto::kHmtp;
    configs.push_back(cfg);
  }
  const std::vector<TestbedAggregate> aggs = run_testbed_grid(
      configs, seeds, flags.get_count("threads", 0));

  struct Row {
    TestbedAggregate vdm, hmtp;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < churn_rates.size(); ++i) {
    rows.push_back(Row{aggs[2 * i], aggs[2 * i + 1]});
  }

  const std::string setup = "US testbed pool (~140 usable nodes), " + std::to_string(members) +
                            " members, degree 4, 10 chunks/s, 5000 s, " +
                            std::to_string(seeds) + " runs";

  auto emit = [&](const std::string& fig, const std::string& metric,
                  const std::string& expectation,
                  util::Summary TestbedAggregate::* field, int precision) {
    banner(fig + " — " + metric + " vs churn rate",
           setup + "\n" + note_expectation(expectation));
    util::Table t({"churn(%)", "VDM", "HMTP"});
    for (std::size_t i = 0; i < churn_rates.size(); ++i) {
      t.add_row({util::Table::fmt(100 * churn_rates[i], 0),
                 ci_cell(rows[i].vdm.*field, precision),
                 ci_cell(rows[i].hmtp.*field, precision)});
    }
    t.print(std::cout);
  };

  emit("Figure 5.7", "startup time (s)",
       "flat in churn; HMTP a little higher (more search steps)",
       &TestbedAggregate::startup_avg, 3);
  emit("Figure 5.8", "reconnection time (s)",
       "flat in churn; below startup time (search starts at grandparent)",
       &TestbedAggregate::reconnect_avg, 3);
  emit("Figure 5.9", "stretch", "VDM ~1.6 vs HMTP ~1.9",
       &TestbedAggregate::stretch, 3);
  emit("Figure 5.10", "hopcount", "VDM ~4.5 vs HMTP ~5.5, churn-independent",
       &TestbedAggregate::hop, 2);
  emit("Figure 5.11", "resource usage (sum of used virtual-link delays, s)",
       "VDM uses less than HMTP", &TestbedAggregate::usage, 3);
  emit("Figure 5.12", "loss rate", "increases with churn; VDM lower",
       &TestbedAggregate::loss, 5);
  emit("Figure 5.13", "overhead (control msgs per source chunk)",
       "HMTP much higher (30 s refinement messages)",
       &TestbedAggregate::overhead, 4);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
