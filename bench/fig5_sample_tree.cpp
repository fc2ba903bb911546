// Figures 5.1/5.2/5.5/5.6: the testbed pipeline end to end — synthesize a
// world-wide PlanetLab-like pool, run the three-stage node filter, drive a
// VDM session from a generated scenario file, and print the sample overlay
// tree with its geographic clustering statistics (the "clear clustering in
// continents" observation).

#include <sstream>

#include "bench_common.hpp"
#include "overlay/workload.hpp"
#include "testbed/report.hpp"

using namespace vdm;
using namespace vdm::bench;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 11));
  const auto members = flags.get_count("members", 40);

  util::Rng root(seed);
  util::Rng pool_rng = root.split(1);
  util::Rng scenario_rng = root.split(2);

  testbed::PoolParams pp;
  pp.num_nodes = 80;
  const testbed::NodePool pool = testbed::make_pool(pp, topo::world_regions(), pool_rng);
  const testbed::FilterReport filt = testbed::filter_nodes(pool);

  banner("Figure 5.2 — node selection filter",
         "80-node world pool; three filter stages as in the dissertation");
  util::Table ft({"stage", "dropped", "remaining"});
  ft.add_row({"unresponsive to ping", std::to_string(filt.dropped_unresponsive),
              std::to_string(filt.total - filt.dropped_unresponsive)});
  ft.add_row({"cannot ping out", std::to_string(filt.dropped_no_ping_out),
              std::to_string(filt.total - filt.dropped_unresponsive -
                             filt.dropped_no_ping_out)});
  ft.add_row({"agent fails to start", std::to_string(filt.dropped_agent),
              std::to_string(filt.usable)});
  ft.print(std::cout);

  // Scenario: join-only session so the final tree is the settled sample.
  testbed::ScenarioSpec spec;
  for (const net::HostId h : pool.usable_nodes()) {
    if (h != 0) spec.nodes.push_back(h);
  }
  spec.members = std::min(members, spec.nodes.size());
  spec.join_phase = 600.0;
  spec.total_time = 1200.0;
  spec.churn_rate = 0.0;
  spec.degree_min = spec.degree_max = 4;
  const testbed::Scenario scenario = testbed::generate_scenario(spec, scenario_rng);

  std::ostringstream scenario_text;
  overlay::write_trace(scenario_text, scenario.events, scenario.end_time);
  std::cout << "\nscenario file head (generated, replayable):\n";
  std::istringstream head(scenario_text.str());
  std::string line;
  for (int i = 0; i < 6 && std::getline(head, line); ++i) std::cout << "  " << line << '\n';

  core::VdmProtocol vdm;
  std::vector<double> slowness;
  for (const testbed::NodeHealth& h : pool.health) slowness.push_back(h.slowness);
  const testbed::FlakyMetric metric(std::make_unique<overlay::DelayMetric>(),
                                    std::move(slowness), 0.05);
  sim::Simulator simulator;
  testbed::ControllerParams cp;
  testbed::MainController controller(simulator, pool.topology.underlay, vdm,
                                     metric, cp, root.split(3));
  const testbed::SessionReport report = controller.run(scenario);

  banner("Figures 5.5/5.6 — sample overlay tree",
         note_expectation("nodes cluster by region; few transcontinental links"));
  std::cout << testbed::render_tree(controller.session().tree(), 0, pool.topology);

  const testbed::ClusterStats cs =
      testbed::cluster_stats(controller.session().tree(), 0, pool.topology);
  util::Table ct({"tree edges", "intra-region", "intra-continent", "cross-continent"});
  ct.add_row({std::to_string(cs.edges), std::to_string(cs.intra_region),
              std::to_string(cs.intra_continent), std::to_string(cs.cross_continent)});
  std::cout << '\n';
  ct.print(std::cout);
  std::cout << "intra-region fraction: "
            << util::Table::fmt(100 * cs.intra_region_fraction(), 1)
            << "%, cross-continent fraction: "
            << util::Table::fmt(100 * cs.cross_continent_fraction(), 1) << "%\n";
  std::cout << "final tree: " << report.final_tree.members
            << " members, stretch " << util::Table::fmt(report.final_tree.stretch_avg)
            << ", MST ratio " << util::Table::fmt(report.mst_ratio) << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
