// Testbed walkthrough: the full Chapter-5 pipeline as a user would drive
// it — synthesize a world-wide deployment, filter unusable nodes, write a
// scenario file to disk, replay it through the MainController, and inspect
// the resulting overlay tree and session statistics.
//
//   ./build/examples/testbed_demo [--nodes 80] [--members 30] [--seed S]
//                                 [--scenario out.scn] [--protocol vdm|hmtp]
//                                 [--dot tree.dot]

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "baselines/hmtp_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "overlay/workload.hpp"
#include "testbed/controller.hpp"
#include "testbed/dot_export.hpp"
#include "testbed/node_pool.hpp"
#include "testbed/report.hpp"
#include "testbed/scenario_file.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace vdm;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  flags.reject_unknown({"nodes", "members", "seed", "scenario", "protocol", "dot"});
  const auto pool_size = flags.get_count("nodes", 80);
  const auto members = flags.get_count("members", 30);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));
  const std::string scenario_path = flags.get("scenario", "");
  const std::string protocol_name = flags.get("protocol", "vdm");

  util::Rng root(seed);
  util::Rng pool_rng = root.split(1);
  util::Rng scenario_rng = root.split(2);

  // 1. Deployment: a world-wide pool with realistic node health.
  testbed::PoolParams pp;
  pp.num_nodes = pool_size;
  const testbed::NodePool pool =
      testbed::make_pool(pp, topo::world_regions(), pool_rng);
  const testbed::FilterReport filt = testbed::filter_nodes(pool);
  std::cout << "Pool of " << filt.total << " nodes -> " << filt.usable
            << " usable after filtering (" << filt.dropped_unresponsive
            << " unresponsive, " << filt.dropped_no_ping_out
            << " cannot ping, " << filt.dropped_agent << " agent failures)\n";

  // 2. Scenario: warmup joins, then churn; written to a replayable file.
  testbed::ScenarioSpec spec;
  for (const net::HostId h : pool.usable_nodes()) {
    if (h != 0) spec.nodes.push_back(h);
  }
  spec.members = std::min(members, spec.nodes.size());
  spec.join_phase = 300.0;
  spec.total_time = 1500.0;
  spec.churn_interval = 300.0;
  spec.churn_rate = 0.10;
  spec.degree_min = 3;
  spec.degree_max = 5;
  const testbed::Scenario scenario = testbed::generate_scenario(spec, scenario_rng);

  std::ostringstream text;
  overlay::write_trace(text, scenario.events, scenario.end_time);
  if (!scenario_path.empty()) {
    std::ofstream out(scenario_path);
    out << text.str();
    std::cout << "Scenario written to " << scenario_path << " ("
              << scenario.events.size() << " events)\n";
  }
  // Round-trip through the parser, as vdmd --scenario would on replay.
  testbed::Scenario replay;
  replay.end_time = overlay::parse_trace(text.str(), replay.events);

  // 3. Session: agents + sender + transceivers driven by the controller.
  std::unique_ptr<overlay::Protocol> protocol;
  if (protocol_name == "hmtp") {
    protocol = std::make_unique<baselines::HmtpProtocol>();
  } else {
    protocol = std::make_unique<core::VdmProtocol>();
  }
  std::vector<double> slowness;
  for (const testbed::NodeHealth& h : pool.health) slowness.push_back(h.slowness);
  const testbed::FlakyMetric metric(std::make_unique<overlay::DelayMetric>(),
                                    std::move(slowness), 0.05);
  sim::Simulator simulator;
  testbed::ControllerParams cp;
  testbed::MainController controller(simulator, pool.topology.underlay,
                                     *protocol, metric, cp, root.split(3));
  const testbed::SessionReport report = controller.run(replay);

  // 4. Results: the tree, its geography and the session statistics.
  std::cout << "\n" << protocol->name() << " overlay tree at terminate:\n"
            << testbed::render_tree(controller.session().tree(), 0, pool.topology);

  const testbed::ClusterStats cs =
      testbed::cluster_stats(controller.session().tree(), 0, pool.topology);
  const util::Summary startup = util::summarize(report.startup_times);
  const util::Summary reconnect = util::summarize(report.reconnect_times);

  util::Table t({"statistic", "value"});
  t.add_row({"members at terminate", std::to_string(report.final_tree.members)});
  t.add_row({"avg stretch", util::Table::fmt(report.final_tree.stretch_avg)});
  t.add_row({"avg hopcount", util::Table::fmt(report.final_tree.hop_avg, 2)});
  t.add_row({"network usage (s)", util::Table::fmt(report.final_tree.network_usage)});
  t.add_row({"tree/MST cost ratio", util::Table::fmt(report.mst_ratio)});
  t.add_row({"startup time avg/max (s)",
             util::Table::fmt(startup.mean) + " / " + util::Table::fmt(startup.max)});
  t.add_row({"reconnection avg/max (s)",
             util::Table::fmt(reconnect.mean) + " / " + util::Table::fmt(reconnect.max)});
  t.add_row({"session loss rate", util::Table::fmt(report.loss_rate, 5)});
  t.add_row({"control msgs / chunk", util::Table::fmt(report.overhead_per_chunk, 4)});
  t.add_row({"intra-region edges",
             util::Table::fmt(100 * cs.intra_region_fraction(), 1) + "%"});
  t.add_row({"cross-continent edges",
             util::Table::fmt(100 * cs.cross_continent_fraction(), 1) + "%"});
  std::cout << '\n';
  t.print(std::cout);

  const std::string dot_path = flags.get("dot", "");
  if (!dot_path.empty()) {
    std::ofstream dot(dot_path);
    testbed::write_dot(controller.session().tree(), 0, pool.topology, dot);
    std::cout << "\nGraphviz tree written to " << dot_path
              << " (render with: dot -Tsvg " << dot_path << " -o tree.svg)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
