// Quickstart: build a small Internet-like topology, run a VDM multicast
// session with 30 members joining over two minutes, and print the tree and
// its quality metrics.
//
//   ./build/examples/quickstart [FLAG...]   (--help lists them)

#include <iostream>

#include "baselines/mst_overlay.hpp"
#include "core/vdm_protocol.hpp"
#include "metrics/collector.hpp"
#include "metrics/tree_metrics.hpp"
#include "overlay/scenario.hpp"
#include "overlay/session.hpp"
#include "sim/simulator.hpp"
#include "topology/transit_stub.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace vdm;

namespace {

void print_tree(const overlay::Membership& tree, net::HostId node,
                const net::Underlay& underlay, net::HostId source, int depth) {
  std::cout << std::string(static_cast<std::size_t>(depth) * 2, ' ') << "host "
            << node;
  if (node == source) {
    std::cout << " (source)";
  } else {
    std::cout << "  rtt-to-parent="
              << util::Table::fmt(1000.0 * underlay.rtt(node, tree.member(node).parent), 1)
              << "ms";
  }
  std::cout << '\n';
  for (const net::HostId c : tree.member(node).children) {
    print_tree(tree, c, underlay, source, depth + 1);
  }
}

constexpr util::Flag kFlags[] = {{"members", "N", "30", "session members"},
                                 {"seed", "S", "7", "topology and session seed"}};

int run_cli(const util::Flags& flags) {
  const auto members = flags.get_count("members");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  // 1. A transit-stub "Internet" with enough end hosts for the session.
  util::Rng rng(seed);
  topo::TransitStubParams tp;  // defaults: 792 routers, GT-ITM style
  topo::HostAttachment hosts;
  hosts.num_hosts = members + 1;  // the members plus the source
  net::GraphUnderlay underlay = topo::make_transit_stub_underlay(tp, hosts, rng);

  // 2. A VDM session: host 0 is the streaming source.
  sim::Simulator simulator;
  core::VdmProtocol vdm;
  overlay::DelayMetric metric;
  overlay::SessionParams sp;
  sp.source = 0;
  overlay::Session session(simulator, underlay, vdm, metric, sp, rng.split(1));
  session.start();

  // 3. Members join at random times over the first two minutes.
  overlay::DegreeSpec degrees = overlay::DegreeSpec::uniform(2, 5);
  for (net::HostId h = 1; h <= members; ++h) {
    const sim::Time at = rng.uniform(0.1, 120.0);
    const int limit = degrees.sample(rng);
    simulator.schedule_at(at, [&session, h, limit] { session.join(h, limit); });
  }
  simulator.run_until(180.0);

  // 4. Inspect the result.
  std::cout << "== VDM overlay tree ==\n";
  print_tree(session.tree(), session.source(), underlay, session.source(), 0);

  const metrics::TreeMetrics m =
      metrics::measure_tree(session.tree(), session.source(), underlay);
  util::Table table({"metric", "value", "optimum"});
  table.add_row({"members", std::to_string(m.members), "-"});
  table.add_row({"stress (avg)", util::Table::fmt(m.stress_avg), "1.0 (IP multicast)"});
  table.add_row({"stretch (avg)", util::Table::fmt(m.stretch_avg), "1.0 (unicast)"});
  table.add_row({"hopcount (avg)", util::Table::fmt(m.hop_avg), "1.0 (star)"});
  table.add_row({"network usage (s)", util::Table::fmt(m.network_usage, 4), "MST cost"});
  table.add_row({"tree/MST cost ratio",
                 util::Table::fmt(baselines::mst_ratio(session.tree(),
                                                       session.source(), underlay)),
                 ">= 1.0"});
  std::cout << '\n';
  table.print(std::cout);

  std::cout << "\ncontrol messages: " << session.totals().control_messages
            << ", chunks emitted: " << session.totals().chunks_emitted
            << ", session loss rate: "
            << util::Table::fmt(100.0 * metrics::rates(session.totals()).loss_rate, 2)
            << "%\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, {.flags = kFlags}, run_cli); }
