// Live-streaming scenario: the workload from the paper's introduction — a
// single source streaming to a churning audience. Runs the same session
// under VDM and under HMTP on one Internet-like topology and reports the
// viewer experience (loss, startup) and the network bill (stress, usage,
// control overhead) side by side.
//
//   ./build/examples/live_stream [--viewers N] [--churn 0.05] [--seed S]

#include <iostream>

#include "baselines/hmtp_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "metrics/collector.hpp"
#include "overlay/scenario.hpp"
#include "topology/transit_stub.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace vdm;

namespace {

struct Outcome {
  double stress, stretch, loss, overhead, usage;
  double startup_avg, reconnect_avg;
};

Outcome run(overlay::Protocol& protocol, std::size_t viewers, double churn,
            std::uint64_t seed) {
  util::Rng root(seed);
  util::Rng topo_rng = root.split(1);

  topo::TransitStubParams tp;  // 792-router GT-ITM-style Internet
  topo::HostAttachment hosts;
  hosts.num_hosts = viewers + viewers * 3 / 5 + 8;  // spares for churn joins
  net::GraphUnderlay underlay = topo::make_transit_stub_underlay(tp, hosts, topo_rng);

  sim::Simulator simulator;
  overlay::DelayMetric metric;
  overlay::SessionParams sp;
  sp.source = 0;
  sp.chunk_rate = 2.0;  // light stand-in for the video stream
  overlay::Session session(simulator, underlay, protocol, metric, sp, root.split(3));
  metrics::Collector collector(session);

  overlay::ScenarioParams sc;
  sc.target_members = viewers;
  sc.join_phase = 600.0;
  sc.total_time = 4200.0;
  sc.churn_interval = 400.0;
  sc.settle_time = 100.0;
  sc.churn_rate = churn;
  overlay::ScenarioDriver driver(session, sc, root.split(2));
  driver.run([&](sim::Time at) { collector.capture(at); });

  Outcome o{};
  o.stress = collector.mean_stress(1);
  o.stretch = collector.mean_stretch(1);
  o.loss = collector.mean_loss(1);
  o.overhead = collector.mean_overhead(1);
  o.usage = collector.mean_network_usage(1);
  const auto startups = collector.all_times(&metrics::EpochSample::startup_times);
  const auto reconnects = collector.all_times(&metrics::EpochSample::reconnect_times);
  for (const double v : startups) o.startup_avg += v / static_cast<double>(startups.size());
  for (const double v : reconnects)
    o.reconnect_avg += v / static_cast<double>(std::max<std::size_t>(1, reconnects.size()));
  return o;
}

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  flags.reject_unknown({"viewers", "churn", "seed"});
  const auto viewers = flags.get_count("viewers", 80);
  const double churn = flags.get_double("churn", 0.05);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 21));

  std::cout << "Live stream: 1 source, " << viewers << " churning viewers ("
            << 100 * churn << "% per slot), one shared 792-router topology\n\n";

  core::VdmProtocol vdm;
  baselines::HmtpProtocol hmtp;  // 30 s refinement, as deployed on PlanetLab
  const Outcome a = run(vdm, viewers, churn, seed);
  const Outcome b = run(hmtp, viewers, churn, seed);

  util::Table t({"metric", "VDM", "HMTP", "better is"});
  auto row = [&](const std::string& name, double va, double vb, int prec,
                 const std::string& dir) {
    t.add_row({name, util::Table::fmt(va, prec), util::Table::fmt(vb, prec), dir});
  };
  row("link stress (avg)", a.stress, b.stress, 3, "lower");
  row("stretch vs unicast", a.stretch, b.stretch, 3, "lower");
  row("viewer loss rate", a.loss, b.loss, 5, "lower");
  row("network usage (s)", a.usage, b.usage, 2, "lower");
  row("control overhead", a.overhead, b.overhead, 4, "lower");
  row("startup time (s)", a.startup_avg, b.startup_avg, 3, "lower");
  row("reconnection time (s)", a.reconnect_avg, b.reconnect_avg, 3, "lower");
  t.print(std::cout);

  std::cout << "\nNote: HMTP's tree quality is bought with its periodic refinement\n"
               "messages (the overhead row); VDM places nodes once, by direction.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
