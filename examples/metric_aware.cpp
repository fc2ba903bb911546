// Metric-aware trees (Chapter 4): the same VDM protocol builds different
// overlays depending on the application's sensitivity. A conferencing app
// wants delay (VDM-D), a streaming app wants loss (VDM-L), and a blended
// virtual distance interpolates. This example runs all three on one lossy
// topology and shows the per-target trade-off.
//
//   ./build/examples/metric_aware [FLAG...]   (--help lists them)

#include <iostream>
#include <memory>

#include "core/vdm_protocol.hpp"
#include "metrics/collector.hpp"
#include "overlay/scenario.hpp"
#include "topology/transit_stub.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace vdm;

namespace {

struct Outcome {
  double stretch, loss, stress, probe_cost;
};

Outcome run(const overlay::MetricProvider& metric, std::size_t members,
            std::uint64_t seed) {
  util::Rng root(seed);
  util::Rng topo_rng = root.split(1);

  topo::TransitStubParams tp;
  tp.loss_min = 0.0;
  tp.loss_max = 0.02;  // "each physical link is assigned a random error rate"
  topo::HostAttachment hosts;
  hosts.num_hosts = members + 10;
  net::GraphUnderlay underlay = topo::make_transit_stub_underlay(tp, hosts, topo_rng);

  core::VdmProtocol vdm;
  sim::Simulator simulator;
  overlay::SessionParams sp;
  sp.source = 0;
  sp.chunk_rate = 2.0;
  overlay::Session session(simulator, underlay, vdm, metric, sp, root.split(3));
  metrics::Collector collector(session);

  // Chapter-4 style: joins only (no churn), measured after each batch.
  overlay::ScenarioParams sc;
  sc.target_members = members;
  sc.batched_joins = true;
  sc.batch_size = members / 4;
  sc.churn_interval = 400.0;
  sc.settle_time = 100.0;
  sc.total_time = 400.0 * 5;
  overlay::ScenarioDriver driver(session, sc, root.split(2));
  driver.run([&](sim::Time at) { collector.capture(at); });

  Outcome o{};
  o.stretch = collector.samples().back().tree.stretch_avg;
  o.stress = collector.samples().back().tree.stress_avg;
  o.loss = collector.mean_loss(1);
  o.probe_cost = static_cast<double>(session.totals().control_messages);
  return o;
}

constexpr util::Flag kFlags[] = {{"members", "N", "60", "session members"},
                                 {"seed", "S", "5", "topology and session seed"}};

int run_cli(const util::Flags& flags) {
  const auto members = flags.get_count("members");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  std::cout << "Metric-aware VDM trees on a lossy 792-router topology ("
            << members << " members, link error up to 2%)\n\n";

  const overlay::DelayMetric vdm_d;
  const overlay::LossMetric vdm_l;
  const overlay::BlendMetric blend(0.9, 0.1);

  util::Table t({"virtual distance", "stretch", "loss rate", "stress", "control msgs"});
  for (const auto& [name, metric] :
       std::initializer_list<std::pair<const char*, const overlay::MetricProvider*>>{
           {"VDM-D (delay)", &vdm_d},
           {"VDM-L (loss)", &vdm_l},
           {"blend 90/10 (delay-leaning)", &blend}}) {
    const Outcome o = run(*metric, members, seed);
    t.add_row({name, util::Table::fmt(o.stretch, 3), util::Table::fmt(o.loss, 4),
               util::Table::fmt(o.stress, 3), util::Table::fmt(o.probe_cost, 0)});
  }
  t.print(std::cout);

  std::cout << "\nVDM-L buys a lower loss rate with longer paths and a pricier\n"
               "probing phase (each measurement is a 20-packet burst); the blend\n"
               "sits in between. Same protocol, different virtual distance.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, {.flags = kFlags}, run_cli); }
