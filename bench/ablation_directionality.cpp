// Ablation: the two knobs of the directionality classifier.
//
//  * epsilon — the margin by which the longest side must win before a
//    triple counts as directional (0 = the paper's pure longest-side rule).
//  * case2_descend_ratio — the degenerate-Case-II guard: when the newcomer
//    is `ratio`x closer to the child than to the parent, follow the child
//    instead of splicing (0 = off = the paper's rule).
//
// Also reports how join searches resolve (Case I / II / III frequencies).

#include <memory>

#include "bench_common.hpp"
#include "baselines/mst_overlay.hpp"
#include "metrics/collector.hpp"
#include "overlay/scenario.hpp"
#include "topology/transit_stub.hpp"

using namespace vdm;
using namespace vdm::bench;

namespace {

struct AblationResult {
  double stress = 0, stretch = 0, hop = 0, usage = 0, mst = 0, overhead = 0;
  core::VdmProtocol::CaseStats cases;
};

AblationResult run_one(const core::VdmConfig& vc, std::uint64_t seed,
                       std::size_t members) {
  util::Rng root(seed);
  util::Rng topo_rng = root.split(1);
  topo::TransitStubParams tp;
  topo::HostAttachment hp;
  hp.num_hosts = members + members * 3 / 5 + 8;
  net::GraphUnderlay underlay = topo::make_transit_stub_underlay(tp, hp, topo_rng);

  core::VdmProtocol vdm(vc);
  overlay::DelayMetric metric;
  sim::Simulator simulator;
  overlay::SessionParams sp;
  sp.source = 0;
  sp.chunk_rate = 1.0;
  overlay::Session session(simulator, underlay, vdm, metric, sp, root.split(3));
  metrics::Collector collector(session);
  overlay::ScenarioParams sc;
  sc.target_members = members;
  sc.join_phase = 2000.0;
  sc.total_time = 10000.0;
  sc.churn_interval = 400.0;
  sc.settle_time = 100.0;
  sc.churn_rate = 0.05;
  overlay::ScenarioDriver driver(session, sc, root.split(2));
  driver.run([&](sim::Time t) { collector.capture(t); });

  AblationResult r;
  r.stress = collector.mean_stress(1);
  r.stretch = collector.mean_stretch(1);
  r.hop = collector.mean_hopcount(1);
  r.usage = collector.mean_network_usage(1);
  r.mst = baselines::mst_ratio(session.tree(), 0, underlay);
  r.overhead = collector.mean_overhead(1);
  r.cases = vdm.case_stats();
  return r;
}

AblationResult run_avg(const core::VdmConfig& vc, std::size_t seeds,
                       std::size_t members) {
  AblationResult acc;
  for (std::size_t s = 0; s < seeds; ++s) {
    const AblationResult r = run_one(vc, 500 + s, members);
    acc.stress += r.stress;
    acc.stretch += r.stretch;
    acc.hop += r.hop;
    acc.usage += r.usage;
    acc.mst += r.mst;
    acc.overhead += r.overhead;
    acc.cases.case1_attach += r.cases.case1_attach;
    acc.cases.case2_splice += r.cases.case2_splice;
    acc.cases.case2_adoptions += r.cases.case2_adoptions;
    acc.cases.case3_descents += r.cases.case3_descents;
    acc.cases.full_fallback_child += r.cases.full_fallback_child;
    acc.cases.full_fallback_descend += r.cases.full_fallback_descend;
  }
  const auto n = static_cast<double>(seeds);
  acc.stress /= n;
  acc.stretch /= n;
  acc.hop /= n;
  acc.usage /= n;
  acc.mst /= n;
  acc.overhead /= n;
  return acc;
}

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", experiments::default_seeds(3, 8));
  const auto members = flags.get_count("members", 200);

  struct Variant {
    std::string name;
    core::VdmConfig vc;
  };
  std::vector<Variant> variants;
  for (const double eps : {0.0, 0.02, 0.05, 0.10}) {
    core::VdmConfig vc;
    vc.epsilon_rel = eps;
    variants.push_back({"eps=" + util::Table::fmt(eps, 2), vc});
  }
  for (const double ratio : {1.25, 1.5, 2.0, 3.0}) {
    core::VdmConfig vc;
    vc.case2_descend_ratio = ratio;
    variants.push_back({"c2ratio=" + util::Table::fmt(ratio, 2), vc});
  }

  banner("Ablation — directionality classifier knobs",
         "transit-stub 792 routers, " + std::to_string(members) + " members, churn 5%, " +
             std::to_string(seeds) + " seeds; first row = the paper's configuration");
  util::Table t({"variant", "stress", "stretch", "hop", "usage", "MST ratio", "overhead"});
  std::vector<AblationResult> results;
  for (const Variant& v : variants) {
    const AblationResult r = run_avg(v.vc, seeds, members);
    results.push_back(r);
    t.add_row({v.name, util::Table::fmt(r.stress), util::Table::fmt(r.stretch),
               util::Table::fmt(r.hop, 2), util::Table::fmt(r.usage, 2),
               util::Table::fmt(r.mst), util::Table::fmt(r.overhead, 4)});
  }
  t.print(std::cout);

  banner("Join-search resolution profile (counts across all joins)",
         "Case III does most of the walking; Case II splices are the paper's novelty");
  util::Table ct({"variant", "CaseI attach", "CaseII splice", "adoptions",
                  "CaseIII steps", "full->free child", "full->descend"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& c = results[i].cases;
    ct.add_row({variants[i].name, std::to_string(c.case1_attach),
                std::to_string(c.case2_splice), std::to_string(c.case2_adoptions),
                std::to_string(c.case3_descents), std::to_string(c.full_fallback_child),
                std::to_string(c.full_fallback_descend)});
  }
  ct.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
