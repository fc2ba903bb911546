// Ablation: the quality-vs-overhead frontier of periodic refinement for
// both protocols. This is the design-space view behind the paper's §3.5
// argument — HMTP *needs* refinement to converge (its join misses the
// between cases), VDM gets most of the quality at join time.

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;
using namespace vdm::experiments;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", default_seeds(4, 16));
  const auto members = flags.get_count("members", 200);

  RunConfig base;
  base.substrate = Substrate::kTransitStub;
  base.scenario.target_members = members;
  base.scenario.join_phase = 2000.0;
  base.scenario.total_time = 10000.0;
  base.scenario.churn_interval = 400.0;
  base.scenario.settle_time = 100.0;
  base.scenario.churn_rate = 0.05;
  base.session.chunk_rate = 1.0;
  base.seed = 600;

  struct Variant {
    std::string name;
    RunConfig cfg;
  };
  std::vector<Variant> variants;
  {
    RunConfig cfg = base;
    variants.push_back({"VDM (no refinement)", cfg});
  }
  for (const double period : {600.0, 180.0, 60.0}) {
    RunConfig cfg = base;
    cfg.protocol = Proto::kVdmRefine;
    cfg.vdm_refine_period = period;
    variants.push_back({"VDM-R " + util::Table::fmt(period, 0) + "s", cfg});
  }
  {
    RunConfig cfg = base;
    cfg.protocol = Proto::kHmtp;
    cfg.hmtp_refinement = false;
    variants.push_back({"HMTP (no refinement)", cfg});
  }
  for (const double period : {600.0, 120.0, 30.0}) {
    RunConfig cfg = base;
    cfg.protocol = Proto::kHmtp;
    cfg.hmtp_refine_period = period;
    variants.push_back({"HMTP " + util::Table::fmt(period, 0) + "s", cfg});
  }
  {
    RunConfig cfg = base;
    cfg.protocol = Proto::kBtp;
    variants.push_back({"BTP 30s (sibling switch)", cfg});
  }
  {
    RunConfig cfg = base;
    cfg.protocol = Proto::kRandom;
    variants.push_back({"Random join", cfg});
  }

  banner("Ablation — refinement period vs tree quality and overhead",
         "transit-stub 792 routers, " + std::to_string(members) + " members, churn 5%, " +
             std::to_string(seeds) + " seeds\n" +
             note_expectation("quality converges towards MST as refinement spends more "
                              "messages; VDM's join-only point sits far left on the "
                              "overhead axis"));
  std::vector<RunConfig> points;
  points.reserve(variants.size());
  for (const Variant& v : variants) points.push_back(v.cfg);
  SweepOptions sweep;
  sweep.threads = flags.get_count("threads", 0);
  const std::vector<AggregateResult> results = run_grid(points, seeds, sweep);

  util::Table t({"variant", "stress", "stretch", "usage", "MST ratio", "overhead"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const AggregateResult& r = results[i];
    t.add_row({variants[i].name, ci_cell(r.stress), ci_cell(r.stretch),
               ci_cell(r.network_usage, 2), ci_cell(r.mst_ratio),
               ci_cell(r.overhead, 4)});
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
