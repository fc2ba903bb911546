// Ablation: the paper's optional / future-work components, quantified.
//
//  * Foster-child quick start for HMTP (§2.4.7) — startup time drops to one
//    handshake; message cost unchanged.
//  * Playout buffering (§5.4.3) — a couple of seconds of buffer absorbs the
//    reconnection jitter, collapsing the churn-driven loss rate.
//  * Cached measurement service (§6.2) — makes loss-based virtual distances
//    affordable: probe bursts are paid once per pair per TTL.

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;
using namespace vdm::experiments;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", default_seeds(4, 16));

  RunConfig base;
  base.substrate = Substrate::kTransitStub;
  base.scenario.target_members = 150;
  base.scenario.join_phase = 2000.0;
  base.scenario.total_time = 8000.0;
  base.scenario.churn_interval = 400.0;
  base.scenario.settle_time = 100.0;
  base.scenario.churn_rate = 0.05;
  base.session.chunk_rate = 2.0;
  base.seed = 700;

  // All three ablation tables as one flat grid sweep.
  std::vector<RunConfig> points;
  for (const bool foster : {false, true}) {
    RunConfig cfg = base;
    cfg.protocol = Proto::kHmtp;
    cfg.hmtp_foster_child = foster;
    points.push_back(cfg);
  }
  const std::vector<double> buffers{0.0, 0.5, 2.0, 10.0};
  for (const double buffer : buffers) {
    RunConfig cfg = base;
    cfg.scenario.churn_rate = 0.10;
    cfg.session.buffer_seconds = buffer;
    points.push_back(cfg);
  }
  struct V {
    const char* name;
    Metric metric;
  };
  const std::vector<V> metric_variants{V{"delay (VDM-D)", Metric::kDelay},
                                       V{"loss (VDM-L)", Metric::kLoss},
                                       V{"loss + cache", Metric::kCachedLoss}};
  for (const V& v : metric_variants) {
    RunConfig cfg = base;
    cfg.metric = v.metric;
    cfg.link_loss_max = 0.02;
    points.push_back(cfg);
  }
  SweepOptions sweep;
  sweep.threads = flags.get_count("threads", 0);
  const std::vector<AggregateResult> results = run_grid(points, seeds, sweep);
  std::size_t next = 0;

  banner("Ablation — foster-child quick start (HMTP §2.4.7)",
         "transit-stub, 150 members, churn 5%, " + std::to_string(seeds) + " seeds\n" +
             note_expectation("startup collapses to ~one handshake; overhead unchanged"));
  {
    util::Table t({"variant", "startup avg (s)", "startup max (s)", "stretch", "overhead"});
    for (const bool foster : {false, true}) {
      const AggregateResult& r = results[next++];
      t.add_row({foster ? "HMTP + foster child" : "HMTP", ci_cell(r.startup_avg),
                 ci_cell(r.startup_max), ci_cell(r.stretch), ci_cell(r.overhead, 4)});
    }
    t.print(std::cout);
  }

  banner("Ablation — playout buffer vs churn loss (§5.4.3)",
         "VDM, churn 10%\n" +
             note_expectation("a couple of seconds of buffer hides reconnection outages"));
  {
    util::Table t({"buffer (s)", "loss rate", "reconnect avg (s)"});
    for (const double buffer : buffers) {
      const AggregateResult& r = results[next++];
      t.add_row({util::Table::fmt(buffer, 1), ci_cell(r.loss, 5),
                 ci_cell(r.reconnect_avg)});
    }
    t.print(std::cout);
  }

  banner("Ablation — cached measurement service for VDM-L (§6.2)",
         "link error U[0%,2%]\n" +
             note_expectation("caching recovers most of the probe-burst cost while keeping "
                              "the loss-optimized tree"));
  {
    util::Table t({"virtual distance", "loss rate", "stretch", "startup avg (s)", "overhead"});
    for (const V& v : metric_variants) {
      const AggregateResult& r = results[next++];
      t.add_row({v.name, ci_cell(r.loss, 4), ci_cell(r.stretch),
                 ci_cell(r.startup_avg), ci_cell(r.overhead, 4)});
    }
    t.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
