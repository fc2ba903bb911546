// Crash churn: VDM against HMTP as churn departures shift from graceful
// leaves to ungraceful crashes, under the dissertation's failure model
// (heartbeat failure detection, lossy control plane with retry/backoff —
// Chapter 5's unstable-node setting applied to the Chapter 3 substrate).
// Reconnection splits into detection latency (heartbeat misses + timeout)
// and the rejoin handshake; "outage" is their sum — what a viewer loses.
// No figure in the paper plots this directly; §3.3 + §5.3 describe the
// machinery, and the loss/overhead columns extend Figures 3.27/3.28 to
// ungraceful departures. See EXPERIMENTS.md.

#include "bench_common.hpp"

using namespace vdm;
using namespace vdm::bench;
using namespace vdm::experiments;

namespace {

int run_cli(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", default_seeds(6, 32));
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
  base.session.faults.heartbeat_period = 1.0;
  base.session.faults.heartbeat_misses = 3;
  base.session.faults.heartbeat_timeout = 0.5;
  base.session.faults.lossy_control = true;
  base.session.faults.control_loss_extra = 0.01;
  base.seed = 500;

  const std::vector<double> crash_fractions{0.0, 0.25, 0.5, 0.75, 1.0};

  // One flat grid: (crash fraction x {VDM, HMTP}) in the serial loop's order.
  std::vector<RunConfig> points;
  for (const double frac : crash_fractions) {
    RunConfig cfg = base;
    cfg.scenario.crash_fraction = frac;
    points.push_back(cfg);
    cfg.protocol = Proto::kHmtp;
    points.push_back(cfg);
  }
  SweepOptions sweep;
  sweep.threads = flags.get_count("threads", 0);
  std::vector<AggregateResult> results = run_grid(points, seeds, sweep);

  struct Row {
    AggregateResult vdm, hmtp;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < crash_fractions.size(); ++i) {
    rows.push_back(Row{std::move(results[2 * i]), std::move(results[2 * i + 1])});
  }

  const std::string setup =
      "transit-stub 792 routers, " + std::to_string(members) + " members, " +
      std::to_string(seeds) + " seeds, churn 5%, heartbeat 1 s x3 +0.5 s, "
      "control loss 1% with retry/backoff";

  auto emit = [&](const std::string& metric, const std::string& expectation,
                  util::Summary AggregateResult::* field, int precision = 3) {
    banner("Crash churn — " + metric + " vs crash fraction",
           setup + "\n" + note_expectation(expectation));
    util::Table t({"crash(%)", "VDM", "HMTP"});
    for (std::size_t i = 0; i < crash_fractions.size(); ++i) {
      t.add_row({util::Table::fmt(100 * crash_fractions[i], 0),
                 ci_cell(rows[i].vdm.*field, precision),
                 ci_cell(rows[i].hmtp.*field, precision)});
    }
    t.print(std::cout);
  };

  emit("loss rate",
       "grows with crash fraction for both protocols (orphans are blind "
       "until detection, and that window is identical for both)",
       &AggregateResult::loss, 5);
  emit("detection latency (s)",
       "flat ~ misses x period + timeout; identical machinery for both "
       "protocols",
       &AggregateResult::detection_avg);
  emit("outage = detection + rejoin (s)",
       "detection-dominated (rejoin is sub-second, detection seconds)",
       &AggregateResult::outage_avg);
  emit("rejoin handshake alone (s)",
       "sub-second and comparable: grandparent-start recovery is shared "
       "session machinery; differences reflect join-search depth only",
       &AggregateResult::reconnect_avg);
  emit("control overhead (msgs per data transmission)",
       "dominated by the constant heartbeat probing; VDM well below "
       "refining HMTP",
       &AggregateResult::overhead, 4);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run_cli); }
