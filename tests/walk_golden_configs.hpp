#pragma once

// The parameter corners pinned by the walk-engine port (tests/test_walk.cpp):
// every protocol, both substrate families (fig3 transit-stub / fig5 geo), the
// saturation-heavy degree corner (average degree 2.0 turns the fallback
// ladder into the common path), the crash-churn corner (reconnection walks
// under heartbeats + lossy control), the flash-heartbeat corner
// (concurrent join batches while every member runs a failure detector) and
// the Chapter-4 batched corner. run_once over these configs must stay
// bit-identical across control-plane refactors; the goldens in
// tests/test_walk.cpp were recorded on the pre-TreeWalk protocol loops, the
// flash-heartbeat one on the heap-timer heartbeats that preceded the
// per-host timer slab, the batched one on the reactor-scheduled timeline
// that preceded the compiled event lists. The transit-stub corners' delay-
// derived scalars were re-recorded when link delays moved onto the
// 2^-30 s grid; tests/test_journal.cpp pins that their trees did not move.

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/runner.hpp"

namespace vdm::testutil {

struct NamedRunConfig {
  std::string name;
  experiments::RunConfig cfg;
};

/// Concurrent joins under heartbeats: 64 Poisson members plus a 256-member
/// flash crowd at t = 400 s on the coordinate US underlay, the compressed
/// timeline, 1 s heartbeats with 3 misses and 1 % extra control loss — the
/// smoke-size flash_crash_control shape of perfbench. Departures stay
/// graceful; every member runs the failure detector while batched walks
/// attach the crowd, and a control-loss false positive comes about 1.5
/// times a run (seed 7 happens to draw none).
inline experiments::RunConfig flash_heartbeat_config(std::uint64_t seed) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kCoordUs;
  cfg.protocol = experiments::Proto::kVdm;
  cfg.scenario.target_members = 64;
  cfg.scenario.flash_count = 256;
  cfg.scenario.flash_at = 400.0;
  cfg.scenario.join_phase = 400.0;
  cfg.scenario.total_time = 1200.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.workload.kind = overlay::WorkloadKind::kPoisson;
  cfg.workload.mean_session = 800.0;
  cfg.session.join_mode = overlay::JoinMode::kConcurrent;
  cfg.session.chunk_rate = 0.1;
  cfg.session.faults.heartbeat_period = 1.0;
  cfg.session.faults.heartbeat_misses = 3;
  cfg.session.faults.lossy_control = true;
  cfg.session.faults.control_loss_extra = 0.01;
  cfg.compute_mst_ratio = false;
  cfg.seed = seed;
  return cfg;
}

/// The crash-churn corner: 48 members on transit-stub, every departure an
/// ungraceful crash, 1 s heartbeats with 3 misses and a 0.5 s verdict
/// timeout over a control plane with 1 % extra loss — reconnection walks
/// start at the grandparent and the retry/timeout draws interleave with the
/// failure detector's.
inline experiments::RunConfig crash_churn_config(experiments::Proto protocol,
                                                 std::uint64_t seed) {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.protocol = protocol;
  cfg.scenario.target_members = 48;
  cfg.scenario.churn_rate = 0.10;
  cfg.scenario.crash_fraction = 1.0;
  cfg.session.faults.heartbeat_period = 1.0;
  cfg.session.faults.heartbeat_misses = 3;
  cfg.session.faults.heartbeat_timeout = 0.5;
  cfg.session.faults.lossy_control = true;
  cfg.session.faults.control_loss_extra = 0.01;
  cfg.seed = seed;
  return cfg;
}

inline std::vector<NamedRunConfig> walk_golden_configs() {
  using experiments::Proto;
  using experiments::RunConfig;
  using experiments::Substrate;

  std::vector<NamedRunConfig> out;

  // fig3 corner: transit-stub, 48 members, lossy links, high churn.
  const auto fig3 = [](Proto p) {
    RunConfig cfg;
    cfg.substrate = Substrate::kTransitStub;
    cfg.protocol = p;
    cfg.scenario.target_members = 48;
    cfg.scenario.churn_rate = 0.10;
    cfg.link_loss_max = 0.02;
    cfg.seed = 7;
    return cfg;
  };
  out.push_back({"fig3-vdm", fig3(Proto::kVdm)});
  out.push_back({"fig3-hmtp", fig3(Proto::kHmtp)});
  out.push_back({"fig3-btp", fig3(Proto::kBtp)});
  out.push_back({"fig3-random", fig3(Proto::kRandom)});

  // fig3 degree corner: average degree 2.0 — most members are limit-2, so
  // interior nodes are saturated and every walk exercises the
  // free-child / capacity-subtree fallback ladder.
  const auto degree2 = [](Proto p) {
    RunConfig cfg;
    cfg.substrate = Substrate::kTransitStub;
    cfg.protocol = p;
    cfg.scenario.target_members = 48;
    cfg.scenario.degrees = overlay::DegreeSpec::average(2.0);
    cfg.seed = 7;
    return cfg;
  };
  out.push_back({"degree2-vdm", degree2(Proto::kVdm)});
  out.push_back({"degree2-hmtp", degree2(Proto::kHmtp)});
  out.push_back({"degree2-btp", degree2(Proto::kBtp)});
  out.push_back({"degree2-random", degree2(Proto::kRandom)});

  // fig5 corner: geo latency space (matrix underlay), refinement on for the
  // protocols that have it (VDM-R re-runs the join walk from the source).
  const auto fig5 = [](Proto p) {
    RunConfig cfg;
    cfg.substrate = Substrate::kGeoUs;
    cfg.protocol = p;
    cfg.scenario.target_members = 32;
    cfg.seed = 11;
    return cfg;
  };
  out.push_back({"fig5-vdmr", fig5(Proto::kVdmRefine)});
  out.push_back({"fig5-hmtp", fig5(Proto::kHmtp)});
  out.push_back({"fig5-btp", fig5(Proto::kBtp)});
  out.push_back({"fig5-random", fig5(Proto::kRandom)});

  out.push_back({"crash-vdm", crash_churn_config(Proto::kVdm, 7)});
  out.push_back({"crash-hmtp", crash_churn_config(Proto::kHmtp, 7)});

  out.push_back({"flash-heartbeat-vdm", flash_heartbeat_config(7)});

  // fig4 batched corner at test size: VDM-L on the lossy transit-stub graph,
  // 50 joins per 500 s interval (the last batch partial) and a measurement
  // after each batch, no churn — the Chapter-4 batched timeline.
  RunConfig batched;
  batched.substrate = Substrate::kTransitStub;
  batched.protocol = Proto::kVdm;
  batched.metric = experiments::Metric::kLoss;
  batched.link_loss_max = 0.02;
  batched.scenario.batched_joins = true;
  batched.scenario.batch_size = 50;
  batched.scenario.target_members = 120;
  batched.scenario.churn_interval = 500.0;
  batched.scenario.settle_time = 100.0;
  batched.scenario.total_time = 500.0 * 3 + 100.0;
  batched.session.chunk_rate = 1.0;
  batched.seed = 400;
  out.push_back({"fig4-batched-vdml", batched});

  return out;
}

/// The scalar fields of a RunResult in a fixed order, for table-driven
/// bit-equality checks (final_members rides along as a double; it is an
/// exact small integer).
inline std::vector<double> run_result_scalars(const experiments::RunResult& r) {
  return {r.stress,        r.stress_max,    r.stretch,
          r.stretch_leaf,  r.stretch_max,   r.stretch_min,
          r.hopcount,      r.hop_leaf,      r.hop_max,
          r.loss,          r.overhead,      r.overhead_per_chunk,
          r.network_usage, r.startup_avg,   r.startup_max,
          r.reconnect_avg, r.reconnect_max, r.detection_avg,
          r.detection_max, r.outage_avg,    r.outage_max,
          r.mst_ratio,     static_cast<double>(r.final_members)};
}

}  // namespace vdm::testutil
