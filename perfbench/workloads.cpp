#include "workloads.hpp"

#include <algorithm>

#include "overlay/workload.hpp"

namespace perfbench {

namespace ex = vdm::experiments;
namespace ov = vdm::overlay;

namespace {

/// run_once's automatic pool size, fixed into the config so that the traced
/// composition and run_once draw from the same host pool by construction.
std::size_t pool_for(const ov::ScenarioParams& s) {
  return s.target_members + s.flash_count + 1 +
         std::max<std::size_t>(8, s.target_members * 3 / 5);
}

/// The compressed timeline of the scale benches: 400 s of joins, then
/// churn intervals of 200 s up to 1200 s.
void compressed_timeline(ov::ScenarioParams& s) {
  s.join_phase = 400.0;
  s.total_time = 1200.0;
  s.churn_interval = 200.0;
  s.settle_time = 50.0;
}

/// The paper's own setting: VDM-L on the 792-router transit-stub graph with
/// per-link loss, paper slot timeline, MST ratio on.
Workload paper_lossy(bool smoke) {
  Workload w{"paper_lossy_512", {}, smoke ? 2u : 16u};
  ex::RunConfig& c = w.config;
  c.substrate = ex::Substrate::kTransitStub;
  c.protocol = ex::Proto::kVdm;
  c.metric = ex::Metric::kLoss;
  c.link_loss_max = 0.02;
  c.session.chunk_rate = 2.0;
  c.scenario.target_members = smoke ? 48 : 512;
  if (smoke) {
    c.scenario.join_phase = 400.0;
    c.scenario.total_time = 1600.0;
  }
  c.compute_mst_ratio = true;
  return w;
}

/// Lossless 1 chunk/s stream over 16384 sequentially joined members on the
/// O(1) coordinate plane: the chunk flood dominates.
///
/// At 65536 members the flood's working set leaves the cache and its time
/// follows the memory traffic of other tenants of a shared host: one run
/// took from 7 s to 15 s within half an hour, far wider than any bound.
Workload coord_stream(bool smoke) {
  Workload w{"coord_stream_16k", {}, smoke ? 2u : 4u};
  ex::RunConfig& c = w.config;
  c.substrate = ex::Substrate::kCoordPlane;
  c.protocol = ex::Proto::kVdm;
  c.scenario.target_members = smoke ? 512 : 16384;
  c.scenario.churn_rate = 0.01;
  compressed_timeline(c.scenario);
  c.session.chunk_rate = 1.0;
  c.compute_mst_ratio = false;
  return w;
}

/// Control plane and timers: a concurrent flash crowd on top of a Poisson
/// churn population, heartbeat failure detection on every member, a lossy
/// control channel with retries, and a nearly idle data plane.
///
/// Departures are graceful leaves. With heartbeats on, crash churn at this
/// scale breaks a tree invariant in the library: run_once throws ("parent is
/// at degree limit") or ends with a member over its degree limit on roughly
/// one seed in eight, with or without the flash crowd.
Workload flash_crash(bool smoke) {
  Workload w{"flash_crash_control", {}, smoke ? 2u : 6u};
  ex::RunConfig& c = w.config;
  c.substrate = ex::Substrate::kCoordUs;
  c.protocol = ex::Proto::kVdm;
  c.scenario.target_members = smoke ? 64 : 2048;
  c.scenario.flash_count = smoke ? 256 : 8192;
  c.scenario.flash_at = 400.0;
  compressed_timeline(c.scenario);
  c.workload.kind = ov::WorkloadKind::kPoisson;
  c.workload.mean_session = 800.0;
  c.session.join_mode = ov::JoinMode::kConcurrent;
  c.session.chunk_rate = 0.1;
  c.session.faults.heartbeat_period = 1.0;
  c.session.faults.heartbeat_misses = 3;
  c.session.faults.lossy_control = true;
  c.session.faults.control_loss_extra = 0.01;
  c.compute_mst_ratio = false;
  return w;
}

}  // namespace

std::vector<Workload> workloads(bool smoke) {
  std::vector<Workload> all{paper_lossy(smoke), coord_stream(smoke),
                            flash_crash(smoke)};
  for (Workload& w : all) {
    w.config.session.threads = 1;
    w.config.host_pool = pool_for(w.config.scenario);
  }
  return all;
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t i) {
  return seed * 16 + i + 1;
}

std::size_t expected_final_members(const ex::RunConfig& config) {
  if (config.workload.kind == ov::WorkloadKind::kSlots) {
    return config.scenario.target_members + config.scenario.flash_count + 1;
  }
  std::vector<ov::WorkloadEvent> events;
  ex::workload_events(config, events);
  std::size_t members = 1;
  for (const ov::WorkloadEvent& e : events) {
    if (e.at > config.scenario.total_time) continue;
    if (e.kind == ov::WorkloadEvent::Kind::kJoin) {
      ++members;
    } else {
      --members;
    }
  }
  return members;
}

}  // namespace perfbench
