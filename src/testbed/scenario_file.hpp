#pragma once

#include <vector>

#include "net/types.hpp"
#include "overlay/scenario.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace vdm::testbed {

/// A complete testbed scenario — the dissertation's scenario files tell
/// "time, node and action for each event" (§5.2.2). Scenario files share
/// the membership grammar of traces (overlay::parse_trace, which returns
/// the `terminate` time as end_time; overlay::write_trace writes it back).
struct Scenario {
  /// Time-ordered membership events, flash bursts already expanded.
  std::vector<overlay::WorkloadEvent> events;
  /// The terminate instant: the session runs to here, then reports.
  sim::Time end_time = 0.0;
};

/// Generation spec mirroring the paper's PlanetLab runs: a pool of usable
/// nodes, a join-only warmup, then churn for the remainder of the session.
struct ScenarioSpec {
  std::vector<net::HostId> nodes;  // usable node ids (source excluded)
  std::size_t members = 100;       // how many participate at a time
  sim::Time join_phase = 2000.0;
  sim::Time total_time = 5000.0;
  sim::Time churn_interval = 400.0;
  double churn_rate = 0.05;        // fraction of members replaced / interval
  /// Probability a departure is an ungraceful crash instead of a graceful
  /// leave — the paper's unstable PlanetLab nodes. 0 keeps the generated
  /// event stream identical to the all-graceful one.
  double crash_fraction = 0.0;
  int degree_min = 4, degree_max = 4;
  /// Flash crowd: `flash_count` burst joins at `flash_at`, on top of the
  /// steady membership, over the lowest host ids no other event names
  /// (overlay::assign_flash_hosts). 0 disables.
  std::size_t flash_count = 0;
  sim::Time flash_at = 0.0;
};

/// Deterministically generates a time-ordered scenario from the spec (the
/// role of the paper's scenario generator fed with different seeds);
/// end_time is total_time, or the last event's time if that is later.
Scenario generate_scenario(const ScenarioSpec& spec, util::Rng& rng);

}  // namespace vdm::testbed
