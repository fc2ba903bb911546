#pragma once

#include <span>
#include <vector>

#include "topology/geo.hpp"
#include "util/rng.hpp"

namespace vdm::testbed {

/// Health of one synthetic PlanetLab node. The dissertation's node-selection
/// pipeline (Figure 5.2) filters the live pool in three stages:
///   1. drop nodes that do not respond to ping at all,
///   2. drop nodes that cannot send pings themselves,
///   3. drop nodes where the measurement agent fails to start.
/// Surviving nodes may still be "lazy" (slow to answer info requests),
/// which inflates worst-case startup times (§5.3).
struct NodeHealth {
  bool responds_to_ping = true;
  bool can_ping_out = true;
  bool agent_starts = true;
  /// Multiplier on this node's control-plane response latency (1 = prompt;
  /// the paper's lazy nodes are > 1).
  double slowness = 1.0;

  bool usable() const { return responds_to_ping && can_ping_out && agent_starts; }
};

/// Failure-rate knobs for synthesizing a pool.
struct PoolParams {
  std::size_t num_nodes = 140;  // the paper's US pool size
  double frac_unresponsive = 0.10;
  double frac_no_ping_out = 0.05;
  double frac_agent_broken = 0.05;
  double frac_lazy = 0.10;
  double lazy_slowness_min = 2.0, lazy_slowness_max = 6.0;
};

/// A synthetic PlanetLab deployment: geo-embedded latency space plus
/// per-node health.
struct NodePool {
  topo::GeoTopology topology;
  std::vector<NodeHealth> health;

  /// Hosts passing all three filter stages.
  std::vector<net::HostId> usable_nodes() const;
};

/// Builds a pool over the given regions (e.g. topo::us_regions()).
NodePool make_pool(const PoolParams& params, std::span<const topo::GeoRegion> regions,
                   util::Rng& rng);

/// Result of running the three-stage filter, for reporting like Figure 5.2.
struct FilterReport {
  std::size_t total = 0;
  std::size_t dropped_unresponsive = 0;
  std::size_t dropped_no_ping_out = 0;
  std::size_t dropped_agent = 0;
  std::size_t usable = 0;
};

FilterReport filter_nodes(const NodePool& pool);

}  // namespace vdm::testbed
