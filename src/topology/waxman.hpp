#pragma once

#include <vector>

#include "net/graph.hpp"
#include "util/rng.hpp"

namespace vdm::topo {

/// Waxman random-graph generator — the classic flat Internet model, used as
/// an alternative substrate to cross-check that VDM's advantage is not an
/// artifact of transit-stub structure.
///
/// Routers are placed uniformly in the unit square; the pair (u, v) gets a
/// link with probability alpha * exp(-d(u,v) / (beta * L)) where L = sqrt(2)
/// is the maximal distance. Link delay is proportional to Euclidean
/// distance. Connectivity is guaranteed afterwards by bridging components
/// with their geometrically closest pairs.
struct WaxmanParams {
  std::size_t num_routers = 200;
  double alpha = 0.15;
  double beta = 0.25;
  /// Delay of a link spanning the full unit distance, seconds.
  double delay_per_unit = 0.060;
  /// Minimum delay floor so collocated routers still cost something.
  double min_delay = 0.0005;
  double loss_min = 0.0, loss_max = 0.0;
};

struct WaxmanTopology {
  net::Graph graph;
  /// Unit-square coordinates, index = NodeId.
  std::vector<std::pair<double, double>> coords;

  // The connectivity repair's union-find parents; kept here so the arena
  // variant is allocation-free once warm.
  std::vector<net::NodeId> sets_scratch;
};

WaxmanTopology make_waxman(const WaxmanParams& params, util::Rng& rng);

/// Arena variant: rebuilds into `out`, clearing graph and coords but keeping
/// their capacity. Identical topology for the same rng state.
void make_waxman(const WaxmanParams& params, util::Rng& rng, WaxmanTopology& out);

}  // namespace vdm::topo
