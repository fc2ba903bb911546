#include "topology/waxman.hpp"

#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace vdm::topo {

namespace {

double dist(const std::pair<double, double>& a, const std::pair<double, double>& b) {
  const double dx = a.first - b.first;
  const double dy = a.second - b.second;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

WaxmanTopology make_waxman(const WaxmanParams& p, util::Rng& rng) {
  WaxmanTopology topo;
  make_waxman(p, rng, topo);
  return topo;
}

void make_waxman(const WaxmanParams& p, util::Rng& rng, WaxmanTopology& topo) {
  VDM_REQUIRE(p.num_routers >= 2);
  VDM_REQUIRE(p.alpha > 0.0 && p.beta > 0.0);

  topo.graph.clear();
  topo.coords.clear();
  topo.graph.add_nodes(p.num_routers);
  topo.coords.reserve(p.num_routers);
  for (std::size_t i = 0; i < p.num_routers; ++i) {
    topo.coords.emplace_back(rng.next_double(), rng.next_double());
  }

  const double L = std::sqrt(2.0);
  net::UnionFind uf(topo.sets_scratch, p.num_routers);
  auto add = [&](net::NodeId u, net::NodeId v) {
    const double d = dist(topo.coords[u], topo.coords[v]);
    const double delay = std::max(p.min_delay, d * p.delay_per_unit);
    const double loss = p.loss_max > 0.0 ? rng.uniform(p.loss_min, p.loss_max) : 0.0;
    topo.graph.add_link(u, v, delay, loss);
    uf.unite(u, v);
  };

  for (net::NodeId u = 0; u < p.num_routers; ++u) {
    for (net::NodeId v = u + 1; v < p.num_routers; ++v) {
      const double prob = p.alpha * std::exp(-dist(topo.coords[u], topo.coords[v]) / (p.beta * L));
      if (rng.chance(prob)) add(u, v);
    }
  }

  // Bridge remaining components via their closest cross pairs so routing is
  // total. This adds only short, geometrically sensible links.
  bool merged = true;
  while (merged) {
    merged = false;
    net::NodeId best_u = 0, best_v = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (net::NodeId u = 0; u < p.num_routers && best_d > 0.0; ++u) {
      for (net::NodeId v = u + 1; v < p.num_routers; ++v) {
        if (uf.find(u) == uf.find(v)) continue;
        const double d = dist(topo.coords[u], topo.coords[v]);
        if (d < best_d) {
          best_d = d;
          best_u = u;
          best_v = v;
        }
      }
    }
    if (best_d < std::numeric_limits<double>::infinity()) {
      add(best_u, best_v);
      merged = true;
    }
  }

  // Every link went through `uf`, so one set left means connected.
  VDM_REQUIRE_MSG(uf.sets() == 1, "generator must produce a connected graph");
}

}  // namespace vdm::topo
