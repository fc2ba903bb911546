#include "testbed/node_pool.hpp"

#include "util/require.hpp"

namespace vdm::testbed {

std::vector<net::HostId> NodePool::usable_nodes() const {
  std::vector<net::HostId> out;
  for (net::HostId h = 0; h < health.size(); ++h) {
    if (health[h].usable()) out.push_back(h);
  }
  return out;
}

NodePool make_pool(const PoolParams& params,
                   std::span<const topo::GeoRegion> regions, util::Rng& rng) {
  VDM_REQUIRE(params.num_nodes >= 2);
  topo::GeoParams gp;
  gp.num_hosts = params.num_nodes;
  gp.regions = regions;

  NodePool pool{topo::make_geo(gp, rng), {}};
  pool.health.resize(params.num_nodes);
  for (auto& h : pool.health) {
    h.responds_to_ping = !rng.chance(params.frac_unresponsive);
    h.can_ping_out = !rng.chance(params.frac_no_ping_out);
    h.agent_starts = !rng.chance(params.frac_agent_broken);
    if (rng.chance(params.frac_lazy)) {
      h.slowness = rng.uniform(params.lazy_slowness_min, params.lazy_slowness_max);
    }
  }
  return pool;
}

FilterReport filter_nodes(const NodePool& pool) {
  FilterReport r;
  r.total = pool.health.size();
  for (const NodeHealth& h : pool.health) {
    // Stages apply in pipeline order, mirroring Figure 5.2: a node failing
    // an earlier stage is never probed by a later one.
    if (!h.responds_to_ping) {
      ++r.dropped_unresponsive;
    } else if (!h.can_ping_out) {
      ++r.dropped_no_ping_out;
    } else if (!h.agent_starts) {
      ++r.dropped_agent;
    } else {
      ++r.usable;
    }
  }
  return r;
}

}  // namespace vdm::testbed
