#include "topology/transit_stub.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace vdm::topo {

namespace {

double pick_delay(util::Rng& rng, double lo, double hi) {
  return rng.uniform(lo, hi);
}

double pick_loss(util::Rng& rng, double lo, double hi) {
  if (hi <= 0.0) return 0.0;
  return rng.uniform(lo, hi);
}

/// Connects `members` into a random spanning tree (uniform attachment order)
/// and sprinkles extra edges with probability `extra_prob` per absent pair.
/// `order` is caller-provided scratch (one buffer serves every domain of a
/// generation, so the ~100 domains of a default graph cost zero allocations
/// once it is warm).
void connect_domain(net::Graph& graph, const std::vector<net::NodeId>& members,
                    double extra_prob, double delay_lo, double delay_hi,
                    double loss_lo, double loss_hi, util::Rng& rng,
                    std::vector<net::NodeId>& order) {
  if (members.size() <= 1) return;
  order.assign(members.begin(), members.end());
  rng.shuffle(order);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    graph.add_link(order[i], order[j], pick_delay(rng, delay_lo, delay_hi),
                   pick_loss(rng, loss_lo, loss_hi));
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (rng.chance(extra_prob)) {
        graph.add_link(members[i], members[j], pick_delay(rng, delay_lo, delay_hi),
                       pick_loss(rng, loss_lo, loss_hi));
      }
    }
  }
}

}  // namespace

TransitStubTopology make_transit_stub(const TransitStubParams& p, util::Rng& rng) {
  TransitStubTopology topo;
  make_transit_stub(p, rng, topo);
  return topo;
}

void make_transit_stub(const TransitStubParams& p, util::Rng& rng,
                       TransitStubTopology& topo) {
  VDM_REQUIRE(p.transit_domains >= 1 && p.routers_per_transit >= 1);
  VDM_REQUIRE(p.routers_per_stub >= 1);

  topo.graph.clear();
  topo.transit_routers.clear();
  topo.stub_routers.clear();
  topo.stub_domain_of.clear();
  net::Graph& g = topo.graph;

  // Domain-shuffle scratch shared by every connect_domain call below.
  std::vector<net::NodeId>& order = topo.order_scratch;

  // 1. Transit domains.
  std::vector<std::vector<net::NodeId>>& transit = topo.transit_scratch;
  transit.resize(p.transit_domains);
  for (auto& domain : transit) {
    domain.clear();
    domain.reserve(p.routers_per_transit);
    for (std::size_t i = 0; i < p.routers_per_transit; ++i) {
      const net::NodeId v = g.add_node();
      domain.push_back(v);
      topo.transit_routers.push_back(v);
      topo.stub_domain_of.push_back(~0u);
    }
    connect_domain(g, domain, p.intra_domain_edge_prob, p.transit_transit_delay_min,
                   p.transit_transit_delay_max, p.loss_min, p.loss_max, rng,
                   order);
  }

  // 2. Inter-transit-domain links: a ring guarantees connectivity, extra
  //    random domain pairs add the meshiness real cores have.
  auto random_member = [&](const std::vector<net::NodeId>& domain) {
    return domain[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(domain.size()) - 1))];
  };
  for (std::size_t d = 0; d + 1 < transit.size(); ++d) {
    g.add_link(random_member(transit[d]), random_member(transit[d + 1]),
               pick_delay(rng, p.transit_transit_delay_min, p.transit_transit_delay_max),
               pick_loss(rng, p.loss_min, p.loss_max));
  }
  if (transit.size() > 2) {
    g.add_link(random_member(transit.back()), random_member(transit.front()),
               pick_delay(rng, p.transit_transit_delay_min, p.transit_transit_delay_max),
               pick_loss(rng, p.loss_min, p.loss_max));
  }
  for (std::size_t a = 0; a < transit.size(); ++a) {
    for (std::size_t b = a + 2; b < transit.size(); ++b) {
      if (rng.chance(p.extra_transit_link_prob)) {
        g.add_link(random_member(transit[a]), random_member(transit[b]),
                   pick_delay(rng, p.transit_transit_delay_min, p.transit_transit_delay_max),
                   pick_loss(rng, p.loss_min, p.loss_max));
      }
    }
  }

  // 3. Stub domains hanging off each transit router. One member buffer
  //    serves every stub domain.
  std::uint32_t stub_domain_index = 0;
  std::vector<net::NodeId>& stub = topo.stub_scratch;
  for (const net::NodeId anchor : topo.transit_routers) {
    for (std::size_t s = 0; s < p.stub_domains_per_transit_router; ++s) {
      stub.clear();
      stub.reserve(p.routers_per_stub);
      for (std::size_t i = 0; i < p.routers_per_stub; ++i) {
        const net::NodeId v = g.add_node();
        stub.push_back(v);
        topo.stub_routers.push_back(v);
        topo.stub_domain_of.push_back(stub_domain_index);
      }
      connect_domain(g, stub, p.intra_domain_edge_prob, p.stub_stub_delay_min,
                     p.stub_stub_delay_max, p.loss_min, p.loss_max, rng, order);
      // Gateway link from the stub domain up to its transit router.
      g.add_link(random_member(stub), anchor,
                 pick_delay(rng, p.transit_stub_delay_min, p.transit_stub_delay_max),
                 pick_loss(rng, p.loss_min, p.loss_max));
      ++stub_domain_index;
    }
  }

  // stub_scratch doubles as the union-find parents: its stub-domain duty
  // ended above.
  VDM_REQUIRE_MSG(g.connected(topo.stub_scratch),
                  "generator must produce a connected graph");
}

void attach_hosts_into(net::Graph& graph,
                       const std::vector<net::NodeId>& candidates,
                       const HostAttachment& params, util::Rng& rng,
                       std::vector<net::NodeId>& hosts_out) {
  VDM_REQUIRE(!candidates.empty());
  VDM_REQUIRE(params.num_hosts >= 1);
  hosts_out.clear();
  hosts_out.reserve(params.num_hosts);
  for (std::size_t h = 0; h < params.num_hosts; ++h) {
    const net::NodeId router = candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
    const net::NodeId host = graph.add_node();
    graph.add_link(host, router,
                   rng.uniform(params.access_delay_min, params.access_delay_max),
                   params.loss_max > 0.0 ? rng.uniform(params.loss_min, params.loss_max) : 0.0);
    hosts_out.push_back(host);
  }
}

net::GraphUnderlay attach_hosts(net::Graph graph,
                                const std::vector<net::NodeId>& candidates,
                                const HostAttachment& params, util::Rng& rng) {
  std::vector<net::NodeId> hosts;
  attach_hosts_into(graph, candidates, params, rng, hosts);
  return net::GraphUnderlay(std::move(graph), std::move(hosts));
}

net::GraphUnderlay make_transit_stub_underlay(const TransitStubParams& topo_params,
                                              const HostAttachment& host_params,
                                              util::Rng& rng) {
  TransitStubTopology topo = make_transit_stub(topo_params, rng);
  return attach_hosts(std::move(topo.graph), topo.stub_routers, host_params, rng);
}

}  // namespace vdm::topo
