#pragma once

#include <vector>

#include "net/graph.hpp"
#include "net/graph_underlay.hpp"
#include "util/rng.hpp"

namespace vdm::topo {

/// GT-ITM-style transit-stub topology generator.
///
/// The Internet model behind the paper's Chapter 3/4 experiments: a core of
/// interconnected transit domains, each transit router anchoring several
/// stub domains. Link delays fall into three classes (transit-transit >
/// transit-stub > intra-stub), which is exactly the heterogeneity that makes
/// "connect nodes in the same direction" pay off.
struct TransitStubParams {
  // Defaults yield 4*6 transit + 4*6*4*8 stub = 792 routers, the paper's size.
  std::size_t transit_domains = 4;
  std::size_t routers_per_transit = 6;
  std::size_t stub_domains_per_transit_router = 4;
  std::size_t routers_per_stub = 8;

  /// Extra random edge probability inside a domain beyond the connecting tree.
  double intra_domain_edge_prob = 0.4;
  /// Extra transit-domain-to-transit-domain links beyond the connecting ring.
  double extra_transit_link_prob = 0.3;

  // One-way link delay ranges in seconds, per class.
  double transit_transit_delay_min = 0.020, transit_transit_delay_max = 0.060;
  double transit_stub_delay_min = 0.005, transit_stub_delay_max = 0.020;
  double stub_stub_delay_min = 0.001, stub_stub_delay_max = 0.005;

  /// Per-link random error rate range (used by the Chapter-4 experiments:
  /// "each physical link is assigned a random error rate between 0% and 2%").
  double loss_min = 0.0, loss_max = 0.0;

  std::size_t num_routers() const {
    const std::size_t transit = transit_domains * routers_per_transit;
    return transit + transit * stub_domains_per_transit_router * routers_per_stub;
  }
};

/// Generated router topology plus the structural metadata host attachment
/// needs (which routers are stub routers).
struct TransitStubTopology {
  net::Graph graph;
  std::vector<net::NodeId> transit_routers;
  std::vector<net::NodeId> stub_routers;
  /// stub_domain_of[v] for stub routers: dense domain index (metadata for
  /// locality-aware experiments); kInvalidNode-equivalent for transit.
  std::vector<std::uint32_t> stub_domain_of;

  // Generator working buffers (domain shuffle order, per-transit-domain
  // member lists, stub member list). They live on the topology so that the
  // arena variant of make_transit_stub keeps them warm across runs; their
  // contents between calls are scratch, not output.
  std::vector<net::NodeId> order_scratch;
  std::vector<std::vector<net::NodeId>> transit_scratch;
  std::vector<net::NodeId> stub_scratch;
};

/// Builds the router graph. Deterministic in `rng`.
TransitStubTopology make_transit_stub(const TransitStubParams& params, util::Rng& rng);

/// Arena variant: rebuilds into `out`, clearing its graph and metadata
/// vectors but keeping their capacity — repeated same-sized generations are
/// allocation-free. Produces the identical topology for the same rng state.
void make_transit_stub(const TransitStubParams& params, util::Rng& rng,
                       TransitStubTopology& out);

/// Host-attachment parameters shared by all router-graph generators.
struct HostAttachment {
  std::size_t num_hosts = 200;
  /// Access-link one-way delay range, seconds (last-mile).
  double access_delay_min = 0.0005;
  double access_delay_max = 0.0030;
  /// Access-link loss range.
  double loss_min = 0.0, loss_max = 0.0;
};

/// Attaches hosts to uniformly random routers from `candidates` via access
/// links and wraps everything in a routable underlay.
net::GraphUnderlay attach_hosts(net::Graph graph,
                                const std::vector<net::NodeId>& candidates,
                                const HostAttachment& params, util::Rng& rng);

/// Arena variant: appends hosts to `graph` in place and records their
/// vertices in `hosts_out` (cleared first, capacity kept). Same rng draws
/// and topology as attach_hosts; the caller seats the result via
/// GraphUnderlay::rebind (or the constructor).
void attach_hosts_into(net::Graph& graph,
                       const std::vector<net::NodeId>& candidates,
                       const HostAttachment& params, util::Rng& rng,
                       std::vector<net::NodeId>& hosts_out);

/// One-call convenience: transit-stub routers + hosts on stub routers.
net::GraphUnderlay make_transit_stub_underlay(const TransitStubParams& topo_params,
                                              const HostAttachment& host_params,
                                              util::Rng& rng);

}  // namespace vdm::topo
