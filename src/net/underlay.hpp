#pragma once

#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"
#include "util/function_ref.hpp"

namespace vdm::net {

/// Abstraction of the physical network as the overlay perceives it.
///
/// Three implementations exist:
///  * GraphUnderlay  — hosts attached to a router topology; paths, delays
///    and losses come from shortest-path routing (the NS-2-style substrate
///    of the paper's Chapter 3/4 experiments).
///  * MatrixUnderlay — direct host-to-host latency/loss matrices (the
///    PlanetLab-style substrate of Chapter 5, where no router map exists
///    and "network usage" replaces per-link stress).
///  * CoordUnderlay  — hosts as points in an embedded metric space
///    (lat/lon or a synthetic plane); delay is O(1) arithmetic over the two
///    endpoints' coordinates with O(N) total state, the substrate for
///    100k+-member scaling runs where an O(N²) matrix cannot exist.
///
/// Overlay code depends only on this interface, so every protocol runs
/// unchanged on both substrates.
class Underlay {
 public:
  virtual ~Underlay() = default;

  /// Number of end hosts available to the overlay.
  virtual std::size_t num_hosts() const = 0;

  /// One-way delay between two hosts, seconds. Requires a != b reachable.
  virtual sim::Time delay(HostId a, HostId b) const = 0;

  /// Round-trip time, the probe measurement VDM/HMTP act on.
  sim::Time rtt(HostId a, HostId b) const { return 2.0 * delay(a, b); }

  /// End-to-end per-packet drop probability a -> b.
  virtual double loss(HostId a, HostId b) const = 0;

  /// Physical links traversed a -> b, for stress accounting. A
  /// MatrixUnderlay reports one pseudo-link per host pair. Allocates the
  /// result; hot paths should prefer for_each_path_link().
  virtual std::vector<LinkId> path(HostId a, HostId b) const = 0;

  /// Visits the links of path(a, b) in order without materializing the
  /// vector. Both shipped underlays override this allocation-free; the
  /// default exists so ad-hoc test doubles only need path().
  virtual void for_each_path_link(HostId a, HostId b,
                                  util::FunctionRef<void(LinkId)> visit) const {
    for (const LinkId l : path(a, b)) visit(l);
  }

  /// One-way delay contributed by a single link (for network-usage sums).
  virtual double link_delay(LinkId link) const = 0;

  /// Total number of physical (or pseudo-) links.
  virtual std::size_t num_links() const = 0;

  /// True when delay()/loss()/path visits may run concurrently from several
  /// threads. Matrix and coordinate substrates are pure reads over immutable
  /// arrays; the graph substrate fills mutable per-pair and per-tree caches
  /// on read, so it must stay single-threaded (and returns the default).
  /// The collector's parallel measure_tree reads only engage when this is
  /// true.
  virtual bool concurrent_reads() const { return false; }

  /// True when loss() is identically zero for every host pair. A loss-free
  /// data plane draws no randomness per chunk edge (Rng::chance(0) draws
  /// nothing).
  virtual bool zero_loss() const { return false; }
};

}  // namespace vdm::net
