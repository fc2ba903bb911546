#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/graph.hpp"
#include "net/routing.hpp"
#include "net/underlay.hpp"

namespace vdm::net {

/// Underlay backed by an explicit router graph (transit-stub, Waxman, ...).
///
/// Hosts are graph vertices registered via attach_host(); topology
/// generators create them as leaves hanging off stub routers with access
/// links, matching how GT-ITM experiments place end systems.
///
/// Host-pair queries are memoized in a flat triangular delay/loss/hops
/// cache filled lazily from the router's fused path walk. Repeated probes
/// of the same pair — the common case under refinement, churn, and the
/// per-chunk data plane — are a single array read. The cache is stamped
/// per-pair with an epoch that bumps when Graph::version() changes, so
/// invalidation is O(1) and allocation-free.
class GraphUnderlay final : public Underlay {
 public:
  /// Takes ownership of the graph. `hosts` maps HostId -> graph vertex.
  GraphUnderlay(Graph graph, std::vector<NodeId> hosts);

  /// Movable (the router is re-bound to the moved graph); not copyable.
  GraphUnderlay(GraphUnderlay&& other) noexcept
      : graph_(std::move(other.graph_)), hosts_(std::move(other.hosts_)),
        router_(graph_), pair_stats_(std::move(other.pair_stats_)),
        pair_epoch_(std::move(other.pair_epoch_)), epoch_(other.epoch_),
        cached_version_(other.cached_version_), zero_loss_(other.zero_loss_) {}
  GraphUnderlay& operator=(GraphUnderlay&&) = delete;
  GraphUnderlay(const GraphUnderlay&) = delete;
  GraphUnderlay& operator=(const GraphUnderlay&) = delete;

  std::size_t num_hosts() const override { return hosts_.size(); }
  sim::Time delay(HostId a, HostId b) const override {
    return a == b ? 0.0 : pair(a, b).delay;
  }
  double loss(HostId a, HostId b) const override {
    return a == b ? 0.0 : pair(a, b).loss;
  }
  std::vector<LinkId> path(HostId a, HostId b) const override;
  void for_each_path_link(HostId a, HostId b,
                          util::FunctionRef<void(LinkId)> visit) const override;
  double link_delay(LinkId link) const override { return graph_.link(link).delay; }
  std::size_t num_links() const override { return graph_.num_links(); }
  /// Every link's loss is exactly 0, so every path's loss is too. Computed
  /// when a topology is seated (constructor, rebind()): links never change
  /// in between.
  bool zero_loss() const override { return zero_loss_; }

  /// IP hop count of the unicast path a -> b (0 for a == b / unreachable).
  std::size_t path_hops(HostId a, HostId b) const {
    return a == b ? 0 : pair(a, b).hops;
  }

  const Graph& graph() const { return graph_; }
  const Router& router() const { return router_; }
  NodeId host_vertex(HostId h) const { return hosts_.at(h); }

  // ------------------------------------------------------------ arena reuse
  // A sweep worker runs many seeds of the same configuration; rebuilding the
  // underlay from scratch each seed re-allocates the graph, the router's
  // dense tree cache and the O(n^2) pair cache. release()/rebind() instead
  // shuttle the graph buffers out to the topology generator and back, so a
  // steady-state rebuild performs zero scaffolding allocations.

  /// Moves the topology out (into the caller's arena variables) so a
  /// generator can rebuild into the same storage. Queries are invalid until
  /// rebind() seats a new topology.
  void release(Graph& graph_out, std::vector<NodeId>& hosts_out);

  /// Seats a freshly built topology, keeping the capacity of every cache.
  /// The router and pair caches invalidate via the graph's monotone
  /// version, exactly as a mutation would.
  void rebind(Graph graph, std::vector<NodeId> hosts);

  /// Heap bytes reserved by the graph, router cache, pair cache and host
  /// map — the underlay's whole arena footprint.
  std::size_t arena_capacity_bytes() const;

 private:
  /// Strict-upper-triangle index of the unordered host pair {a, b}, a != b.
  std::size_t pair_index(HostId a, HostId b) const {
    if (a > b) std::swap(a, b);
    const std::size_t n = hosts_.size();
    return static_cast<std::size_t>(a) * n -
           static_cast<std::size_t>(a) * (a + 1) / 2 + (b - a - 1);
  }

  const Router::PathStats& pair(HostId a, HostId b) const;

  Graph graph_;
  std::vector<NodeId> hosts_;
  Router router_;

  mutable std::vector<Router::PathStats> pair_stats_;  // triangular, lazy
  mutable std::vector<std::uint64_t> pair_epoch_;
  mutable std::uint64_t epoch_ = 1;
  mutable std::uint64_t cached_version_ = ~0ull;
  bool zero_loss_ = false;
};

}  // namespace vdm::net
