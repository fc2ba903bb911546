#pragma once

#include <limits>
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
/// A host-pair delay is an O(1) read of the router's tree (through the
/// hosts' access links). Host-pair losses are memoized in a flat triangular
/// table, one 8-byte slot per unordered pair, NaN until its first read
/// fills it from one walk along the path: repeated loss probes of the same
/// pair — the common case under refinement, churn, and the per-chunk data
/// plane — are a single array read. The table is sized on the first loss
/// read and cleared by rebind(), the only way the graph changes.
class GraphUnderlay final : public Underlay {
 public:
  /// Takes ownership of the graph. `hosts` maps HostId -> graph vertex.
  GraphUnderlay(Graph graph, std::vector<NodeId> hosts);

  /// Movable (the router is re-bound to the moved graph); not copyable.
  GraphUnderlay(GraphUnderlay&& other) noexcept
      : graph_(std::move(other.graph_)), hosts_(std::move(other.hosts_)),
        router_(graph_), pairs_(std::move(other.pairs_)),
        zero_loss_(other.zero_loss_) {}
  GraphUnderlay& operator=(GraphUnderlay&&) = delete;
  GraphUnderlay(const GraphUnderlay&) = delete;
  GraphUnderlay& operator=(const GraphUnderlay&) = delete;

  std::size_t num_hosts() const override { return hosts_.size(); }
  sim::Time delay(HostId a, HostId b) const override;
  double loss(HostId a, HostId b) const override;
  std::vector<LinkId> path(HostId a, HostId b) const override;
  void for_each_path_link(HostId a, HostId b,
                          util::FunctionRef<void(LinkId)> visit) const override;
  double link_delay(LinkId link) const override { return graph_.link(link).delay; }
  std::size_t num_links() const override { return graph_.num_links(); }
  /// Every link's loss is exactly 0, so every path's loss is too. Computed
  /// when a topology is seated (constructor, rebind()): links never change
  /// in between.
  bool zero_loss() const override { return zero_loss_; }

  const Graph& graph() const { return graph_; }
  const Router& router() const { return router_; }
  NodeId host_vertex(HostId h) const { return hosts_.at(h); }

  // ------------------------------------------------------------ arena reuse
  // A sweep worker runs many seeds of the same configuration; rebuilding the
  // underlay from scratch each seed re-allocates the graph, the router's
  // dense tree cache and the O(n^2) pair loss cache. release()/rebind() instead
  // shuttle the graph buffers out to the topology generator and back, so a
  // steady-state rebuild performs zero scaffolding allocations.

  /// Moves the topology out (into the caller's arena variables) so a
  /// generator can rebuild into the same storage. Queries are invalid until
  /// rebind() seats a new topology.
  void release(Graph& graph_out, std::vector<NodeId>& hosts_out);

  /// Seats a freshly built topology, keeping the capacity of every cache:
  /// the router's trees and the pair table are cleared here and refilled
  /// on their first reads.
  void rebind(Graph graph, std::vector<NodeId> hosts);

  /// Heap bytes reserved by the graph, router cache, pair cache and host
  /// map — the underlay's whole arena footprint.
  std::size_t arena_capacity_bytes() const;

 private:
  /// One unordered host pair's loss in canonical low -> high orientation,
  /// NaN until its first read.
  struct PairMemo {
    double loss = std::numeric_limits<double>::quiet_NaN();
  };
  static_assert(sizeof(PairMemo) == 8);

  /// The memo of hosts lo < hi, sizing the table on the first read.
  PairMemo& memo(HostId lo, HostId hi) const;

  Graph graph_;
  std::vector<NodeId> hosts_;
  Router router_;

  mutable std::vector<PairMemo> pairs_;  // strict upper triangle, by (lo, hi)
  bool zero_loss_ = false;
};

}  // namespace vdm::net
