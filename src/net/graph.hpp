#pragma once

#include <span>
#include <vector>

#include "net/types.hpp"

namespace vdm::net {

/// One undirected physical link: propagation delay (one-way, seconds) and a
/// per-traversal drop probability. Bandwidth is not modeled — the paper's
/// metrics (stress, stretch, loss, overhead) are delay- and loss-driven, and
/// degree limits stand in for uplink capacity exactly as in the dissertation.
struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double delay = 0.0;
  double loss = 0.0;

  NodeId other(NodeId n) const { return n == a ? b : a; }
};

/// Disjoint sets over vertex ids, kept in a caller-owned parent array so
/// that a generator reusing the array allocates nothing once it is warm.
class UnionFind {
 public:
  /// Resets `parent` to `n` singleton sets (capacity kept) and works on it.
  UnionFind(std::vector<NodeId>& parent, std::size_t n);

  NodeId find(NodeId x);
  /// Merges the sets of `a` and `b`; false if they already were one.
  bool unite(NodeId a, NodeId b);
  std::size_t sets() const { return sets_; }

 private:
  std::vector<NodeId>& parent_;
  std::size_t sets_;
};

/// Undirected weighted multigraph used as the physical network.
///
/// Storage is struct-of-arrays with a CSR-style adjacency built lazily on
/// first query, so construction (topology generators appending links) stays
/// O(1) amortized and routing scans are cache-friendly.
///
/// Delays live on a dyadic grid: add_link stores each one rounded to a
/// multiple of kDelayStep, and keeps the graph's summed delay below
/// kDelaySumLimit. Every path's delay is then a sum of grid multiples below
/// 2^22 s, which a double holds exactly, so any order of summation gives
/// the same bits (DESIGN.md §3, "Delays on a dyadic grid").
class Graph {
 public:
  /// The delay grid's step, 2^-30 s (~0.93 ns).
  static constexpr double kDelayStep = 0x1p-30;
  /// Exclusive bound on the sum of every link's stored delay, 2^22 s.
  static constexpr double kDelaySumLimit = 0x1p22;

  /// Adds an isolated vertex and returns its id.
  NodeId add_node();

  /// Adds `count` vertices; returns the id of the first.
  NodeId add_nodes(std::size_t count);

  /// Adds an undirected link. Requires distinct existing endpoints, a
  /// finite delay > 0 that keeps the graph's summed delay below
  /// kDelaySumLimit, and loss in [0, 1). The delay is stored rounded to the
  /// nearest multiple of kDelayStep, and at least one step.
  LinkId add_link(NodeId a, NodeId b, double delay, double loss = 0.0);

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_links() const { return links_.size(); }
  const Link& link(LinkId id) const { return links_[id]; }
  const std::vector<Link>& links() const { return links_; }

  /// Half-edge as seen from one endpoint.
  struct Arc {
    NodeId to;
    LinkId link;
    double delay;
  };

  /// Arcs leaving `n`. Triggers (re)building the CSR index if needed.
  std::span<const Arc> arcs(NodeId n) const;

  /// Degree of vertex n (number of incident links).
  std::size_t degree(NodeId n) const { return arcs(n).size(); }

  /// True if the graph is connected (trivially true when empty).
  bool connected() const;

  /// Scratch variant: unites the links' endpoints in a UnionFind over the
  /// caller's `parent` buffer, so generators validating every arena
  /// rebuild pay no allocation once it is warm. Builds no adjacency.
  bool connected(std::vector<NodeId>& parent) const;

  /// Monotone counter bumped on every mutation (nodes or links added,
  /// clear()); routing caches use it to detect staleness. Links never change
  /// once added: the simulated underlay's delays and losses stay fixed for
  /// the whole run, as in the paper.
  std::uint64_t version() const { return version_; }

  /// Removes every node and link but keeps all allocated capacity, so a
  /// generator rebuilding into this object allocates nothing once the
  /// object has hosted a same-sized topology. version() keeps increasing
  /// monotonically — caches treat the rebuild as a mutation, never as a
  /// rollback to a previously seen version.
  void clear();

  /// Heap bytes currently reserved by this graph's buffers (links + CSR
  /// adjacency). Arena growth accounting: unchanged across a clear() +
  /// rebuild means the rebuild was allocation-free.
  std::size_t capacity_bytes() const;

 private:
  void mark_structural();
  void rebuild_adjacency() const;

  std::size_t num_nodes_ = 0;
  std::vector<Link> links_;
  double delay_sum_ = 0.0;  // exact: a sum of grid multiples below 2^22
  std::uint64_t version_ = 0;

  mutable bool adjacency_dirty_ = true;
  mutable std::vector<std::size_t> offsets_;  // CSR row starts, size num_nodes_+1
  mutable std::vector<Arc> arcs_;             // CSR payload, 2 * num_links
  mutable std::vector<std::size_t> cursor_;   // rebuild scratch, capacity kept
};

}  // namespace vdm::net
