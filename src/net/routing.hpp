#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "net/types.hpp"

namespace vdm::net {

/// Shortest-path (minimum-delay) unicast routing over a Graph — the stand-in
/// for the Internet's unicast forwarding that application-layer multicast
/// rides on.
///
/// Single-source trees are computed with Dijkstra on demand and memoized
/// densely by source: a tree holds each vertex's distance and the link
/// towards the source, and is current while its `dist` is non-empty. A
/// Graph::version() bump or clear_cache() clears every tree with its
/// capacity kept, so recomputing one allocates nothing. delay() is a flat
/// read; path walks step from dst to src through the parent links.
/// The class is not thread-safe; each experiment seed owns its own Router
/// (seeds parallelize at a higher level).
class Router {
 public:
  explicit Router(const Graph& graph) : graph_(graph) {}

  /// One-way propagation delay of the shortest path src -> dst, in seconds.
  /// Infinity if unreachable.
  double delay(NodeId src, NodeId dst) const;

  /// Links of the shortest path src -> dst, in order from src. Empty for
  /// src == dst; empty for unreachable pairs (check delay() for infinity).
  /// Allocates the result; hot paths should prefer for_each_link().
  std::vector<LinkId> path(NodeId src, NodeId dst) const;

  /// End-to-end per-packet drop probability along the shortest path:
  /// 1 - prod(1 - loss_l), multiplied dst -> src. Zero for src == dst and
  /// for unreachable pairs.
  double path_loss(NodeId src, NodeId dst) const;

  /// Visits every link of the shortest path src -> dst in order from src,
  /// without allocating in steady state. No-op for src == dst or
  /// unreachable pairs.
  template <typename Fn>
  void for_each_link(NodeId src, NodeId dst, Fn&& fn) const {
    // The parent walk yields dst -> src; buffer it (reused capacity) so the
    // visitor sees links in forward order, matching path().
    path_scratch_.clear();
    walk_to_source(src, dst, [this](LinkId l) { path_scratch_.push_back(l); });
    for (auto it = path_scratch_.rbegin(); it != path_scratch_.rend(); ++it) fn(*it);
  }

  /// Drops all memoized shortest-path trees.
  void clear_cache() const;

  /// Heap bytes reserved by the memoized trees and Dijkstra scratch. The
  /// buffers are sized by node count on first use and then only reused, so
  /// a steady value across graph rebuilds proves allocation-free routing.
  std::size_t cache_capacity_bytes() const;

 private:
  struct Sssp {
    std::vector<double> dist;
    std::vector<LinkId> parent_link;  // link towards the source
  };

  /// Entry of the indexed 4-ary Dijkstra heap (key cached inline so sifts
  /// never chase the dist array).
  struct HeapEntry {
    double key;
    NodeId node;
  };

  /// Calls fn(link) for each link of the shortest path src -> dst, from dst
  /// back to src. No-op for src == dst or unreachable pairs.
  template <typename Fn>
  void walk_to_source(NodeId src, NodeId dst, Fn&& fn) const {
    if (src == dst) return;
    const Sssp& sssp = tree_for(src);
    if (sssp.parent_link[dst] == kInvalidLink) return;  // unreachable
    for (NodeId at = dst; at != src;) {
      const LinkId l = sssp.parent_link[at];
      fn(l);
      at = graph_.link(l).other(at);
    }
  }

  const Sssp& tree_for(NodeId src) const;
  void recompute_tree(NodeId src, Sssp& sssp) const;
  void heap_sift_up(std::size_t pos) const;
  void heap_sift_down(std::size_t pos) const;

  const Graph& graph_;
  mutable std::uint64_t cached_version_ = ~0ull;
  mutable std::vector<Sssp> trees_;  // dense, indexed by source
  // Reusable indexed-heap state: entry array plus node -> heap position
  // back-pointers, enabling decrease-key instead of lazy duplicates.
  mutable std::vector<HeapEntry> heap_;
  mutable std::vector<std::uint32_t> heap_pos_;
  mutable std::vector<LinkId> path_scratch_;
};

}  // namespace vdm::net
