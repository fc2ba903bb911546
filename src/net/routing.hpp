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
/// densely by source. A tree covers the transit vertices only (two or more
/// incident links: the only ones that can forward traffic), each with its
/// distance and the link towards the source, and is current while its `dist`
/// is non-empty. A degree-1 vertex (an end host on its access link) is read
/// through that link: its distance is its neighbour's plus the link's delay,
/// the very sum Dijkstra would have stored for it. The transit index is
/// built on the first tree after a Graph::version() bump or clear_cache();
/// either clears every tree with its capacity kept, so recomputing one
/// allocates nothing. delay() is a flat read; path walks step from dst to src
/// through the parent links.
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

  /// Drops all memoized shortest-path trees and the transit index, and
  /// zeroes trees_computed().
  void clear_cache() const;

  /// Dijkstra runs since construction, the last clear_cache() or the last
  /// Graph::version() change: the router's work count.
  std::uint64_t trees_computed() const { return trees_computed_; }

  /// Heap bytes reserved by the memoized trees, the transit index and the
  /// Dijkstra scratch. The buffers are sized by vertex count on first use
  /// and then only reused, so a steady value across graph rebuilds proves
  /// allocation-free routing.
  std::size_t cache_capacity_bytes() const;

 private:
  /// Both indexed by transit index, plus one spare slot so that a computed
  /// tree is never empty.
  struct Sssp {
    std::vector<double> dist;
    std::vector<LinkId> parent_link;  // link towards the source
  };

  /// Entry of the indexed 4-ary Dijkstra heap (key cached inline so sifts
  /// never chase the dist array). `slot` is a transit index.
  struct HeapEntry {
    double key;
    std::uint32_t slot;
  };

  /// transit_index_ value of a vertex with fewer than two links.
  static constexpr std::uint32_t kNotTransit = 0xffffffffu;

  /// Calls fn(link) for each link of the shortest path src -> dst, from dst
  /// back to src. No-op for src == dst or unreachable pairs.
  template <typename Fn>
  void walk_to_source(NodeId src, NodeId dst, Fn&& fn) const {
    if (src == dst) return;
    const Sssp& sssp = tree_for(src);
    NodeId at = dst;
    std::uint32_t slot = transit_index_[dst];
    if (slot == kNotTransit) {
      // A leaf is entered through its one access link; an isolated vertex
      // and a leaf hanging off another leaf are unreachable.
      const std::span<const Graph::Arc> access = graph_.arcs(dst);
      if (access.empty()) return;
      at = access[0].to;
      if (at != src) {
        slot = transit_index_[at];
        if (slot == kNotTransit || sssp.parent_link[slot] == kInvalidLink) return;
      }
      fn(access[0].link);
    } else if (sssp.parent_link[slot] == kInvalidLink) {
      return;  // unreachable
    }
    while (at != src) {
      const LinkId l = sssp.parent_link[transit_index_[at]];
      fn(l);
      at = graph_.link(l).other(at);
    }
  }

  const Sssp& tree_for(NodeId src) const;
  void index_transit() const;
  void recompute_tree(NodeId src, Sssp& sssp) const;
  void heap_sift_up(std::size_t pos) const;
  void heap_sift_down(std::size_t pos) const;

  const Graph& graph_;
  mutable std::uint64_t cached_version_ = ~0ull;
  mutable std::uint64_t trees_computed_ = 0;
  // Vertex -> dense transit index (kNotTransit for the rest), and back.
  // Empty until the first tree after an invalidation.
  mutable std::vector<std::uint32_t> transit_index_;
  mutable std::vector<NodeId> transit_nodes_;
  mutable std::vector<Sssp> trees_;  // dense, indexed by source vertex
  // Reusable indexed-heap state: entry array plus transit index -> heap
  // position back-pointers, enabling decrease-key instead of lazy
  // duplicates.
  mutable std::vector<HeapEntry> heap_;
  mutable std::vector<std::uint32_t> heap_pos_;
  mutable std::vector<LinkId> path_scratch_;
};

}  // namespace vdm::net
