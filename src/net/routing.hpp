#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "net/graph.hpp"
#include "net/types.hpp"

namespace vdm::net {

/// Shortest-path (minimum-delay) unicast routing over a Graph — the stand-in
/// for the Internet's unicast forwarding that application-layer multicast
/// rides on.
///
/// Single-source trees are computed with Dijkstra on demand and memoized
/// densely by root vertex. A tree covers the transit vertices only (two or
/// more incident links: the only ones that can forward traffic), each with
/// its distance and the link towards the root, and is current while its
/// `dist` is non-empty. A degree-1 vertex (an end host on its access link)
/// is read through that link at both ends of a path: as a source it reads
/// the tree rooted at the router its link leads to, `access + dist`, and as
/// a destination it adds its link's delay to its router's distance. On the
/// Graph's delay grid every such sum is exact, so a host's distances equal
/// those of a tree rooted at the host itself bit for bit, and the hosts
/// behind one router share its tree (DESIGN.md §3): trees are rooted at
/// transit vertices, and only a source that reaches none (an isolated
/// vertex, a leaf hanging off a leaf) roots one of its own. The transit
/// index is built on the first tree after a Graph::version() bump or
/// clear_cache(); either clears every tree with its capacity kept, so
/// recomputing one allocates nothing. delay() is a flat read; path walks
/// step from dst to the root through the parent links, then take the
/// source's access link.
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
  /// Graph::version() change: the router's work count, one per root read.
  std::uint64_t trees_computed() const { return trees_computed_; }

  /// Heap bytes reserved by the memoized trees, the transit index and the
  /// Dijkstra scratch. The buffers are sized by vertex count on first use
  /// and then only reused, so a steady value across graph rebuilds proves
  /// allocation-free routing.
  std::size_t cache_capacity_bytes() const;

 private:
  /// Both indexed by transit index, plus one spare slot so that a computed
  /// tree is never empty. A transit root's entry is {0, kInvalidLink}; an
  /// unreachable vertex's distance is infinite.
  struct Sssp {
    std::vector<double> dist;
    std::vector<LinkId> parent_link;  // link towards the root
  };

  /// Entry of the indexed 4-ary Dijkstra heap (key cached inline so sifts
  /// never chase the dist array). `slot` is a transit index.
  struct HeapEntry {
    double key;
    std::uint32_t slot;
  };

  /// Where a source's paths start: the tree rooted at `root`, entered after
  /// `lead` seconds on the source's `access` link. A leaf whose link leads
  /// to a transit vertex has that vertex as its root; any other source is
  /// its own root (lead 0, no access link).
  struct Origin {
    const Sssp* tree;
    NodeId root;
    double lead;
    LinkId access;
  };

  /// transit_index_ value of a vertex with fewer than two links.
  static constexpr std::uint32_t kNotTransit = 0xffffffffu;
  static constexpr double kUnreachable = std::numeric_limits<double>::infinity();

  /// Calls fn(link) for each link of the shortest path src -> dst, from dst
  /// back to src. No-op for src == dst or unreachable pairs.
  template <typename Fn>
  void walk_to_source(NodeId src, NodeId dst, Fn&& fn) const {
    if (src == dst) return;
    const Origin o = origin(src);
    NodeId at = dst;
    std::uint32_t slot = transit_index_[dst];
    if (slot == kNotTransit) {
      // A leaf is entered through its one access link; an isolated vertex
      // and a leaf hanging off another leaf (other than src) are
      // unreachable.
      const std::span<const Graph::Arc> access = graph_.arcs(dst);
      if (access.empty()) return;
      if (access[0].to == src) {
        fn(access[0].link);
        return;
      }
      at = access[0].to;
      slot = transit_index_[at];
      if (slot == kNotTransit || !reaches(o, slot)) return;
      fn(access[0].link);
    } else if (!reaches(o, slot)) {
      return;
    }
    while (at != o.root) {
      const LinkId l = o.tree->parent_link[transit_index_[at]];
      fn(l);
      at = graph_.link(l).other(at);
    }
    if (o.access != kInvalidLink) fn(o.access);
  }

  /// True if transit vertex `slot` is reachable from `o`.
  static bool reaches(const Origin& o, std::uint32_t slot) {
    return o.tree->dist[slot] < kUnreachable;
  }

  /// Resolves `src`'s origin, computing its root's tree on first use (and
  /// the transit index after an invalidation).
  Origin origin(NodeId src) const;
  void index_transit() const;
  void recompute_tree(NodeId root, Sssp& sssp) const;
  void heap_sift_up(std::size_t pos) const;
  void heap_sift_down(std::size_t pos) const;

  const Graph& graph_;
  mutable std::uint64_t cached_version_ = ~0ull;
  mutable std::uint64_t trees_computed_ = 0;
  // Vertex -> dense transit index (kNotTransit for the rest), and back.
  // Empty until the first tree after an invalidation.
  mutable std::vector<std::uint32_t> transit_index_;
  mutable std::vector<NodeId> transit_nodes_;
  mutable std::vector<Sssp> trees_;  // dense, indexed by root vertex
  // Reusable indexed-heap state: entry array plus transit index -> heap
  // position back-pointers, enabling decrease-key instead of lazy
  // duplicates.
  mutable std::vector<HeapEntry> heap_;
  mutable std::vector<std::uint32_t> heap_pos_;
  mutable std::vector<LinkId> path_scratch_;
};

}  // namespace vdm::net
