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
/// densely by root vertex. Trees span transit vertices only (two or more
/// incident links: the only ones that can forward traffic). A degree-1
/// vertex (an end host on its access link) is read through that link at
/// both ends of a path: as a source it reads the tree rooted at the router
/// its link leads to, `access + dist`, and as a destination it adds its
/// link's delay to its router's distance.
///
/// The transit index numbers the transit vertices in DFS preorder from a
/// vertex on the heavier side of every bridge (a link whose removal splits
/// its component), so the lighter side of each bridge is one slot range, a
/// region. A tree covers only its root's innermost region, each slot with
/// its distance and the link towards the root. A read whose destination
/// lies outside it crosses the region's entry bridge into the tree of the
/// vertex at the far end, with `dist(region head) + bridge delay` added to
/// the lead, until a region holds the destination. On the Graph's delay
/// grid every such sum is exact, so the distances equal a tree rooted at
/// the source itself bit for bit (DESIGN.md §3). Only a source that reaches
/// no transit vertex (an isolated vertex, a leaf hanging off a leaf) roots
/// a tree of its own, with an empty region.
///
/// The index is built on the first read after a Graph::version() bump or
/// clear_cache(); either clears every tree with its capacity kept, so
/// recomputing one allocates nothing. delay() is O(bridges crossed); path
/// walks step from dst to each tree's root through the parent links, back
/// over each bridge crossed, then take the source's access link.
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
  /// zeroes trees_computed() and vertices_settled().
  void clear_cache() const;

  /// Dijkstra runs since construction, the last clear_cache() or the last
  /// Graph::version() change: one per root read, including the roots that
  /// reads reach across bridges.
  std::uint64_t trees_computed() const { return trees_computed_; }

  /// Vertices those Dijkstra runs settled (heap pops), over the same span:
  /// the sum of the computed trees' region sizes.
  std::uint64_t vertices_settled() const { return vertices_settled_; }

  /// Heap bytes reserved by the memoized trees, the transit index and the
  /// Dijkstra and walk scratch. The buffers are sized by vertex count on
  /// first use and then only reused, so a steady value across graph
  /// rebuilds proves allocation-free routing.
  std::size_t cache_capacity_bytes() const;

 private:
  /// Transit slots [begin, end): the lighter side of a bridge, entered from
  /// the rest of the graph only over `entry`, whose near end is the slot
  /// `begin`. A slot on the heavier side of every bridge has its whole
  /// connected component, with no entry.
  struct Region {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    LinkId entry = kInvalidLink;

    bool holds(std::uint32_t slot) const { return slot - begin < end - begin; }
  };

  /// The root's region, and per slot of it (indexed by slot - begin) the
  /// distance and the link towards the root, plus one spare slot so that a
  /// computed tree is never empty. The root's own slot holds
  /// {0, kInvalidLink}, which ends every climb.
  struct Sssp {
    Region region;
    std::vector<double> dist;
    std::vector<LinkId> parent_link;
  };

  /// Entry of the indexed 4-ary Dijkstra heap (key cached inline so sifts
  /// never chase the dist array). `slot` is an offset into the region.
  struct HeapEntry {
    double key;
    std::uint32_t slot;
  };

  /// Where a path starts, or continues past a bridge: a tree, entered after
  /// `lead` seconds. A leaf whose link leads to a transit vertex reads the
  /// tree rooted there and has its link as `access`; any other source reads
  /// its own (lead 0, no access link).
  struct Origin {
    const Sssp* tree;
    double lead;
    LinkId access;
  };

  /// One vertex of the index's depth-first search: its slot and the next
  /// arc to scan.
  struct DfsFrame {
    std::uint32_t slot;
    std::uint32_t arc;
  };

  /// transit_index_ value of a vertex with fewer than two links.
  static constexpr std::uint32_t kNotTransit = 0xffffffffu;
  /// transit_index_ value of a transit vertex the search has not reached.
  static constexpr std::uint32_t kUnnumbered = 0xfffffffeu;
  static constexpr double kUnreachable = std::numeric_limits<double>::infinity();

  /// Calls fn(link) for each link of the shortest path src -> dst, from dst
  /// back to src. No-op for src == dst or unreachable pairs.
  template <typename Fn>
  void walk_to_source(NodeId src, NodeId dst, Fn&& fn) const {
    if (src == dst) return;
    Origin o = origin(src);
    const LinkId access = o.access;
    NodeId at = dst;
    std::uint32_t slot = transit_index_[dst];
    LinkId tail = kInvalidLink;
    if (slot == kNotTransit) {
      // A leaf is entered through its one access link; an isolated vertex
      // and a leaf hanging off another leaf (other than src) are
      // unreachable.
      const std::span<const Graph::Arc> arcs = graph_.arcs(dst);
      if (arcs.empty()) return;
      if (arcs[0].to == src) {
        fn(arcs[0].link);
        return;
      }
      at = arcs[0].to;
      slot = transit_index_[at];
      if (slot == kNotTransit) return;
      tail = arcs[0].link;
    }
    chain_.clear();
    if (!reach(o, slot, &chain_)) return;
    if (tail != kInvalidLink) fn(tail);
    climb(*o.tree, at, fn);
    // Back over each bridge crossed, the source's own region last.
    for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
      const Sssp& t = **it;
      fn(t.region.entry);
      climb(t, transit_nodes_[t.region.begin], fn);
    }
    if (access != kInvalidLink) fn(access);
  }

  /// Calls fn(link) for each parent link of tree `t` from `at`, a vertex of
  /// its region, up to its root.
  template <typename Fn>
  void climb(const Sssp& t, NodeId at, Fn& fn) const {
    while (true) {
      const LinkId l = t.parent_link[transit_index_[at] - t.region.begin];
      if (l == kInvalidLink) return;
      fn(l);
      at = graph_.link(l).other(at);
    }
  }

  /// Resolves `src`'s origin, computing its root's tree on first use (and
  /// the transit index after an invalidation).
  Origin origin(NodeId src) const;
  /// Crosses entry bridges from `o` until its tree's region holds transit
  /// slot `slot`, appending each tree it leaves to `chain` if given. False
  /// if no region does: `slot` lies in another component.
  bool reach(Origin& o, std::uint32_t slot, std::vector<const Sssp*>* chain) const;
  /// The tree rooted at `root`, computed on first use.
  const Sssp& tree(NodeId root) const;
  void index_transit() const;
  /// Numbers the component of `root` in DFS preorder from slot `next` and
  /// returns the slot after it. Each slot's region is its DFS subtree,
  /// entered over the link it was reached by, and low_ marks the bridges
  /// (Tarjan): a slot whose subtree has no back edge above it, low_[s] == s,
  /// is the lower end of a bridge or the root.
  std::uint32_t number_component(NodeId root, std::uint32_t next) const;
  void recompute_tree(NodeId root, Sssp& sssp) const;
  void heap_sift_up(std::size_t pos) const;
  void heap_sift_down(std::size_t pos) const;

  const Graph& graph_;
  mutable std::uint64_t cached_version_ = ~0ull;
  mutable std::uint64_t trees_computed_ = 0;
  mutable std::uint64_t vertices_settled_ = 0;
  // Vertex -> transit slot in preorder (kNotTransit for the rest), slot ->
  // vertex, and each slot's innermost region. Empty until the first read
  // after an invalidation.
  mutable std::vector<std::uint32_t> transit_index_;
  mutable std::vector<NodeId> transit_nodes_;
  mutable std::vector<Region> regions_;
  // Depth-first search scratch of index_transit().
  mutable std::vector<std::uint32_t> low_;
  mutable std::vector<DfsFrame> dfs_;
  mutable std::vector<Sssp> trees_;  // dense, indexed by root vertex
  // Reusable indexed-heap state: entry array plus region offset -> heap
  // position back-pointers, enabling decrease-key instead of lazy
  // duplicates.
  mutable std::vector<HeapEntry> heap_;
  mutable std::vector<std::uint32_t> heap_pos_;
  // Path-walk scratch: the trees a walk crossed bridges from (reserved to
  // the bridge count when the index is built), and the links
  // for_each_link() reverses.
  mutable std::vector<const Sssp*> chain_;
  mutable std::vector<LinkId> path_scratch_;
};

}  // namespace vdm::net
