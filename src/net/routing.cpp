#include "net/routing.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace vdm::net {

namespace {
/// Arity of the Dijkstra heap — same shallow-tree tradeoff as the event
/// engine's slab heap.
constexpr std::size_t kHeapArity = 4;
/// heap_pos_ sentinels: never enqueued / already settled.
constexpr std::uint32_t kUnseen = 0xffffffffu;
constexpr std::uint32_t kSettled = 0xfffffffeu;
}  // namespace

void Router::heap_sift_up(std::size_t pos) const {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kHeapArity;
    if (heap_[parent].key <= e.key) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos].slot] = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  heap_pos_[e.slot] = static_cast<std::uint32_t>(pos);
}

void Router::heap_sift_down(std::size_t pos) const {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = pos * kHeapArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kHeapArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].key < heap_[best].key) best = c;
    }
    if (heap_[best].key >= e.key) break;
    heap_[pos] = heap_[best];
    heap_pos_[heap_[pos].slot] = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  heap_pos_[e.slot] = static_cast<std::uint32_t>(pos);
}

Router::Origin Router::origin(NodeId src) const {
  if (cached_version_ != graph_.version()) {
    clear_cache();
    cached_version_ = graph_.version();
  }
  const std::size_t n = graph_.num_nodes();
  VDM_REQUIRE(src < n);
  // Built lazily, so seating a topology costs nothing until its first read.
  if (transit_index_.empty()) index_transit();
  Origin o{nullptr, src, 0.0, kInvalidLink};
  if (transit_index_[src] == kNotTransit) {
    // Every path from a leaf leaves through its access link, so it reads
    // the tree of the router there. Adding the link's delay to every key of
    // that tree keeps every comparison on the delay grid, so a tree rooted
    // at the leaf itself would hold the same links.
    const std::span<const Graph::Arc> access = graph_.arcs(src);
    if (!access.empty() && transit_index_[access[0].to] != kNotTransit) {
      o = {nullptr, access[0].to, access[0].delay, access[0].link};
    }
  }
  if (trees_.size() < n) trees_.resize(n);
  Sssp& sssp = trees_[o.root];
  if (sssp.dist.empty()) recompute_tree(o.root, sssp);
  o.tree = &sssp;
  return o;
}

void Router::index_transit() const {
  const std::size_t n = graph_.num_nodes();
  transit_index_.assign(n, kNotTransit);
  transit_nodes_.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (graph_.degree(v) < 2) continue;
    transit_index_[v] = static_cast<std::uint32_t>(transit_nodes_.size());
    transit_nodes_.push_back(v);
  }
}

void Router::recompute_tree(NodeId root, Sssp& sssp) const {
  ++trees_computed_;
  const std::size_t t = transit_nodes_.size();

  // assign() reuses the previously grown capacity, so recomputing a tree
  // after an invalidation allocates nothing in steady state.
  sssp.dist.assign(t + 1, kUnreachable);
  sssp.parent_link.assign(t + 1, kInvalidLink);

  // Dijkstra over the transit vertices on an indexed 4-ary heap with
  // decrease-key: every vertex is in the heap at most once (no lazy
  // duplicates to pop and skip), and sifts touch a quarter of the levels a
  // binary heap would. Settled vertices (non-negative weights) can never
  // improve. Leaves never transit traffic, so their arcs are skipped: a
  // leaf's distance is read through its access link instead (delay()),
  // the same `neighbour's key + arc delay` sum the relaxation would store.
  heap_.clear();
  heap_pos_.assign(t, kUnseen);
  const std::uint32_t s = transit_index_[root];
  if (s != kNotTransit) {
    sssp.dist[s] = 0.0;
    heap_.push_back({0.0, s});
    heap_pos_[s] = 0;
  }
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    heap_pos_[top.slot] = kSettled;
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = tail;
      heap_pos_[tail.slot] = 0;
      heap_sift_down(0);
    }
    for (const Graph::Arc& arc : graph_.arcs(transit_nodes_[top.slot])) {
      const std::uint32_t to = transit_index_[arc.to];
      if (to == kNotTransit) continue;  // a leaf: read through its link
      const double nd = top.key + arc.delay;
      if (nd < sssp.dist[to]) {
        sssp.dist[to] = nd;
        sssp.parent_link[to] = arc.link;
        const std::uint32_t pos = heap_pos_[to];
        if (pos == kSettled) continue;  // defensive; cannot happen
        if (pos == kUnseen) {
          heap_.push_back({nd, to});
          heap_pos_[to] = static_cast<std::uint32_t>(heap_.size() - 1);
          heap_sift_up(heap_.size() - 1);
        } else {
          heap_[pos].key = nd;
          heap_sift_up(pos);
        }
      }
    }
  }
}

double Router::delay(NodeId src, NodeId dst) const {
  if (src == dst) return 0.0;
  const Origin o = origin(src);
  std::uint32_t slot = transit_index_[dst];
  double tail = 0.0;
  if (slot == kNotTransit) {
    // A leaf: its router's distance plus the access link; an isolated
    // vertex and a leaf hanging off another leaf (other than src) are
    // unreachable.
    const std::span<const Graph::Arc> access = graph_.arcs(dst);
    if (access.empty()) return kUnreachable;
    if (access[0].to == src) return access[0].delay;
    slot = transit_index_[access[0].to];
    if (slot == kNotTransit) return kUnreachable;
    tail = access[0].delay;
  }
  // Exact on the delay grid, so the grouping does not matter.
  return (o.lead + o.tree->dist[slot]) + tail;
}

std::vector<LinkId> Router::path(NodeId src, NodeId dst) const {
  std::vector<LinkId> links;
  for_each_link(src, dst, [&links](LinkId l) { links.push_back(l); });
  return links;
}

double Router::path_loss(NodeId src, NodeId dst) const {
  double deliver = 1.0;
  walk_to_source(src, dst,
                 [this, &deliver](LinkId l) { deliver *= 1.0 - graph_.link(l).loss; });
  return 1.0 - deliver;
}

void Router::clear_cache() const {
  // clear() keeps each buffer's capacity: recomputing allocates nothing.
  for (Sssp& t : trees_) {
    t.dist.clear();
    t.parent_link.clear();
  }
  transit_index_.clear();
  transit_nodes_.clear();
  trees_computed_ = 0;
}

std::size_t Router::cache_capacity_bytes() const {
  std::size_t bytes = trees_.capacity() * sizeof(Sssp) +
                      transit_index_.capacity() * sizeof(std::uint32_t) +
                      transit_nodes_.capacity() * sizeof(NodeId) +
                      heap_.capacity() * sizeof(HeapEntry) +
                      heap_pos_.capacity() * sizeof(std::uint32_t) +
                      path_scratch_.capacity() * sizeof(LinkId);
  for (const Sssp& t : trees_) {
    bytes += t.dist.capacity() * sizeof(double) +
             t.parent_link.capacity() * sizeof(LinkId);
  }
  return bytes;
}

}  // namespace vdm::net
