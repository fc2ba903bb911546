#include "net/routing.hpp"

#include <algorithm>
#include <limits>

#include "util/require.hpp"

namespace vdm::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
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
    heap_pos_[heap_[pos].node] = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  heap_pos_[e.node] = static_cast<std::uint32_t>(pos);
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
    heap_pos_[heap_[pos].node] = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  heap_pos_[e.node] = static_cast<std::uint32_t>(pos);
}

const Router::Sssp& Router::tree_for(NodeId src) const {
  if (cached_version_ != graph_.version()) {
    clear_cache();
    cached_version_ = graph_.version();
  }
  const std::size_t n = graph_.num_nodes();
  VDM_REQUIRE(src < n);
  if (trees_.size() < n) trees_.resize(n);
  Sssp& sssp = trees_[src];
  if (sssp.dist.empty()) recompute_tree(src, sssp);
  return sssp;
}

void Router::recompute_tree(NodeId src, Sssp& sssp) const {
  const std::size_t n = graph_.num_nodes();

  // assign() reuses the previously grown capacity, so recomputing a tree
  // after an invalidation allocates nothing in steady state.
  sssp.dist.assign(n, kInf);
  sssp.parent_link.assign(n, kInvalidLink);
  sssp.dist[src] = 0.0;

  // Dijkstra on an indexed 4-ary heap with decrease-key: every node is in
  // the heap at most once (no lazy duplicates to pop and skip), and sifts
  // touch a quarter of the levels a binary heap would. Two pruning rules
  // keep the heap small without changing any computed distance:
  //   - settled nodes (non-negative weights) can never improve, and
  //   - degree-1 nodes can never transit traffic, so their distance is
  //     final the moment their only neighbor relaxes them. Host leaves —
  //     the majority of vertices in generated topologies — therefore never
  //     enter the heap at all.
  // The relaxation arithmetic (`settled key + arc delay`, strict
  // improvement) is identical to the lazy-heap version, so distances and
  // parents are bit-for-bit unchanged.
  heap_.clear();
  heap_pos_.assign(n, kUnseen);
  heap_.push_back({0.0, src});
  heap_pos_[src] = 0;
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    heap_pos_[top.node] = kSettled;
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = tail;
      heap_pos_[tail.node] = 0;
      heap_sift_down(0);
    }
    for (const Graph::Arc& arc : graph_.arcs(top.node)) {
      const double nd = top.key + arc.delay;
      if (nd < sssp.dist[arc.to]) {
        sssp.dist[arc.to] = nd;
        sssp.parent_link[arc.to] = arc.link;
        const std::uint32_t pos = heap_pos_[arc.to];
        if (pos == kSettled) continue;       // defensive; cannot happen
        if (graph_.degree(arc.to) <= 1) continue;  // leaf: settled in place
        if (pos == kUnseen) {
          heap_.push_back({nd, arc.to});
          heap_pos_[arc.to] = static_cast<std::uint32_t>(heap_.size() - 1);
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
  return tree_for(src).dist[dst];
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
  // clear() keeps each tree's capacity: recomputing allocates nothing.
  for (Sssp& t : trees_) {
    t.dist.clear();
    t.parent_link.clear();
  }
}

std::size_t Router::cache_capacity_bytes() const {
  std::size_t bytes = trees_.capacity() * sizeof(Sssp) +
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
