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
  if (trees_.size() < n) trees_.resize(n);
  if (transit_index_[src] == kNotTransit) {
    // Every path from a leaf leaves through its access link, so it reads
    // the tree of the router there. Adding the link's delay to every key of
    // that tree keeps every comparison on the delay grid, so a tree rooted
    // at the leaf itself would hold the same links.
    const std::span<const Graph::Arc> access = graph_.arcs(src);
    if (!access.empty() && transit_index_[access[0].to] != kNotTransit) {
      return {&tree(access[0].to), access[0].delay, access[0].link};
    }
  }
  return {&tree(src), 0.0, kInvalidLink};
}

const Router::Sssp& Router::tree(NodeId root) const {
  Sssp& sssp = trees_[root];
  if (sssp.dist.empty()) recompute_tree(root, sssp);
  return sssp;
}

bool Router::reach(Origin& o, std::uint32_t slot,
                   std::vector<const Sssp*>* chain) const {
  while (!o.tree->region.holds(slot)) {
    const Region& region = o.tree->region;
    if (region.entry == kInvalidLink) return false;
    if (chain != nullptr) chain->push_back(o.tree);
    // Every path out of the region starts with the path to its head (slot
    // 0 of the tree) and the entry bridge, so it continues in the tree of
    // the bridge's far end. The sums are exact on the delay grid, so the
    // lead plus that tree's distances are a source-rooted tree's.
    const Link& bridge = graph_.link(region.entry);
    const NodeId gate = bridge.other(transit_nodes_[region.begin]);
    o = {&tree(gate), o.lead + o.tree->dist[0] + bridge.delay, kInvalidLink};
  }
  return true;
}

void Router::index_transit() const {
  const std::size_t n = graph_.num_nodes();
  transit_index_.assign(n, kNotTransit);
  std::size_t t = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (graph_.degree(v) < 2) continue;
    transit_index_[v] = kUnnumbered;
    ++t;
  }
  transit_nodes_.resize(t);
  regions_.resize(t);
  low_.resize(t);
  std::uint32_t next = 0;
  std::size_t bridges = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (transit_index_[v] != kUnnumbered) continue;
    const std::uint32_t begin = next;
    next = number_component(v, begin);
    // Re-root below the deepest bridge whose lower side holds more than
    // half the component, so that every bridge's lower side, its region,
    // is its lighter one. Such sides nest along one root path, so the
    // deepest is the one with the largest slot.
    const std::size_t size = next - begin;
    std::uint32_t heavy = begin;
    for (std::uint32_t s = begin + 1; s < next; ++s) {
      if (low_[s] == s && 2 * std::size_t{regions_[s].end - s} > size) heavy = s;
    }
    if (heavy != begin) {
      const NodeId root = transit_nodes_[heavy];
      for (std::uint32_t s = begin; s < next; ++s) {
        transit_index_[transit_nodes_[s]] = kUnnumbered;
      }
      number_component(root, begin);
    }
    // Innermost regions, in preorder: the lower side of a bridge is a
    // region of its own, and any other slot lies in its DFS parent's.
    for (std::uint32_t s = begin + 1; s < next; ++s) {
      if (low_[s] == s) {
        ++bridges;
        continue;
      }
      const NodeId up = graph_.link(regions_[s].entry).other(transit_nodes_[s]);
      regions_[s] = regions_[transit_index_[up]];
    }
  }
  // A walk crosses each bridge at most once.
  chain_.reserve(bridges);
}

std::uint32_t Router::number_component(NodeId root, std::uint32_t next) const {
  const auto enter = [this, &next](NodeId v, LinkId in) {
    transit_index_[v] = next;
    transit_nodes_[next] = v;
    regions_[next] = {next, next, in};
    low_[next] = next;
    dfs_.push_back({next, 0});
    ++next;
  };
  enter(root, kInvalidLink);
  while (!dfs_.empty()) {
    const std::uint32_t s = dfs_.back().slot;
    const std::span<const Graph::Arc> arcs = graph_.arcs(transit_nodes_[s]);
    if (dfs_.back().arc < arcs.size()) {
      const Graph::Arc& arc = arcs[dfs_.back().arc++];
      const std::uint32_t to = transit_index_[arc.to];
      // Only the link the search came in by is skipped: a parallel link to
      // the same parent is a back edge, so a doubled link is no bridge.
      if (to == kNotTransit || arc.link == regions_[s].entry) continue;
      if (to == kUnnumbered) {
        enter(arc.to, arc.link);
      } else {
        low_[s] = std::min(low_[s], to);
      }
      continue;
    }
    regions_[s].end = next;
    dfs_.pop_back();
    if (!dfs_.empty()) {
      const std::uint32_t up = dfs_.back().slot;
      low_[up] = std::min(low_[up], low_[s]);
    }
  }
  return next;
}

void Router::recompute_tree(NodeId root, Sssp& sssp) const {
  ++trees_computed_;
  const std::uint32_t s = transit_index_[root];
  // A root that is no transit vertex reaches none: its region is empty.
  sssp.region = s == kNotTransit ? Region{} : regions_[s];
  const std::uint32_t begin = sssp.region.begin;
  const std::size_t size = sssp.region.end - begin;

  // assign() reuses the previously grown capacity, so recomputing a tree
  // after an invalidation allocates nothing in steady state.
  sssp.dist.assign(size + 1, kUnreachable);
  sssp.parent_link.assign(size + 1, kInvalidLink);

  // Dijkstra over the region on an indexed 4-ary heap with decrease-key:
  // every vertex is in the heap at most once (no lazy duplicates to pop
  // and skip), and sifts touch a quarter of the levels a binary heap
  // would. Settled vertices (non-negative weights) can never improve.
  heap_.clear();
  heap_pos_.assign(size, kUnseen);
  if (s != kNotTransit) {
    sssp.dist[s - begin] = 0.0;
    heap_.push_back({0.0, s - begin});
    heap_pos_[s - begin] = 0;
  }
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    heap_pos_[top.slot] = kSettled;
    ++vertices_settled_;
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = tail;
      heap_pos_[tail.slot] = 0;
      heap_sift_down(0);
    }
    for (const Graph::Arc& arc : graph_.arcs(transit_nodes_[begin + top.slot])) {
      // Outside [0, size) after the shift (kNotTransit included): a leaf,
      // read through its link, or the far end of the region's entry
      // bridge, read through the tree there.
      const std::uint32_t to = transit_index_[arc.to] - begin;
      if (to >= size) continue;
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
  Origin o = origin(src);
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
  if (!reach(o, slot, nullptr)) return kUnreachable;
  // Exact on the delay grid, so the grouping does not matter.
  return (o.lead + o.tree->dist[slot - o.tree->region.begin]) + tail;
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
  regions_.clear();
  trees_computed_ = 0;
  vertices_settled_ = 0;
}

std::size_t Router::cache_capacity_bytes() const {
  std::size_t bytes = trees_.capacity() * sizeof(Sssp) +
                      transit_index_.capacity() * sizeof(std::uint32_t) +
                      transit_nodes_.capacity() * sizeof(NodeId) +
                      regions_.capacity() * sizeof(Region) +
                      low_.capacity() * sizeof(std::uint32_t) +
                      dfs_.capacity() * sizeof(DfsFrame) +
                      heap_.capacity() * sizeof(HeapEntry) +
                      heap_pos_.capacity() * sizeof(std::uint32_t) +
                      chain_.capacity() * sizeof(const Sssp*) +
                      path_scratch_.capacity() * sizeof(LinkId);
  for (const Sssp& t : trees_) {
    bytes += t.dist.capacity() * sizeof(double) +
             t.parent_link.capacity() * sizeof(LinkId);
  }
  return bytes;
}

}  // namespace vdm::net
