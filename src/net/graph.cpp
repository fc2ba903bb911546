#include "net/graph.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/require.hpp"

namespace vdm::net {

namespace {

/// `d` rounded to the nearest multiple of Graph::kDelayStep, ties to even,
/// for 0 <= d < 2^22 (larger d give 2^22 or more). Adding 2^52 to
/// d / step leaves no bits below the units, so the sum rounds there;
/// subtracting 2^52 back and scaling are exact. No libm call, and
/// -ffp-contract=off keeps it free of FMA.
double to_delay_grid(double d) {
  return ((d * 0x1p30 + 0x1p52) - 0x1p52) * Graph::kDelayStep;
}

}  // namespace

UnionFind::UnionFind(std::vector<NodeId>& parent, std::size_t n)
    : parent_(parent), sets_(n) {
  parent_.resize(n);
  std::iota(parent_.begin(), parent_.end(), NodeId{0});
}

NodeId UnionFind::find(NodeId x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(NodeId a, NodeId b) {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  parent_[a] = b;
  --sets_;
  return true;
}

NodeId Graph::add_node() {
  mark_structural();
  return static_cast<NodeId>(num_nodes_++);
}

NodeId Graph::add_nodes(std::size_t count) {
  VDM_REQUIRE(count > 0);
  const auto first = static_cast<NodeId>(num_nodes_);
  num_nodes_ += count;
  mark_structural();
  return first;
}

LinkId Graph::add_link(NodeId a, NodeId b, double delay, double loss) {
  VDM_REQUIRE(a < num_nodes_ && b < num_nodes_);
  VDM_REQUIRE_MSG(a != b, "self-loops are not physical links");
  VDM_REQUIRE_MSG(std::isfinite(delay) && delay > 0.0,
                  "link delay must be finite and > 0");
  VDM_REQUIRE(loss >= 0.0 && loss < 1.0);
  // Rounding is monotone and maps 2^22 to itself, so this one check also
  // rejects a delay past the rounding form's range.
  const double stored = std::max(to_delay_grid(delay), kDelayStep);
  VDM_REQUIRE_MSG(delay_sum_ + stored < kDelaySumLimit,
                  "link delay would bring the graph's summed delay to 2^22 s");
  delay_sum_ += stored;
  links_.push_back(Link{a, b, stored, loss});
  mark_structural();
  return static_cast<LinkId>(links_.size() - 1);
}

void Graph::mark_structural() {
  adjacency_dirty_ = true;
  ++version_;
}

std::span<const Graph::Arc> Graph::arcs(NodeId n) const {
  VDM_REQUIRE(n < num_nodes_);
  if (adjacency_dirty_) rebuild_adjacency();
  return {arcs_.data() + offsets_[n], offsets_[n + 1] - offsets_[n]};
}

void Graph::rebuild_adjacency() const {
  offsets_.assign(num_nodes_ + 1, 0);
  for (const Link& l : links_) {
    ++offsets_[l.a + 1];
    ++offsets_[l.b + 1];
  }
  for (std::size_t i = 1; i <= num_nodes_; ++i) offsets_[i] += offsets_[i - 1];
  arcs_.resize(2 * links_.size());
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (LinkId id = 0; id < links_.size(); ++id) {
    const Link& l = links_[id];
    arcs_[cursor_[l.a]++] = Arc{l.b, id, l.delay};
    arcs_[cursor_[l.b]++] = Arc{l.a, id, l.delay};
  }
  adjacency_dirty_ = false;
}

void Graph::clear() {
  num_nodes_ = 0;
  links_.clear();
  delay_sum_ = 0.0;
  offsets_.clear();
  arcs_.clear();
  mark_structural();
}

std::size_t Graph::capacity_bytes() const {
  return links_.capacity() * sizeof(Link) +
         offsets_.capacity() * sizeof(std::size_t) +
         arcs_.capacity() * sizeof(Arc) +
         cursor_.capacity() * sizeof(std::size_t);
}

bool Graph::connected() const {
  std::vector<NodeId> parent;
  return connected(parent);
}

bool Graph::connected(std::vector<NodeId>& parent) const {
  if (num_nodes_ <= 1) return true;
  UnionFind sets(parent, num_nodes_);
  for (const Link& l : links_) {
    if (sets.unite(l.a, l.b) && sets.sets() == 1) return true;
  }
  return false;
}

}  // namespace vdm::net
