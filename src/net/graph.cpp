#include "net/graph.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace vdm::net {

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
  VDM_REQUIRE(delay > 0.0);
  VDM_REQUIRE(loss >= 0.0 && loss < 1.0);
  links_.push_back(Link{a, b, delay, loss});
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
  std::vector<char> seen;
  std::vector<NodeId> stack;
  return connected(seen, stack);
}

bool Graph::connected(std::vector<char>& seen, std::vector<NodeId>& stack) const {
  if (num_nodes_ <= 1) return true;
  seen.assign(num_nodes_, 0);
  stack.clear();
  stack.push_back(0);
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (const Arc& arc : arcs(n)) {
      if (!seen[arc.to]) {
        seen[arc.to] = 1;
        ++visited;
        stack.push_back(arc.to);
      }
    }
  }
  return visited == num_nodes_;
}

}  // namespace vdm::net
