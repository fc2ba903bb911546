#include "net/graph_underlay.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace vdm::net {

namespace {

bool all_links_lossless(const Graph& graph) {
  return std::all_of(graph.links().begin(), graph.links().end(),
                     [](const Link& l) { return l.loss == 0.0; });
}

}  // namespace

GraphUnderlay::GraphUnderlay(Graph graph, std::vector<NodeId> hosts)
    : graph_(std::move(graph)), hosts_(std::move(hosts)), router_(graph_),
      zero_loss_(all_links_lossless(graph_)) {
  VDM_REQUIRE_MSG(!hosts_.empty(), "an underlay needs at least one host");
  for (const NodeId v : hosts_) VDM_REQUIRE(v < graph_.num_nodes());
}

const Router::PathStats& GraphUnderlay::pair(HostId a, HostId b) const {
  VDM_REQUIRE(a < hosts_.size() && b < hosts_.size());
  if (cached_version_ != graph_.version()) {
    ++epoch_;  // O(1) invalidation of every cached pair
    cached_version_ = graph_.version();
    const std::size_t n = hosts_.size();
    const std::size_t want = n * (n - 1) / 2;
    if (pair_stats_.size() != want) {
      // First use, or a rebind() changed the host count. assign() keeps the
      // previously grown capacity, so same-sized rebuilds are free.
      pair_stats_.resize(want);
      pair_epoch_.assign(want, 0);
    }
  }
  const std::size_t i = pair_index(a, b);
  if (pair_epoch_[i] != epoch_) {
    // Canonical low -> high orientation: on an undirected graph both
    // directions traverse the same links, so caching one makes the result
    // deterministic in query order and exactly symmetric (the reverse walk
    // could differ in the last ulps of the delay sum / loss product).
    const HostId lo = a < b ? a : b;
    const HostId hi = a < b ? b : a;
    pair_stats_[i] = router_.path_stats(hosts_.at(lo), hosts_.at(hi));
    pair_epoch_[i] = epoch_;
  }
  return pair_stats_[i];
}

std::vector<LinkId> GraphUnderlay::path(HostId a, HostId b) const {
  return router_.path(hosts_.at(a), hosts_.at(b));
}

void GraphUnderlay::for_each_path_link(HostId a, HostId b,
                                       util::FunctionRef<void(LinkId)> visit) const {
  router_.for_each_link(hosts_.at(a), hosts_.at(b),
                        [&visit](LinkId l) { visit(l); });
}

void GraphUnderlay::release(Graph& graph_out, std::vector<NodeId>& hosts_out) {
  graph_out = std::move(graph_);
  hosts_out = std::move(hosts_);
  // graph_ / hosts_ are now empty husks; router_ still references the
  // graph_ member object (stable address), so rebind() revives everything.
}

void GraphUnderlay::rebind(Graph graph, std::vector<NodeId> hosts) {
  graph_ = std::move(graph);
  hosts_ = std::move(hosts);
  VDM_REQUIRE_MSG(!hosts_.empty(), "an underlay needs at least one host");
  for (const NodeId v : hosts_) VDM_REQUIRE(v < graph_.num_nodes());
  // The rebuilt graph carries a strictly newer version (Graph::clear bumps
  // it), so the router cache and the pair cache invalidate lazily on first
  // query; forcing it here keeps rebind() robust even against an identical
  // version (e.g. a caller that swapped in a fresh Graph object).
  router_.clear_cache();
  cached_version_ = ~0ull;
  zero_loss_ = all_links_lossless(graph_);
}

std::size_t GraphUnderlay::arena_capacity_bytes() const {
  return graph_.capacity_bytes() + router_.cache_capacity_bytes() +
         hosts_.capacity() * sizeof(NodeId) +
         pair_stats_.capacity() * sizeof(Router::PathStats) +
         pair_epoch_.capacity() * sizeof(std::uint64_t);
}

}  // namespace vdm::net
