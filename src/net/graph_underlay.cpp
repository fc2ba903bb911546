#include "net/graph_underlay.hpp"

#include <algorithm>
#include <cmath>

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

GraphUnderlay::PairMemo& GraphUnderlay::memo(HostId lo, HostId hi) const {
  const std::size_t n = hosts_.size();
  VDM_REQUIRE(lo < hi && hi < n);
  // resize() from empty keeps the capacity an earlier same-sized topology
  // grew, so refilling after a rebind() allocates nothing.
  if (pairs_.empty()) pairs_.resize(n * (n - 1) / 2);
  return pairs_[static_cast<std::size_t>(lo) * n -
                static_cast<std::size_t>(lo) * (lo + 1) / 2 + (hi - lo - 1)];
}

// Both reads use the canonical low -> high orientation, so reading one
// makes the value exactly symmetric. Delays would agree anyway (every sum
// is exact on the Graph's delay grid), but the reverse tree may break a
// tie for another path, or multiply the same losses in another order.

sim::Time GraphUnderlay::delay(HostId a, HostId b) const {
  if (a == b) return 0.0;
  if (a > b) std::swap(a, b);
  VDM_REQUIRE(b < hosts_.size());
  return router_.delay(hosts_[a], hosts_[b]);
}

double GraphUnderlay::loss(HostId a, HostId b) const {
  if (a == b) return 0.0;
  if (a > b) std::swap(a, b);
  PairMemo& m = memo(a, b);
  if (std::isnan(m.loss)) m.loss = router_.path_loss(hosts_[a], hosts_[b]);
  return m.loss;
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
  // Cleared here rather than on a version change: a caller may swap in a
  // fresh Graph object whose version matches the old one. The router drops
  // its transit index with its trees and rebuilds both on the next read.
  router_.clear_cache();
  pairs_.clear();
  zero_loss_ = all_links_lossless(graph_);
}

std::size_t GraphUnderlay::arena_capacity_bytes() const {
  return graph_.capacity_bytes() + router_.cache_capacity_bytes() +
         hosts_.capacity() * sizeof(NodeId) +
         pairs_.capacity() * sizeof(PairMemo);
}

}  // namespace vdm::net
