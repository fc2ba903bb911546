#include "metrics/tree_metrics.hpp"

#include <algorithm>

#include "util/require.hpp"
#include "util/stats.hpp"
#include "util/task_pool.hpp"

namespace vdm::metrics {

TreeMetrics measure_tree(const overlay::Membership& tree, net::HostId source,
                         const net::Underlay& underlay,
                         TreeMetricsScratch& scratch, int threads) {
  TreeMetrics out;
  const std::size_t num_hosts = tree.num_hosts();
  out.members = tree.alive_count();
  if (!tree.member(source).alive) return out;

  // Size the flat arrays once; capacity persists across captures. The new
  // epoch invalidates every per-link counter in O(1).
  ++scratch.epoch;
  if (scratch.link_count.size() < underlay.num_links()) {
    scratch.link_count.resize(underlay.num_links(), 0);
    scratch.link_epoch.resize(underlay.num_links(), 0);
  }
  if (scratch.overlay_delay.size() < num_hosts) {
    scratch.overlay_delay.resize(num_hosts, 0.0);
  }
  if (scratch.hops.size() < num_hosts) scratch.hops.resize(num_hosts, 0);
  scratch.links_touched.clear();
  scratch.order.clear();

  // Per-physical-link traversal counts over all overlay edges -> stress.
  std::size_t traversals = 0;
  const auto count_link = [&](net::LinkId l) {
    if (scratch.link_epoch[l] != scratch.epoch) {
      scratch.link_epoch[l] = scratch.epoch;
      scratch.link_count[l] = 1;
      scratch.links_touched.push_back(l);
    } else {
      ++scratch.link_count[l];
    }
    ++traversals;
  };

  // BFS down the tree collects the visit order (children-list walks only,
  // no underlay reads yet). order[i]'s tree parent is member(order[i]).parent.
  scratch.order.push_back(source);
  for (std::size_t i = 0; i < scratch.order.size(); ++i) {
    for (const net::HostId c : tree.member(scratch.order[i]).children) {
      scratch.order.push_back(c);
    }
  }

  // Pure pass: the two underlay reads per member (uplink edge delay, direct
  // source->host delay). On a coordinate substrate this arithmetic is the
  // bulk of a capture, so it fans out over the TaskPool when the underlay
  // allows concurrent reads; the values land in per-index slots and every
  // accumulation below runs serially in BFS order — bit-identical to the
  // serial pass for any thread count.
  const std::size_t n_order = scratch.order.size();
  scratch.edge_delay.resize(n_order);
  scratch.direct_delay.resize(n_order);
  const auto read_delays = [&](std::size_t i) {
    const net::HostId h = scratch.order[i];
    scratch.edge_delay[i] = underlay.delay(tree.member(h).parent, h);
    scratch.direct_delay[i] = underlay.delay(source, h);
  };
  if (threads != 1 && underlay.concurrent_reads() && n_order > 1) {
    util::TaskPool::global().for_n(
        n_order - 1, static_cast<std::size_t>(threads),
        [&](const util::TaskPool::Context& ctx) { read_delays(ctx.index + 1); });
  } else {
    for (std::size_t i = 1; i < n_order; ++i) read_delays(i);
  }

  // Serial accumulation in BFS order: overlay delays and hop counts
  // top-down, network usage, per-link stress counts (none on an underlay
  // without links, such as a coordinate one).
  const bool has_links = underlay.num_links() > 0;
  scratch.overlay_delay[source] = 0.0;
  scratch.hops[source] = 0;
  for (std::size_t i = 1; i < n_order; ++i) {
    const net::HostId c = scratch.order[i];
    const net::HostId p = tree.member(c).parent;
    scratch.overlay_delay[c] = scratch.overlay_delay[p] + scratch.edge_delay[i];
    scratch.hops[c] = scratch.hops[p] + 1;
    out.network_usage += scratch.edge_delay[i];
    if (has_links) underlay.for_each_path_link(p, c, count_link);
  }

  util::OnlineStats stretch_all, stretch_leaf, hops_all, hops_leaf;
  for (std::size_t i = 1; i < n_order; ++i) {
    const net::HostId h = scratch.order[i];
    const double direct = scratch.direct_delay[i];
    const double stretch = direct > 0.0 ? scratch.overlay_delay[h] / direct : 1.0;
    const auto hops = static_cast<double>(scratch.hops[h]);
    stretch_all.add(stretch);
    hops_all.add(hops);
    if (tree.member(h).children.empty()) {
      stretch_leaf.add(stretch);
      hops_leaf.add(hops);
    }
  }

  out.links_used = scratch.links_touched.size();
  if (!scratch.links_touched.empty()) {
    std::uint32_t max_count = 0;
    for (const net::LinkId l : scratch.links_touched) {
      max_count = std::max(max_count, scratch.link_count[l]);
    }
    out.stress_avg = static_cast<double>(traversals) /
                     static_cast<double>(scratch.links_touched.size());
    out.stress_max = static_cast<double>(max_count);
  }
  out.stretch_avg = stretch_all.mean();
  out.stretch_min = stretch_all.empty() ? 0.0 : stretch_all.min();
  out.stretch_max = stretch_all.empty() ? 0.0 : stretch_all.max();
  out.stretch_leaf_avg = stretch_leaf.mean();
  out.hop_avg = hops_all.mean();
  out.hop_max = hops_all.empty() ? 0.0 : hops_all.max();
  out.hop_leaf_avg = hops_leaf.mean();
  return out;
}

TreeMetrics measure_tree(const overlay::Membership& tree, net::HostId source,
                         const net::Underlay& underlay) {
  TreeMetricsScratch scratch;
  return measure_tree(tree, source, underlay, scratch);
}

}  // namespace vdm::metrics
