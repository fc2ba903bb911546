#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/underlay.hpp"
#include "overlay/membership.hpp"

namespace vdm::metrics {

/// Structural quality of the overlay tree at one instant — the paper's
/// §3.6.3 / §5.3 definitions.
struct TreeMetrics {
  /// Alive members including the source.
  std::size_t members = 0;

  /// Stress: identical-packet transmissions per used physical link.
  /// avg = total traversals / distinct used links (Equation 3.4); 1.0 is
  /// the IP-multicast optimum.
  double stress_avg = 0.0;
  double stress_max = 0.0;
  std::size_t links_used = 0;

  /// Stretch: overlay source->member delay over direct unicast delay
  /// (Equation 3.5); 1.0 is the unicast optimum. Leaf-average and max are
  /// the worst-case views of Figures 5.16/5.23.
  double stretch_avg = 0.0;
  double stretch_min = 0.0;
  double stretch_max = 0.0;
  double stretch_leaf_avg = 0.0;

  /// Overlay hops from the source (Figures 5.10/5.17/5.24).
  double hop_avg = 0.0;
  double hop_max = 0.0;
  double hop_leaf_avg = 0.0;

  /// Network usage: sum of one-way underlay delays over all tree edges —
  /// the total "length" of consumed paths (§5.3), the quantity compared
  /// against the MST.
  double network_usage = 0.0;
};

/// Reusable working memory for measure_tree. The per-link traversal
/// counters are epoch-stamped flat arrays (no clearing between captures,
/// no hashing), and every buffer keeps its capacity across calls, so a
/// capture loop performs zero heap allocations once warmed up. One scratch
/// serves one measurement consumer (Collector owns one); it carries no
/// state between calls beyond capacity.
struct TreeMetricsScratch {
  std::vector<std::uint32_t> link_count;   // traversals per LinkId this epoch
  std::vector<std::uint64_t> link_epoch;   // validity stamp per LinkId
  std::vector<net::LinkId> links_touched;  // distinct links hit this epoch
  std::vector<double> overlay_delay;       // source->host delay per HostId
  std::vector<std::uint32_t> hops;         // source->host hop count per HostId
  std::vector<net::HostId> order;          // BFS visit order
  /// Per-order-index underlay reads (uplink edge delay, direct
  /// source->host delay) — the pure pass the parallel capture fans out.
  std::vector<double> edge_delay;
  std::vector<double> direct_delay;
  std::uint64_t epoch = 0;
};

/// Measures the current tree. Members that are mid-reconnection (detached)
/// are excluded from path metrics, as the paper measures settled trees.
///
/// `threads` != 1 fans the per-member underlay reads (uplink and direct
/// delays — the dominant cost on a coordinate substrate) over the shared
/// TaskPool when the underlay supports concurrent reads; every accumulation
/// stays serial in BFS order, so the result is bit-identical for any thread
/// count (0 = hardware concurrency).
TreeMetrics measure_tree(const overlay::Membership& tree, net::HostId source,
                         const net::Underlay& underlay,
                         TreeMetricsScratch& scratch, int threads = 1);

/// Convenience overload with a throwaway scratch (allocates; fine for tests
/// and one-off measurements, not for capture loops).
TreeMetrics measure_tree(const overlay::Membership& tree, net::HostId source,
                         const net::Underlay& underlay);

}  // namespace vdm::metrics
