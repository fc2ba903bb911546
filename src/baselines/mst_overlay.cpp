#include "baselines/mst_overlay.hpp"

#include "util/require.hpp"

namespace vdm::baselines {

topo::HostMetric rtt_metric(const net::Underlay& underlay) {
  return [&underlay](net::HostId a, net::HostId b) { return underlay.rtt(a, b); };
}

double overlay_tree_cost(const overlay::Membership& tree, net::HostId source,
                         const net::Underlay& underlay) {
  // Scans the member table directly instead of materializing alive_members():
  // this runs once per run_once on the arena's allocation-free path.
  double cost = 0.0;
  for (net::HostId h = 0; h < tree.num_hosts(); ++h) {
    const overlay::MemberState& m = tree.member(h);
    if (!m.alive || h == source || m.parent == net::kInvalidHost) continue;
    cost += underlay.rtt(h, m.parent);
  }
  return cost;
}

double mst_ratio(const overlay::Membership& tree, net::HostId source,
                 const net::Underlay& underlay) {
  topo::MstScratch scratch;
  return mst_ratio(tree, source, underlay, scratch);
}

double mst_ratio(const overlay::Membership& tree, net::HostId source,
                 const net::Underlay& underlay, topo::MstScratch& scratch) {
  scratch.members.clear();
  for (net::HostId h = 0; h < tree.num_hosts(); ++h) {
    if (tree.member(h).alive) scratch.members.push_back(h);
  }
  VDM_REQUIRE(!scratch.members.empty());
  const double mst = topo::prim_mst_cost(source, rtt_metric(underlay), scratch);
  if (mst <= 0.0) return 1.0;
  return overlay_tree_cost(tree, source, underlay) / mst;
}

}  // namespace vdm::baselines
