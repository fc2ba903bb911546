#pragma once

#include "net/underlay.hpp"
#include "overlay/membership.hpp"
#include "topology/mst.hpp"

namespace vdm::baselines {

/// Centralized minimum-spanning-tree reference (§5.4.6): an oracle that
/// sees all pairwise RTTs at once — the bound VDM "tries to converge to
/// with local and simplistic methods".

/// RTT metric over an underlay, usable with the MST routines.
topo::HostMetric rtt_metric(const net::Underlay& underlay);

/// Cost (sum of RTTs over parent-child edges) of the current overlay tree
/// spanning exactly the alive members of `tree` rooted at `source`.
double overlay_tree_cost(const overlay::Membership& tree, net::HostId source,
                         const net::Underlay& underlay);

/// overlay_tree_cost over the cost of the exact, degree-unconstrained MST
/// spanning the same alive members: the Figure 5.31 y-axis (>= 1).
double mst_ratio(const overlay::Membership& tree, net::HostId source,
                 const net::Underlay& underlay);

/// Same ratio through a caller-owned scratch (member gather plus Prim label
/// arrays): allocation-free once the scratch is warm. The plain overload
/// runs this one on a local scratch.
double mst_ratio(const overlay::Membership& tree, net::HostId source,
                 const net::Underlay& underlay, topo::MstScratch& scratch);

}  // namespace vdm::baselines
