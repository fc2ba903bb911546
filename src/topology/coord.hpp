#pragma once

#include <span>
#include <vector>

#include "net/coord_underlay.hpp"
#include "topology/geo.hpp"
#include "util/rng.hpp"

namespace vdm::topo {

/// Which embedded space make_coord_into draws host coordinates in.
enum class CoordSpace {
  kGeo,    ///< lat/lon placements around population hubs (the geo model)
  kPlane,  ///< uniform placements in a km square (synthetic, for large N)
};

struct CoordParams {
  std::size_t num_hosts = 100;
  CoordSpace space = CoordSpace::kGeo;
  /// kGeo: population hubs (defaults to us_regions()) and per-host scatter —
  /// exactly the placement model of make_geo_into, minus the O(N²) matrix
  /// fill that follows it there. A view, like GeoParams::regions.
  std::span<const GeoRegion> regions;
  double scatter_deg = 2.5;
  /// kPlane: hosts land uniformly in a square of this side length, km
  /// (continental scale by default).
  double plane_side_km = 6000.0;
};

/// Draws per-host coordinates into the parallel arrays `x`/`y` (lat/lon
/// degrees for kGeo, km for kPlane), resized in place with capacity kept.
/// O(N): two or three rng draws per host and zero pairwise state, so a
/// million-host pool builds in milliseconds.
void make_coord_into(const CoordParams& params, util::Rng& rng,
                     std::vector<double>& x, std::vector<double>& y);

/// Convenience: coordinates plus a ready CoordUnderlay. The underlay's
/// coordinate space is forced to match `params.space` (spherical for kGeo,
/// Euclidean for kPlane); the remaining `underlay_params` knobs pass through.
net::CoordUnderlay make_coord(const CoordParams& params, util::Rng& rng,
                              net::CoordUnderlay::Params underlay_params = {});

}  // namespace vdm::topo
