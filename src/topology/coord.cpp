#include "topology/coord.hpp"

#include <utility>

#include "util/require.hpp"

namespace vdm::topo {

void make_coord_into(const CoordParams& params, util::Rng& rng,
                     std::vector<double>& x, std::vector<double>& y) {
  VDM_REQUIRE(params.num_hosts >= 2);
  x.clear();
  y.clear();
  x.reserve(params.num_hosts);
  y.reserve(params.num_hosts);

  if (params.space == CoordSpace::kPlane) {
    VDM_REQUIRE(params.plane_side_km > 0.0);
    for (std::size_t h = 0; h < params.num_hosts; ++h) {
      x.push_back(rng.uniform(0.0, params.plane_side_km));
      y.push_back(rng.uniform(0.0, params.plane_side_km));
    }
    return;
  }

  // Geo mode: make_geo_into's host placement, so coordinate-substrate
  // pools cluster like the PlanetLab-style ones do.
  const HubScatter scatter(params.regions, params.scatter_deg);
  for (std::size_t h = 0; h < params.num_hosts; ++h) {
    const GeoHost host = scatter.draw(rng);
    x.push_back(host.lat_deg);
    y.push_back(host.lon_deg);
  }
}

net::CoordUnderlay make_coord(const CoordParams& params, util::Rng& rng,
                              net::CoordUnderlay::Params underlay_params) {
  underlay_params.space = params.space == CoordSpace::kGeo
                              ? net::CoordUnderlay::Space::kSpherical
                              : net::CoordUnderlay::Space::kEuclidean;
  std::vector<double> x;
  std::vector<double> y;
  make_coord_into(params, rng, x, y);
  return net::CoordUnderlay(underlay_params, std::move(x), std::move(y));
}

}  // namespace vdm::topo
