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

  // Geo mode: the same weighted-hub pick + normal scatter that
  // make_geo_into uses for host placement, so coordinate-substrate pools
  // cluster like the PlanetLab-style ones do.
  const std::span<const GeoRegion> regions =
      params.regions.empty() ? us_regions() : params.regions;
  double total_weight = 0.0;
  for (const auto& r : regions) total_weight += r.weight;
  VDM_REQUIRE(total_weight > 0.0);

  for (std::size_t h = 0; h < params.num_hosts; ++h) {
    double pick = rng.uniform(0.0, total_weight);
    std::size_t region = 0;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      pick -= regions[r].weight;
      if (pick <= 0.0) {
        region = r;
        break;
      }
    }
    x.push_back(regions[region].lat_deg + rng.normal(0.0, params.scatter_deg));
    y.push_back(regions[region].lon_deg + rng.normal(0.0, params.scatter_deg));
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
