#include "topology/geo.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace vdm::topo {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kEarthRadiusKm = 6371.0;

double deg2rad(double d) { return d * kPi / 180.0; }

// The US hubs first, so the US pool is a prefix of the world pool.
constexpr GeoRegion kWorldRegions[] = {
    {"US-West", 37.4, -122.1, 2.0},     // Bay Area
    {"US-Northwest", 47.6, -122.3, 1.0},
    {"US-Mountain", 39.7, -105.0, 1.0},  // Colorado (the paper's source)
    {"US-Central", 41.9, -87.6, 1.5},    // Chicago
    {"US-South", 32.8, -96.8, 1.0},      // Dallas
    {"US-East", 40.7, -74.0, 2.0},       // NYC corridor
    {"US-Southeast", 33.7, -84.4, 1.0},  // Atlanta
    {"EU-West", 51.5, -0.1, 1.5},        // London
    {"EU-Central", 48.1, 11.6, 1.5},     // Munich
    {"EU-North", 59.3, 18.1, 0.7},       // Stockholm
    {"Asia-East", 35.7, 139.7, 1.0},     // Tokyo
    {"Asia-South", 1.35, 103.8, 0.5},    // Singapore
    {"Oceania", -33.9, 151.2, 0.4},      // Sydney
};
constexpr std::size_t kUsRegionCount = 7;

}  // namespace

std::span<const GeoRegion> us_regions() {
  return std::span(kWorldRegions).first(kUsRegionCount);
}

std::span<const GeoRegion> world_regions() { return kWorldRegions; }

double great_circle_km(double lat1, double lon1, double lat2, double lon2) {
  const double phi1 = deg2rad(lat1);
  const double phi2 = deg2rad(lat2);
  const double dphi = deg2rad(lat2 - lat1);
  const double dlambda = deg2rad(lon2 - lon1);
  const double a = std::sin(dphi / 2) * std::sin(dphi / 2) +
                   std::cos(phi1) * std::cos(phi2) * std::sin(dlambda / 2) * std::sin(dlambda / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(a)));
}

GeoTopology make_geo(const GeoParams& params, util::Rng& rng) {
  std::vector<GeoHost> hosts;
  std::vector<double> delay;
  std::vector<double> loss;
  make_geo_into(params, rng, hosts, delay, loss);

  const std::span<const GeoRegion> regions =
      params.regions.empty() ? us_regions() : params.regions;
  std::vector<std::string> region_names;
  region_names.reserve(regions.size());
  for (const auto& r : regions) region_names.emplace_back(r.name);

  const std::size_t n = params.num_hosts;
  return GeoTopology{std::move(hosts), std::move(region_names),
                     net::MatrixUnderlay(n, std::move(delay), std::move(loss))};
}

void make_geo_into(const GeoParams& params, util::Rng& rng,
                   std::vector<GeoHost>& hosts, std::vector<double>& delay,
                   std::vector<double>& loss) {
  VDM_REQUIRE(params.num_hosts >= 2);
  const std::span<const GeoRegion> regions =
      params.regions.empty() ? us_regions() : params.regions;
  double total_weight = 0.0;
  for (const auto& r : regions) total_weight += r.weight;
  VDM_REQUIRE(total_weight > 0.0);

  hosts.clear();
  hosts.reserve(params.num_hosts);
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
    hosts.push_back(GeoHost{
        regions[region].lat_deg + rng.normal(0.0, params.scatter_deg),
        regions[region].lon_deg + rng.normal(0.0, params.scatter_deg),
        region,
    });
  }

  const std::size_t n = params.num_hosts;
  delay.assign(n * n, 0.0);
  loss.assign(n * n, 0.0);
  bool any_loss = false;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double km = great_circle_km(hosts[a].lat_deg, hosts[a].lon_deg,
                                        hosts[b].lat_deg, hosts[b].lon_deg);
      const double inflation = rng.uniform(params.inflation_min, params.inflation_max);
      const double d = std::max(params.min_delay, km * inflation / params.propagation_kms);
      delay[a * n + b] = delay[b * n + a] = d;
      double l = params.loss_base + params.loss_per_1000km * km / 1000.0;
      if (params.loss_noise > 0.0) l += rng.uniform(0.0, params.loss_noise);
      l = std::clamp(l, 0.0, params.loss_max);
      loss[a * n + b] = loss[b * n + a] = l;
      if (l > 0.0) any_loss = true;
    }
  }
  if (!any_loss) loss.clear();  // clear() keeps capacity for the next reuse
}

}  // namespace vdm::topo
