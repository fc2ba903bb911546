#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/matrix_underlay.hpp"
#include "util/rng.hpp"

namespace vdm::topo {

/// A population hub around which synthetic "PlanetLab sites" scatter.
struct GeoRegion {
  std::string_view name;
  double lat_deg;
  double lon_deg;
  double weight;  // relative share of hosts
};

/// Hub sets mirroring the dissertation's deployments: a US-only pool (the
/// VDM-vs-HMTP runs used ~140 US nodes, source in Colorado) and a
/// world-wide pool (the sample-tree figures with US + Europe clustering).
/// Both are views of one constant table (the world pool is the US pool plus
/// six overseas hubs), so reading them copies and allocates nothing.
std::span<const GeoRegion> us_regions();
std::span<const GeoRegion> world_regions();

struct GeoParams {
  std::size_t num_hosts = 100;
  /// Hubs to place hosts around; defaults to us_regions() when empty. A
  /// view: the table must outlive the make_geo call (the presets always do).
  std::span<const GeoRegion> regions;
  /// Scatter of a host around its hub, degrees of lat/lon (std. deviation).
  double scatter_deg = 2.5;
  /// Signal propagation speed in fiber, km/s (~2/3 c).
  double propagation_kms = 200000.0;
  /// Path-inflation factor range: real Internet routes are 1.3-2.5x longer
  /// than great-circle. Sampled once per host pair, symmetric.
  double inflation_min = 1.4, inflation_max = 2.4;
  /// Floor on one-way delay (local processing + last mile), seconds.
  double min_delay = 0.0005;
  /// Per-pair loss model: base + per-1000km component + noise, clamped.
  double loss_base = 0.0;
  double loss_per_1000km = 0.0;
  double loss_noise = 0.0;
  double loss_max = 0.05;
};

struct GeoHost {
  double lat_deg;
  double lon_deg;
  std::size_t region;  // index into params.regions
};

/// A PlanetLab-like latency space: host coordinates plus a symmetric
/// host-to-host delay/loss matrix exposed through the Underlay interface.
struct GeoTopology {
  std::vector<GeoHost> hosts;
  std::vector<std::string> region_names;
  net::MatrixUnderlay underlay;
};

/// Great-circle distance in km (haversine, Earth radius 6371 km).
double great_circle_km(double lat1, double lon1, double lat2, double lon2);

GeoTopology make_geo(const GeoParams& params, util::Rng& rng);

/// Arena variant: same draws as make_geo, but host placements and the n*n
/// delay/loss matrices land in the caller's buffers (resized in place,
/// capacity kept; `loss` is left empty for a loss-free model). The caller
/// seats the matrices via net::MatrixUnderlay::rebind (or the constructor).
void make_geo_into(const GeoParams& params, util::Rng& rng,
                   std::vector<GeoHost>& hosts, std::vector<double>& delay,
                   std::vector<double>& loss);

}  // namespace vdm::topo
