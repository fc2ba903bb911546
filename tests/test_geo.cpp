#include "topology/geo.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace vdm::topo {
namespace {

TEST(GreatCircle, KnownDistances) {
  // SF (37.77,-122.42) to NYC (40.71,-74.01): ~4130 km.
  EXPECT_NEAR(great_circle_km(37.77, -122.42, 40.71, -74.01), 4130.0, 60.0);
  // London to Tokyo: ~9560 km.
  EXPECT_NEAR(great_circle_km(51.51, -0.13, 35.68, 139.69), 9560.0, 100.0);
}

TEST(GreatCircle, ZeroForSamePoint) {
  EXPECT_NEAR(great_circle_km(10.0, 20.0, 10.0, 20.0), 0.0, 1e-9);
}

TEST(GreatCircle, Symmetric) {
  EXPECT_NEAR(great_circle_km(1.0, 2.0, 50.0, 60.0),
              great_circle_km(50.0, 60.0, 1.0, 2.0), 1e-9);
}

TEST(GeoRegions, PresetsNonEmptyAndDistinct) {
  const auto us = us_regions();
  const auto world = world_regions();
  EXPECT_GE(us.size(), 5u);
  EXPECT_GT(world.size(), us.size());  // world includes the US hubs
}

TEST(Geo, BuildsRequestedHostCount) {
  util::Rng rng(1);
  GeoParams p;
  p.num_hosts = 50;
  const GeoTopology t = make_geo(p, rng);
  EXPECT_EQ(t.hosts.size(), 50u);
  EXPECT_EQ(t.underlay.num_hosts(), 50u);
}

TEST(Geo, RegionsAssignedWithinBounds) {
  util::Rng rng(2);
  GeoParams p;
  p.num_hosts = 80;
  p.regions = world_regions();
  const GeoTopology t = make_geo(p, rng);
  EXPECT_EQ(t.region_names.size(), p.regions.size());
  for (const GeoHost& h : t.hosts) EXPECT_LT(h.region, p.regions.size());
}

TEST(Geo, DelaysPositiveSymmetricWithFloor) {
  util::Rng rng(3);
  GeoParams p;
  p.num_hosts = 20;
  const GeoTopology t = make_geo(p, rng);
  for (net::HostId a = 0; a < 20; ++a) {
    for (net::HostId b = 0; b < 20; ++b) {
      if (a == b) continue;
      EXPECT_GE(t.underlay.delay(a, b), p.min_delay);
      EXPECT_DOUBLE_EQ(t.underlay.delay(a, b), t.underlay.delay(b, a));
    }
  }
}

TEST(Geo, CrossContinentSlowerThanLocal) {
  util::Rng rng(4);
  GeoParams p;
  p.num_hosts = 120;
  p.regions = world_regions();
  const GeoTopology t = make_geo(p, rng);
  // Average intra-region delay must be well below average US<->Asia delay.
  double local_sum = 0.0, far_sum = 0.0;
  std::size_t local_n = 0, far_n = 0;
  for (net::HostId a = 0; a < 120; ++a) {
    for (net::HostId b = a + 1; b < 120; ++b) {
      const auto& ra = t.region_names[t.hosts[a].region];
      const auto& rb = t.region_names[t.hosts[b].region];
      if (t.hosts[a].region == t.hosts[b].region) {
        local_sum += t.underlay.delay(a, b);
        ++local_n;
      } else if ((ra.rfind("US", 0) == 0 && rb.rfind("Asia", 0) == 0) ||
                 (ra.rfind("Asia", 0) == 0 && rb.rfind("US", 0) == 0)) {
        far_sum += t.underlay.delay(a, b);
        ++far_n;
      }
    }
  }
  ASSERT_GT(local_n, 0u);
  ASSERT_GT(far_n, 0u);
  EXPECT_LT(local_sum / static_cast<double>(local_n),
            0.5 * far_sum / static_cast<double>(far_n));
}

TEST(Geo, LossModelProducesBoundedLoss) {
  util::Rng rng(5);
  GeoParams p;
  p.num_hosts = 25;
  p.loss_base = 0.005;
  p.loss_per_1000km = 0.002;
  p.loss_noise = 0.01;
  p.loss_max = 0.04;
  const GeoTopology t = make_geo(p, rng);
  bool any = false;
  for (net::HostId a = 0; a < 25; ++a) {
    for (net::HostId b = a + 1; b < 25; ++b) {
      const double l = t.underlay.loss(a, b);
      EXPECT_GE(l, 0.0);
      EXPECT_LE(l, 0.04);
      any = any || l > 0.0;
    }
  }
  EXPECT_TRUE(any);
}

TEST(Geo, NoLossParamsMeansZeroLoss) {
  util::Rng rng(6);
  GeoParams p;
  p.num_hosts = 10;
  const GeoTopology t = make_geo(p, rng);
  for (net::HostId a = 0; a < 10; ++a) {
    for (net::HostId b = 0; b < 10; ++b) {
      if (a != b) {
        EXPECT_DOUBLE_EQ(t.underlay.loss(a, b), 0.0);
      }
    }
  }
}

TEST(Geo, DeterministicForSameSeed) {
  GeoParams p;
  p.num_hosts = 15;
  util::Rng r1(7), r2(7);
  const GeoTopology a = make_geo(p, r1);
  const GeoTopology b = make_geo(p, r2);
  for (net::HostId x = 0; x < 15; ++x) {
    EXPECT_DOUBLE_EQ(a.hosts[x].lat_deg, b.hosts[x].lat_deg);
    for (net::HostId y = 0; y < 15; ++y) {
      if (x != y) {
        EXPECT_DOUBLE_EQ(a.underlay.delay(x, y), b.underlay.delay(x, y));
      }
    }
  }
}

TEST(Geo, RejectsTooFewHosts) {
  util::Rng rng(8);
  GeoParams p;
  p.num_hosts = 1;
  EXPECT_THROW(make_geo(p, rng), util::InvariantError);
}

}  // namespace
}  // namespace vdm::topo
