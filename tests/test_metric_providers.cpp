#include "overlay/metric.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "helpers.hpp"
#include "sim/simulator.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {
namespace {

net::MatrixUnderlay lossy_pair(double loss01) {
  std::vector<double> d{0.0, 0.010, 0.010, 0.0};
  std::vector<double> l{0.0, loss01, loss01, 0.0};
  return net::MatrixUnderlay(2, std::move(d), std::move(l));
}

TEST(DelayMetric, ExactWithoutNoise) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 25.0});
  DelayMetric m;
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(m.measure(u, 0, 1, rng), 10.0);
  EXPECT_DOUBLE_EQ(m.measure(u, 0, 2, rng), 25.0);
  EXPECT_DOUBLE_EQ(m.measurement_time(u, 0, 2), 25.0);
  EXPECT_EQ(m.messages_per_measurement(), 2);
}

TEST(DelayMetric, NoiseIsUnbiasedAndBounded) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0});
  DelayMetric m(0.1);
  util::Rng rng(2);
  double sum = 0.0;
  bool varied = false;
  double first = -1.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = m.measure(u, 0, 1, rng);
    EXPECT_GT(v, 0.0);
    if (first < 0.0) {
      first = v;
    } else if (v != first) {
      varied = true;
    }
    sum += v;
  }
  EXPECT_TRUE(varied);
  EXPECT_NEAR(sum / kN, 10.0, 0.1);
}

TEST(LossMetric, ZeroLossGivesOnlyTiebreak) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0});
  LossMetric m(/*probes=*/10, /*spacing=*/0.01, /*tiebreak=*/1e-3);
  util::Rng rng(3);
  EXPECT_DOUBLE_EQ(m.measure(u, 0, 1, rng), 1e-3 * 10.0);
}

TEST(LossMetric, HigherLossMeansLargerDistanceOnAverage) {
  const net::MatrixUnderlay low = lossy_pair(0.05);
  const net::MatrixUnderlay high = lossy_pair(0.30);
  LossMetric m(20);
  util::Rng rng(4);
  double sum_low = 0.0, sum_high = 0.0;
  for (int i = 0; i < 500; ++i) {
    sum_low += m.measure(low, 0, 1, rng);
    sum_high += m.measure(high, 0, 1, rng);
  }
  EXPECT_LT(sum_low, sum_high);
}

TEST(LossMetric, MessageAndTimeCosts) {
  const net::MatrixUnderlay u = lossy_pair(0.1);
  LossMetric m(/*probes=*/20, /*spacing=*/0.01);
  EXPECT_EQ(m.messages_per_measurement(), 40);
  // 19 spacings + one RTT (0.020 s).
  EXPECT_NEAR(m.measurement_time(u, 0, 1), 0.19 + 0.020, 1e-12);
}

TEST(LossMetric, LossMeasurementSlowerThanDelayMeasurement) {
  // The trade-off the paper highlights: "measuring loss rate takes long
  // time compared to delay" (§6.2).
  const net::MatrixUnderlay u = lossy_pair(0.1);
  DelayMetric d;
  LossMetric l;
  EXPECT_GT(l.measurement_time(u, 0, 1), d.measurement_time(u, 0, 1));
  EXPECT_GT(l.messages_per_measurement(), d.messages_per_measurement());
}

TEST(LossMetric, FiniteEvenAtExtremeLoss) {
  const net::MatrixUnderlay u = lossy_pair(0.99);
  LossMetric m(20);
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double v = m.measure(u, 0, 1, rng);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }
}

TEST(BlendMetric, PureDelayWeightTracksDelay) {
  const net::MatrixUnderlay u = testutil::line_underlay({0.0, 10.0, 20.0});
  BlendMetric m(1.0, 0.0);
  util::Rng rng(6);
  const double d01 = m.measure(u, 0, 1, rng);
  const double d02 = m.measure(u, 0, 2, rng);
  EXPECT_NEAR(d02 / d01, 2.0, 1e-9);
  EXPECT_EQ(m.messages_per_measurement(), 2);
}

TEST(BlendMetric, LossWeightIncreasesDistanceOfLossyPath) {
  // Two pairs with identical delay, different loss: the blend must rank the
  // lossy one farther.
  const net::MatrixUnderlay clean = lossy_pair(0.0);
  const net::MatrixUnderlay dirty = lossy_pair(0.3);
  BlendMetric m(0.5, 0.5);
  util::Rng rng(7);
  double sum_clean = 0.0, sum_dirty = 0.0;
  for (int i = 0; i < 300; ++i) {
    sum_clean += m.measure(clean, 0, 1, rng);
    sum_dirty += m.measure(dirty, 0, 1, rng);
  }
  EXPECT_LT(sum_clean, sum_dirty);
}

TEST(BlendMetric, RejectsInvalidWeights) {
  EXPECT_THROW(BlendMetric(-1.0, 0.5), util::InvariantError);
  EXPECT_THROW(BlendMetric(0.0, 0.0), util::InvariantError);
}

TEST(BlendMetric, TimeIsMaxOfComponents) {
  const net::MatrixUnderlay u = lossy_pair(0.1);
  BlendMetric m(0.5, 0.5, /*probes=*/20, /*spacing=*/0.01);
  EXPECT_NEAR(m.measurement_time(u, 0, 1), 0.19 + 0.020, 1e-12);
}

/// Underlay double that forwards to another underlay and counts delay and
/// loss reads (an rtt() is one delay read).
class CountingUnderlay final : public net::Underlay {
 public:
  explicit CountingUnderlay(const net::Underlay& inner) : inner_(inner) {}
  std::size_t num_hosts() const override { return inner_.num_hosts(); }
  sim::Time delay(net::HostId a, net::HostId b) const override {
    ++delay_reads;
    return inner_.delay(a, b);
  }
  double loss(net::HostId a, net::HostId b) const override {
    ++loss_reads;
    return inner_.loss(a, b);
  }
  std::vector<net::LinkId> path(net::HostId a, net::HostId b) const override {
    return inner_.path(a, b);
  }
  double link_delay(net::LinkId link) const override {
    return inner_.link_delay(link);
  }
  std::size_t num_links() const override { return inner_.num_links(); }

  mutable int delay_reads = 0;
  mutable int loss_reads = 0;

 private:
  const net::Underlay& inner_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// measure_with_cost must be the one-read form of measure() plus the
/// provider's message count and measurement time: the same value, cost and
/// rng state, bit for bit, from one delay read (and one loss read when the
/// provider uses loss).
void expect_one_read_matches_split(const MetricProvider& m,
                                   const MetricProvider& reference,
                                   int loss_reads) {
  std::vector<double> d{0.0, 0.0131, 0.0077, 0.0131, 0.0, 0.0205,
                        0.0077, 0.0205, 0.0};
  std::vector<double> l{0.0, 0.12, 0.03, 0.12, 0.0, 0.4, 0.03, 0.4, 0.0};
  const net::MatrixUnderlay matrix(3, std::move(d), std::move(l));
  const CountingUnderlay u(matrix);
  util::Rng rng_fused(99), rng_split(99);
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<net::HostId>(i % 3);
    const auto b = static_cast<net::HostId>((i + 1 + i / 3) % 3);
    if (a == b) continue;
    MetricProvider::Cost cost;
    u.delay_reads = u.loss_reads = 0;
    const double fused = m.measure_with_cost(u, a, b, rng_fused, cost);
    EXPECT_EQ(u.delay_reads, 1) << m.name();
    EXPECT_EQ(u.loss_reads, loss_reads) << m.name();
    const double split = reference.measure(matrix, a, b, rng_split);
    EXPECT_TRUE(same_bits(fused, split)) << m.name() << " " << fused << " vs " << split;
    EXPECT_EQ(cost.messages, reference.messages_per_measurement()) << m.name();
    EXPECT_TRUE(same_bits(cost.elapsed, reference.measurement_time(matrix, a, b)))
        << m.name();
  }
  EXPECT_EQ(rng_fused.next_u64(), rng_split.next_u64()) << m.name();
}

TEST(MetricProviders, MeasureWithCostReadsEachPathPropertyOnce) {
  expect_one_read_matches_split(DelayMetric(0.0), DelayMetric(0.0), 0);
  expect_one_read_matches_split(DelayMetric(0.2), DelayMetric(0.2), 0);
  expect_one_read_matches_split(LossMetric(), LossMetric(), 1);
  expect_one_read_matches_split(LossMetric(7, 0.03, 1e-2),
                                LossMetric(7, 0.03, 1e-2), 1);
  expect_one_read_matches_split(BlendMetric(0.5, 0.5), BlendMetric(0.5, 0.5), 1);
  expect_one_read_matches_split(BlendMetric(1.0, 0.0), BlendMetric(1.0, 0.0), 1);
}

TEST(MetricProviders, CachedMissReadsOnceAndHitReadsNothing) {
  const net::MatrixUnderlay matrix = lossy_pair(0.2);
  const CountingUnderlay u(matrix);
  sim::Simulator clock;
  for (const bool loss : {false, true}) {
    const auto inner = [loss]() -> std::unique_ptr<MetricProvider> {
      if (loss) return std::make_unique<LossMetric>();
      return std::make_unique<DelayMetric>(0.1);
    };
    const CachedMetric cached(inner(), clock, /*ttl=*/10.0);
    const std::unique_ptr<MetricProvider> reference = inner();
    util::Rng rng_fused(5), rng_split(5);

    // Miss: the wrapped provider's one-read probe and its full cost.
    MetricProvider::Cost cost;
    const double miss = cached.measure_with_cost(u, 0, 1, rng_fused, cost);
    EXPECT_EQ(u.delay_reads, 1);
    EXPECT_EQ(u.loss_reads, loss ? 1 : 0);
    EXPECT_TRUE(same_bits(miss, reference->measure(matrix, 0, 1, rng_split)));
    EXPECT_EQ(cost.messages, reference->messages_per_measurement());
    EXPECT_TRUE(same_bits(cost.elapsed, reference->measurement_time(matrix, 0, 1)));
    EXPECT_EQ(rng_fused.next_u64(), rng_split.next_u64());

    // Hit (either direction): no read, no message, no time, no draw.
    u.delay_reads = u.loss_reads = 0;
    const double hit = cached.measure_with_cost(u, 1, 0, rng_fused, cost);
    EXPECT_TRUE(same_bits(hit, miss));
    EXPECT_EQ(u.delay_reads, 0);
    EXPECT_EQ(u.loss_reads, 0);
    EXPECT_EQ(cost.messages, 0);
    EXPECT_EQ(cost.elapsed, 0.0);
    EXPECT_EQ(rng_fused.next_u64(), rng_split.next_u64());
    EXPECT_EQ(cached.hits(), 1u);
    EXPECT_EQ(cached.misses(), 1u);
  }
}

TEST(MetricProviders, NamesAreDistinct) {
  DelayMetric d;
  LossMetric l;
  BlendMetric b(0.5, 0.5);
  EXPECT_EQ(d.name(), "delay");
  EXPECT_EQ(l.name(), "loss");
  EXPECT_EQ(b.name(), "blend");
}

}  // namespace
}  // namespace vdm::overlay
