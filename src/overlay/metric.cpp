#include "overlay/metric.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace vdm::overlay {

// measure() routes through probe_base() + finish_probe() for every provider
// that opts into split probing, so the split (pure phase, rng completion) is
// bit-identical to the one-call form by construction rather than by parallel
// maintenance of two code paths.

double DelayMetric::measure(const net::Underlay& net, net::HostId a,
                            net::HostId b, util::Rng& rng) const {
  return finish_probe(probe_base(net, a, b), rng);
}

double DelayMetric::measure_with_cost(const net::Underlay& net, net::HostId a,
                                      net::HostId b, util::Rng& rng,
                                      Cost& cost) const {
  const ProbeBase base = probe_base(net, a, b);
  cost = Cost{messages_per_measurement(), base.first};
  return finish_probe(base, rng);
}

double DelayMetric::finish_probe(const ProbeBase& base, util::Rng& rng) const {
  double v = base.first;
  if (noise_frac_ > 0.0) v *= std::max(0.1, rng.normal(1.0, noise_frac_));
  return v;
}

double LossMetric::measure(const net::Underlay& net, net::HostId a,
                           net::HostId b, util::Rng& rng) const {
  return finish_probe(probe_base(net, a, b), rng);
}

double LossMetric::measure_with_cost(const net::Underlay& net, net::HostId a,
                                     net::HostId b, util::Rng& rng,
                                     Cost& cost) const {
  const ProbeBase base = probe_base(net, a, b);
  cost = Cost{messages_per_measurement(), burst_time(base.second)};
  return finish_probe(base, rng);
}

double LossMetric::finish_probe(const ProbeBase& base, util::Rng& rng) const {
  const double p = base.first;
  int lost = 0;
  for (int i = 0; i < probes_; ++i) {
    if (rng.chance(p)) ++lost;
  }
  // Estimated loss rate, clamped away from 1 so the log stays finite; one
  // lost probe out of `probes_` is the measurement floor.
  const double est = std::min(static_cast<double>(lost) / probes_, 0.99);
  return -std::log(1.0 - est) + delay_tiebreak_ * base.second;
}

CachedMetric::CachedMetric(std::unique_ptr<MetricProvider> inner,
                           const sim::Reactor& clock, sim::Time ttl)
    : inner_(std::move(inner)), clock_(clock), ttl_(ttl) {
  VDM_REQUIRE(inner_ != nullptr);
  VDM_REQUIRE(ttl_ > 0.0);
}

std::uint64_t CachedMetric::key(net::HostId a, net::HostId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

double CachedMetric::measure(const net::Underlay& net, net::HostId a,
                             net::HostId b, util::Rng& rng) const {
  Cost ignored;
  return measure_with_cost(net, a, b, rng, ignored);
}

double CachedMetric::measure_with_cost(const net::Underlay& net, net::HostId a,
                                       net::HostId b, util::Rng& rng,
                                       Cost& cost) const {
  const std::uint64_t k = key(a, b);
  const auto it = cache_.find(k);
  if (it != cache_.end() && clock_.now() - it->second.measured_at <= ttl_) {
    ++hits_;
    cost = Cost{};  // answered from the local statistics service
    return it->second.value;
  }
  ++misses_;
  const double v = inner_->measure_with_cost(net, a, b, rng, cost);
  cache_[k] = Entry{v, clock_.now()};
  return v;
}

BlendMetric::BlendMetric(double weight_delay, double weight_loss, int probes,
                         double probe_spacing)
    : w_delay_(weight_delay), w_loss_(weight_loss),
      delay_(0.0), loss_(probes, probe_spacing, 0.0) {
  VDM_REQUIRE(weight_delay >= 0.0 && weight_loss >= 0.0);
  VDM_REQUIRE(weight_delay + weight_loss > 0.0);
}

double BlendMetric::measure(const net::Underlay& net, net::HostId a,
                            net::HostId b, util::Rng& rng) const {
  return finish_probe(probe_base(net, a, b), rng);
}

double BlendMetric::measure_with_cost(const net::Underlay& net, net::HostId a,
                                      net::HostId b, util::Rng& rng,
                                      Cost& cost) const {
  const ProbeBase base = probe_base(net, a, b);
  cost = Cost{messages_per_measurement(), time_for_rtt(base.second)};
  return finish_probe(base, rng);
}

double BlendMetric::finish_probe(const ProbeBase& base, util::Rng& rng) const {
  // Normalize delay to "per 100 ms" and loss-length to "per 1 %" so the
  // weights are unitless knobs of comparable magnitude. Both components
  // share one base: the delay part reads the rtt, the loss part the loss
  // probability (and the rtt for its — here zero-weighted — tiebreaker).
  const double d = delay_.finish_probe({base.second, 0.0}, rng) / 0.100;
  const double l = loss_.finish_probe(base, rng) / 0.010;
  return w_delay_ * d + w_loss_ * l;
}

int BlendMetric::messages_per_measurement() const {
  return w_loss_ > 0.0 ? loss_.messages_per_measurement()
                       : delay_.messages_per_measurement();
}

sim::Time BlendMetric::time_for_rtt(sim::Time rtt) const {
  // The delay component's ping takes one rtt; the loss burst takes longer.
  return std::max(rtt, w_loss_ > 0.0 ? loss_.burst_time(rtt) : 0.0);
}

}  // namespace vdm::overlay
