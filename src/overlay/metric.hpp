#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "net/underlay.hpp"
#include "sim/reactor.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {

/// Virtual-distance provider — the generalization axis of the paper
/// (Chapter 4): VDM's join logic is metric-agnostic; plugging a different
/// MetricProvider yields a differently shaped tree (VDM-D vs VDM-L) with
/// zero protocol changes.
///
/// A provider defines what one "measurement" between two hosts costs
/// (messages, wall-clock) and what value it returns, including measurement
/// noise, so both the NS-2-style and the PlanetLab-style experiments charge
/// probing realistically.
class MetricProvider {
 public:
  virtual ~MetricProvider() = default;

  virtual std::string_view name() const = 0;

  /// One measurement of the virtual distance from `a` to `b`. May be noisy;
  /// deterministic given the rng state.
  virtual double measure(const net::Underlay& net, net::HostId a, net::HostId b,
                         util::Rng& rng) const = 0;

  /// Control messages consumed by one measurement (both directions).
  virtual int messages_per_measurement() const = 0;

  /// Wall-clock taken by one measurement initiated at `a`.
  virtual sim::Time measurement_time(const net::Underlay& net, net::HostId a,
                                     net::HostId b) const = 0;

  /// What one measurement costs the control plane.
  struct Cost {
    int messages = 0;
    sim::Time elapsed = 0.0;
  };

  /// Measurement plus its cost, in one call. Default: fixed per-provider
  /// costs from measurement_time() and measure(), which read the underlay
  /// separately. The shipped providers override it to read once, and
  /// CachedMetric because its cost varies per call (a cache hit is free, a
  /// miss pays the full probe).
  virtual double measure_with_cost(const net::Underlay& net, net::HostId a,
                                   net::HostId b, util::Rng& rng,
                                   Cost& cost) const {
    cost.messages = messages_per_measurement();
    cost.elapsed = measurement_time(net, a, b);
    return measure(net, a, b, rng);
  }

  // ------------------------------------------------------ split probing
  // A measurement splits into a pure phase (underlay reads, safe to compute
  // concurrently) and a completion (the rng draws). Providers that opt in
  // implement measure() as finish_probe(probe_base(...), rng), so the split
  // is bit-identical to the one-call form by construction. Session probes
  // serially; the split stays as the seam decorators and benches hook.

  /// Pure (rng-free) inputs of one measurement a -> b. Field meaning is
  /// provider-private; only finish_probe interprets it.
  struct ProbeBase {
    double first = 0.0;
    double second = 0.0;
  };

  /// True when probe_base() may run concurrently from several threads and
  /// finish_probe(probe_base(net, a, b), rng) reproduces measure(net, a, b,
  /// rng) bit for bit. CachedMetric mutates its cache per call: false.
  virtual bool concurrent_probe_safe() const { return false; }

  /// The pure phase. Only meaningful when concurrent_probe_safe().
  virtual ProbeBase probe_base(const net::Underlay&, net::HostId,
                               net::HostId) const {
    return {};
  }

  /// The serial completion: applies measurement noise, drawing exactly what
  /// measure() would draw.
  virtual double finish_probe(const ProbeBase& base, util::Rng&) const {
    return base.first;
  }
};

/// RTT-based virtual distance (VDM-D, the paper's default): one ping
/// exchange; optional multiplicative measurement noise.
class DelayMetric final : public MetricProvider {
 public:
  /// `noise_frac` is the std. deviation of multiplicative Gaussian noise
  /// (0 = exact measurements, the NS-2 configuration).
  explicit DelayMetric(double noise_frac = 0.0) : noise_frac_(noise_frac) {}

  std::string_view name() const override { return "delay"; }
  double measure(const net::Underlay& net, net::HostId a, net::HostId b,
                 util::Rng& rng) const override;
  int messages_per_measurement() const override { return 2; }
  sim::Time measurement_time(const net::Underlay& net, net::HostId a,
                             net::HostId b) const override {
    return net.rtt(a, b);
  }
  /// One rtt read serves both the value and the elapsed time.
  double measure_with_cost(const net::Underlay& net, net::HostId a,
                           net::HostId b, util::Rng& rng,
                           Cost& cost) const override;
  bool concurrent_probe_safe() const override { return true; }
  ProbeBase probe_base(const net::Underlay& net, net::HostId a,
                       net::HostId b) const override {
    return {net.rtt(a, b), 0.0};
  }
  double finish_probe(const ProbeBase& base, util::Rng& rng) const override;

 private:
  double noise_frac_;
};

/// Loss-based virtual distance (VDM-L): a probe burst of `probes` packets
/// estimates the end-to-end loss rate; the virtual distance is the additive
/// loss length -ln(1 - p) plus a vanishing delay component that only breaks
/// ties between equally lossy paths. Costs more messages and more time than
/// DelayMetric — the trade-off the paper calls out (§6.2).
class LossMetric final : public MetricProvider {
 public:
  explicit LossMetric(int probes = 20, double probe_spacing = 0.01,
                      double delay_tiebreak = 1e-3)
      : probes_(probes), probe_spacing_(probe_spacing),
        delay_tiebreak_(delay_tiebreak) {}

  std::string_view name() const override { return "loss"; }
  double measure(const net::Underlay& net, net::HostId a, net::HostId b,
                 util::Rng& rng) const override;
  int messages_per_measurement() const override { return 2 * probes_; }
  sim::Time measurement_time(const net::Underlay& net, net::HostId a,
                             net::HostId b) const override {
    return burst_time(net.rtt(a, b));
  }
  /// One loss read and one rtt read serve both the value and the elapsed
  /// time.
  double measure_with_cost(const net::Underlay& net, net::HostId a,
                           net::HostId b, util::Rng& rng,
                           Cost& cost) const override;
  bool concurrent_probe_safe() const override { return true; }
  /// first = end-to-end loss probability, second = rtt (the tiebreaker).
  ProbeBase probe_base(const net::Underlay& net, net::HostId a,
                       net::HostId b) const override {
    return {net.loss(a, b), net.rtt(a, b)};
  }
  double finish_probe(const ProbeBase& base, util::Rng& rng) const override;

  /// Wall-clock of one probe burst over a path of round-trip time `rtt`:
  /// probes leave `probe_spacing` apart and the burst completes one RTT
  /// after the last one.
  sim::Time burst_time(sim::Time rtt) const {
    return probe_spacing_ * (probes_ - 1) + rtt;
  }

 private:
  int probes_;
  double probe_spacing_;
  double delay_tiebreak_;
};

/// Measurement-service decorator — the paper's §6.2 future-work item:
/// "Some third party systems that provide statistics can be used to
/// quicken the process" (iPlane-nano-style). Measurements are cached per
/// host pair for a TTL; a fresh cache hit answers locally (zero messages,
/// negligible time), a miss pays the wrapped provider's full probe. This
/// makes loss-based virtual distances practical for quick startup and
/// reconnection, at the price of possibly stale values within the TTL.
class CachedMetric final : public MetricProvider {
 public:
  /// `clock` supplies the current time for TTL expiry.
  CachedMetric(std::unique_ptr<MetricProvider> inner, const sim::Reactor& clock,
               sim::Time ttl);

  std::string_view name() const override { return "cached"; }
  double measure(const net::Underlay& net, net::HostId a, net::HostId b,
                 util::Rng& rng) const override;
  /// Worst-case (miss) costs; actual per-call costs come from
  /// measure_with_cost.
  int messages_per_measurement() const override {
    return inner_->messages_per_measurement();
  }
  sim::Time measurement_time(const net::Underlay& net, net::HostId a,
                             net::HostId b) const override {
    return inner_->measurement_time(net, a, b);
  }
  double measure_with_cost(const net::Underlay& net, net::HostId a,
                           net::HostId b, util::Rng& rng, Cost& cost) const override;

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  void clear() { cache_.clear(); }

 private:
  struct Entry {
    double value = 0.0;
    sim::Time measured_at = 0.0;
  };
  static std::uint64_t key(net::HostId a, net::HostId b);

  std::unique_ptr<MetricProvider> inner_;
  const sim::Reactor& clock_;
  sim::Time ttl_;
  mutable std::unordered_map<std::uint64_t, Entry> cache_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

/// Weighted blend of normalized delay and loss distances — the "application
/// states its sensitivity" configuration the generalization chapter argues
/// for. weight_delay + weight_loss need not sum to 1.
class BlendMetric final : public MetricProvider {
 public:
  BlendMetric(double weight_delay, double weight_loss, int probes = 20,
              double probe_spacing = 0.01);

  std::string_view name() const override { return "blend"; }
  double measure(const net::Underlay& net, net::HostId a, net::HostId b,
                 util::Rng& rng) const override;
  int messages_per_measurement() const override;
  sim::Time measurement_time(const net::Underlay& net, net::HostId a,
                             net::HostId b) const override {
    return time_for_rtt(net.rtt(a, b));
  }
  /// One loss read and one rtt read serve both components and the elapsed
  /// time.
  double measure_with_cost(const net::Underlay& net, net::HostId a,
                           net::HostId b, util::Rng& rng,
                           Cost& cost) const override;
  bool concurrent_probe_safe() const override { return true; }
  /// first = loss probability, second = rtt (shared by both components).
  ProbeBase probe_base(const net::Underlay& net, net::HostId a,
                       net::HostId b) const override {
    return {net.loss(a, b), net.rtt(a, b)};
  }
  double finish_probe(const ProbeBase& base, util::Rng& rng) const override;

 private:
  /// The slower component's measurement time over a path of this rtt.
  sim::Time time_for_rtt(sim::Time rtt) const;

  double w_delay_;
  double w_loss_;
  DelayMetric delay_;
  LossMetric loss_;
};

}  // namespace vdm::overlay
