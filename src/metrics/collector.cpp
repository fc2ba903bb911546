#include "metrics/collector.hpp"

#include "util/require.hpp"
#include "util/stats.hpp"

namespace vdm::metrics {

std::size_t CollectorScratch::capacity_bytes() const {
  std::size_t bytes = samples.capacity() * sizeof(EpochSample) +
                      (startup_buf.capacity() + reconnect_buf.capacity()) *
                          sizeof(overlay::TimingRecord) +
                      percentile_buf.capacity() * sizeof(double);
  for (const EpochSample& e : samples) {
    bytes += (e.startup_times.capacity() + e.reconnect_times.capacity() +
              e.detection_times.capacity() + e.outage_times.capacity()) *
             sizeof(double);
  }
  bytes += tree.link_count.capacity() * sizeof(std::uint32_t) +
           tree.link_epoch.capacity() * sizeof(std::uint64_t) +
           tree.links_touched.capacity() * sizeof(net::LinkId) +
           tree.overlay_delay.capacity() * sizeof(double) +
           tree.hops.capacity() * sizeof(std::uint32_t) +
           tree.order.capacity() * sizeof(net::HostId) +
           (tree.edge_delay.capacity() + tree.direct_delay.capacity()) *
               sizeof(double);
  return bytes;
}

Rates rates(const overlay::Session::Counters& w) {
  Rates r;
  if (w.chunks_expected > 0) {
    r.loss_rate = 1.0 - static_cast<double>(w.chunks_delivered) /
                            static_cast<double>(w.chunks_expected);
  }
  if (w.data_transmissions > 0) {
    r.overhead = static_cast<double>(w.control_messages) /
                 static_cast<double>(w.data_transmissions);
  }
  if (w.chunks_emitted > 0) {
    r.overhead_per_chunk = static_cast<double>(w.control_messages) /
                           static_cast<double>(w.chunks_emitted);
  }
  return r;
}

void Collector::capture(sim::Time at) {
  overlay::Session& s = *session_;
  CollectorScratch& sc = *scratch_;
  if (sc.used == sc.samples.size()) sc.samples.emplace_back();
  EpochSample& e = sc.samples[sc.used];
  ++sc.used;

  // The slot may hold a stale sample from a previous run on this arena:
  // every scalar is assigned, every vector rebuilt in place.
  e.at = at;
  e.members = s.tree().alive_count();
  e.tree = measure_tree(s.tree(), s.source(), s.underlay(), sc.tree, threads_);

  const overlay::Session::Counters totals = s.totals();
  const overlay::Session::Counters w = totals - seen_;
  seen_ = totals;
  e.control_messages = w.control_messages;
  e.data_transmissions = w.data_transmissions;
  const Rates window_rates = rates(w);
  e.loss_rate = window_rates.loss_rate;
  e.overhead = window_rates.overhead;
  e.overhead_per_chunk = window_rates.overhead_per_chunk;
  auto to_durations = [](const std::vector<overlay::TimingRecord>& recs,
                         std::vector<double>& out) {
    out.clear();
    out.reserve(recs.size());
    for (const auto& r : recs) out.push_back(r.duration);
  };
  s.drain_startup_records(sc.startup_buf);
  to_durations(sc.startup_buf, e.startup_times);
  s.drain_reconnect_records(sc.reconnect_buf);
  to_durations(sc.reconnect_buf, e.reconnect_times);
  e.detection_times.clear();
  e.outage_times.clear();
  for (const auto& r : sc.reconnect_buf) {
    if (r.detection > 0.0) {
      e.detection_times.push_back(r.detection);
      e.outage_times.push_back(r.detection + r.duration);
    }
  }
}

double Collector::mean_of(const std::function<double(const EpochSample&)>& get,
                          std::size_t skip) const {
  VDM_REQUIRE(get != nullptr);
  if (samples().size() <= skip) return 0.0;
  double sum = 0.0;
  for (std::size_t i = skip; i < samples().size(); ++i) sum += get(samples()[i]);
  return sum / static_cast<double>(samples().size() - skip);
}

double Collector::mean_stress(std::size_t skip) const {
  return mean_of([](const EpochSample& e) { return e.tree.stress_avg; }, skip);
}
double Collector::mean_stretch(std::size_t skip) const {
  return mean_of([](const EpochSample& e) { return e.tree.stretch_avg; }, skip);
}
double Collector::mean_hopcount(std::size_t skip) const {
  return mean_of([](const EpochSample& e) { return e.tree.hop_avg; }, skip);
}
double Collector::mean_loss(std::size_t skip) const {
  return mean_of([](const EpochSample& e) { return e.loss_rate; }, skip);
}
double Collector::mean_overhead(std::size_t skip) const {
  return mean_of([](const EpochSample& e) { return e.overhead; }, skip);
}
double Collector::mean_overhead_per_chunk(std::size_t skip) const {
  return mean_of([](const EpochSample& e) { return e.overhead_per_chunk; }, skip);
}
double Collector::mean_network_usage(std::size_t skip) const {
  return mean_of([](const EpochSample& e) { return e.tree.network_usage; }, skip);
}

void Collector::gather(std::vector<double> EpochSample::* field,
                       std::vector<double>& out) const {
  out.clear();
  for (const auto& e : samples()) {
    const std::vector<double>& v = e.*field;
    out.insert(out.end(), v.begin(), v.end());
  }
}

std::vector<double> Collector::all_times(
    std::vector<double> EpochSample::* field) const {
  std::vector<double> out;
  gather(field, out);
  return out;
}

Collector::EventTimingStats Collector::stats_of(
    std::vector<double> EpochSample::* field) const {
  std::vector<double>& buf = scratch_->percentile_buf;
  gather(field, buf);
  EventTimingStats s;
  if (buf.empty()) return s;
  double sum = 0.0;
  for (const double d : buf) sum += d;
  s.avg = sum / static_cast<double>(buf.size());
  // percentile_inplace sorts the buffer, so max is the back afterwards.
  s.p50 = util::percentile_inplace(buf, 0.50);
  s.p99 = util::percentile_inplace(buf, 0.99);
  s.max = buf.back();
  return s;
}

Collector::EventTimingStats Collector::startup_stats() const {
  return stats_of(&EpochSample::startup_times);
}
Collector::EventTimingStats Collector::reconnect_stats() const {
  return stats_of(&EpochSample::reconnect_times);
}
Collector::EventTimingStats Collector::detection_stats() const {
  return stats_of(&EpochSample::detection_times);
}
Collector::EventTimingStats Collector::outage_stats() const {
  return stats_of(&EpochSample::outage_times);
}

}  // namespace vdm::metrics
