#include "testbed/controller.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "baselines/mst_overlay.hpp"
#include "util/require.hpp"

namespace vdm::testbed {

FlakyMetric::FlakyMetric(std::unique_ptr<overlay::MetricProvider> inner,
                         std::vector<double> slowness, double noise_frac)
    : inner_(std::move(inner)), slowness_(std::move(slowness)),
      noise_frac_(noise_frac) {
  VDM_REQUIRE(inner_ != nullptr);
}

double FlakyMetric::measure(const net::Underlay& net, net::HostId a,
                            net::HostId b, util::Rng& rng) const {
  double v = inner_->measure(net, a, b, rng);
  if (noise_frac_ > 0.0) v *= std::max(0.1, rng.normal(1.0, noise_frac_));
  return v;
}

sim::Time FlakyMetric::measurement_time(const net::Underlay& net, net::HostId a,
                                        net::HostId b) const {
  const double slow = b < slowness_.size() ? slowness_[b] : 1.0;
  return inner_->measurement_time(net, a, b) * slow;
}

namespace {

overlay::SessionParams session_params(const ControllerParams& params) {
  overlay::SessionParams sp;
  sp.source_degree_limit = params.source_degree;
  sp.chunk_rate = params.chunk_rate;
  sp.data_plane = params.data_plane;
  sp.faults = params.faults;
  sp.join_mode = params.join_mode;
  return sp;
}

}  // namespace

MainController::MainController(sim::Reactor& reactor,
                               const net::Underlay& underlay,
                               overlay::Protocol& protocol,
                               const overlay::MetricProvider& metric,
                               const ControllerParams& params, util::Rng rng)
    : underlay_(underlay),
      params_(params),
      session_(reactor, underlay, protocol, metric, session_params(params), rng),
      collector_(session_) {}

SessionReport MainController::run(const Scenario& scenario) {
  VDM_REQUIRE_MSG(!scenario.events.empty(), "scenario has no events");
  overlay::check_chunk_budget(session_params(params_), scenario.end_time);
  // The capture loop below steps by measure_interval: 0, NaN or a step that
  // rounds away against t would schedule captures forever.
  const sim::Time interval = params_.measure_interval;
  VDM_REQUIRE_MSG(std::isfinite(interval) && interval > 0.0 &&
                      scenario.end_time / interval < 0x1p32,
                  "measure_interval must be finite and > 0, with fewer than "
                  "2^32 captures before the scenario's end time");
  sim::Reactor& reactor = session_.reactor();
  session_.start();
  overlay::EventExecutor executor(session_, member_flags_);
  executor.schedule(scenario.events, scenario.end_time);
  // Periodic snapshots, then a final one exactly at terminate.
  for (sim::Time t = interval; t < scenario.end_time; t += interval) {
    reactor.schedule_at(t, [this] {
      collector_.capture(session_.reactor().now());
    });
  }
  reactor.run_until(scenario.end_time);
  collector_.capture(reactor.now());
  session_.stop();

  SessionReport report;
  const std::span<const metrics::EpochSample> epochs = collector_.samples();
  report.epochs.assign(epochs.begin(), epochs.end());
  report.final_tree =
      metrics::measure_tree(session_.tree(), session_.source(), underlay_);
  report.startup_times = collector_.all_times(&metrics::EpochSample::startup_times);
  report.reconnect_times =
      collector_.all_times(&metrics::EpochSample::reconnect_times);
  report.detection_times =
      collector_.all_times(&metrics::EpochSample::detection_times);
  report.outage_times = collector_.all_times(&metrics::EpochSample::outage_times);
  report.totals = session_.totals();
  const metrics::Rates rates = metrics::rates(report.totals);
  report.loss_rate = rates.loss_rate;
  report.overhead = rates.overhead;
  report.overhead_per_chunk = rates.overhead_per_chunk;
  report.mst_ratio =
      baselines::mst_ratio(session_.tree(), session_.source(), underlay_);
  return report;
}

}  // namespace vdm::testbed
