#pragma once

#include <memory>
#include <vector>

#include "metrics/collector.hpp"
#include "overlay/session.hpp"
#include "testbed/node_pool.hpp"
#include "testbed/scenario_file.hpp"

namespace vdm::testbed {

/// Per-node slowness decorator: probe answers from a lazy PlanetLab node
/// take `slowness x` longer, inflating measured startup / reconnection
/// times without changing which parent is chosen (distances themselves stay
/// honest up to the configured noise). This reproduces the paper's caveat
/// that "sometimes PlanetLab nodes are lazy to answer the information
/// request", so max startup times overstate algorithmic complexity.
class FlakyMetric final : public overlay::MetricProvider {
 public:
  FlakyMetric(std::unique_ptr<overlay::MetricProvider> inner,
              std::vector<double> slowness, double noise_frac = 0.05);

  std::string_view name() const override { return inner_->name(); }
  double measure(const net::Underlay& net, net::HostId a, net::HostId b,
                 util::Rng& rng) const override;
  int messages_per_measurement() const override {
    return inner_->messages_per_measurement();
  }
  sim::Time measurement_time(const net::Underlay& net, net::HostId a,
                             net::HostId b) const override;

 private:
  std::unique_ptr<overlay::MetricProvider> inner_;
  std::vector<double> slowness_;
  double noise_frac_;
};

/// Configuration of one testbed session (the source is host 0, as in every
/// runner).
struct ControllerParams {
  int source_degree = 4;
  /// The PlanetLab sender streamed 10 chunks per second (§5.4.2).
  double chunk_rate = 10.0;
  /// Model the data plane inside the session (simulation). vdmd turns this
  /// off: its chunks are real datagrams relayed by the agents, so modeling
  /// them again would double-count.
  bool data_plane = true;
  /// Tree snapshot cadence during the run.
  sim::Time measure_interval = 400.0;
  /// Failure-model knobs (heartbeat detection, lossy control plane) routed
  /// into the underlying Session — the testbed's flaky-node story and the
  /// simulator's share one path. Defaults are all-off.
  overlay::FaultParams faults;
  /// Join pipeline for the session (DESIGN.md §10) — scenario flash bursts
  /// are only worth their name under kConcurrent.
  overlay::JoinMode join_mode = overlay::JoinMode::kSequential;
};

/// End-of-session report — the aggregate the paper's "result calculator"
/// components upload when the terminate message arrives.
struct SessionReport {
  std::vector<metrics::EpochSample> epochs;
  metrics::TreeMetrics final_tree;
  std::vector<double> startup_times;
  std::vector<double> reconnect_times;
  std::vector<double> detection_times;
  std::vector<double> outage_times;
  double loss_rate = 0.0;        // whole-run
  double overhead = 0.0;         // control msgs / data transmissions
  double overhead_per_chunk = 0.0;
  double mst_ratio = 1.0;
  overlay::Session::Counters totals;
};

/// The dissertation's Main Controller (Figure 5.3): executes a scenario
/// file against a deployment, sending connect / disconnect / terminate
/// commands to the per-node agents. In this reproduction, the agent,
/// sender and transceiver roles are played by the shared Session engine —
/// the controller is the orchestration and reporting layer around it.
class MainController {
 public:
  /// The same orchestration on either clock: a sim::Simulator for the
  /// simulated testbed, or the UdpReactor with a MeasuredUnderlay in vdmd,
  /// where the identical scenario files drive real agents over UDP.
  MainController(sim::Reactor& reactor, const net::Underlay& underlay,
                 overlay::Protocol& protocol, const overlay::MetricProvider& metric,
                 const ControllerParams& params, util::Rng rng);

  /// Runs `scenario` to its end_time through the one event executor
  /// (overlay::EventExecutor: a bad event fails with a clear error) and
  /// gathers the report. `scenario` must stay alive during the call.
  SessionReport run(const Scenario& scenario);

  overlay::Session& session() { return session_; }

 private:
  const net::Underlay& underlay_;
  ControllerParams params_;
  overlay::Session session_;
  metrics::Collector collector_;
  std::vector<char> member_flags_;  // the executor's per-host flags
};

}  // namespace vdm::testbed
