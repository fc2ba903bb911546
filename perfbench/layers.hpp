#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string_view>
#include <vector>

#include "experiments/runner.hpp"
#include "overlay/session.hpp"

namespace perfbench {

/// One timed interval of a traced run: the layer boundary it covers, the
/// span that caused it (-1 for a root) and its start/end in seconds since
/// the run began.
struct Span {
  std::string_view name;
  std::int32_t parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Per-layer work counts and busy times of one traced run. Times come from
/// spans around the calls into each layer; the fine boundaries (underlay
/// reads, probes, walk steps) are counted, not timed.
struct LayerStats {
  double run_s = 0.0;               ///< the whole composition, setup included
  double topology_build_s = 0.0;    ///< topo builder + underlay constructor
  /// The membership process: generate_workload (event-list kinds) plus the
  /// ScenarioDriver's construction (its host pool).
  double workload_setup_s = 0.0;
  std::uint64_t workload_events = 0;
  double driver_s = 0.0;            ///< ScenarioDriver::run / run_trace
  std::uint64_t sim_events = 0;     ///< Simulator::executed()

  /// Protocol boundary: execute_join calls and spans around them and
  /// execute_refine, plus the concurrent pipeline's drain events (first to
  /// last pipeline call of one simulator event, added to join_s).
  std::uint64_t join_calls = 0;
  std::uint64_t drains = 0;
  double join_s = 0.0;
  double refine_s = 0.0;
  std::uint64_t walk_steps = 0;     ///< WalkObserver::on_step calls

  std::uint64_t probes = 0;         ///< MetricProvider measurements

  /// Underlay decorator counts; all zero when !net_measured.
  bool net_measured = false;
  std::uint64_t delay_reads = 0;
  std::uint64_t loss_reads = 0;
  std::uint64_t path_link_visits = 0;

  std::uint64_t captures = 0;
  double capture_s = 0.0;           ///< Collector::capture spans
  double final_s = 0.0;             ///< end-of-run reads, MST pass included

  vdm::overlay::Session::Counters totals;
  /// The session's own phase profile of the same run (SessionParams::profile
  /// is on in the traced run; it reads clocks, it never feeds back).
  vdm::overlay::PhaseProfile profile;

  /// The driver span's self time: the data plane, timers, churn handling
  /// and the event engine — everything ScenarioDriver runs that is not a
  /// protocol walk or a collector capture.
  double residual_s() const { return driver_s - join_s - refine_s - capture_s; }
};

/// Builds the run's underlay with the public topology builders and
/// underlay constructors, drawing from `topo_rng` exactly as run_once does.
/// Supports the transit-stub (paper router count, `routers` is ignored) and
/// coordinate substrates; the workloads use nothing else.
std::unique_ptr<vdm::net::Underlay> build_underlay(
    const vdm::experiments::RunConfig& config, vdm::util::Rng& topo_rng);

struct TracedRun {
  vdm::experiments::RunResult result;
  LayerStats layers;
  std::vector<Span> spans;
};

/// Runs `config` the way run_once does, composed from the same public
/// pieces (topology builders, underlay, Session, ScenarioDriver, Collector),
/// with each layer's public boundary wrapped in a counting or timing
/// decorator. `wrap_underlay` is false where the underlay decorator would
/// change the run: the placement index only takes its grid fast path when
/// it sees a CoordUnderlay, which a decorator hides. The result's simulated
/// scalars must equal run_once's bit for bit; the caller checks that. Also
/// runs Membership::validate() on the final tree (throws on a violation).
TracedRun traced_run(const vdm::experiments::RunConfig& config, bool wrap_underlay);

/// Writes spans as CSV: index,name,parent,start_s,end_s.
void write_spans(std::ostream& os, const std::vector<Span>& spans);

/// The simulated scalars run_once reports, in a fixed order, for bitwise
/// comparison and the hexfloat digest.
struct Scalar {
  std::string_view name;
  double value;
};
std::vector<Scalar> scalars(const vdm::experiments::RunResult& r);

/// True when every scalar of `a` and `b` has the same bit pattern.
bool bitwise_equal(const vdm::experiments::RunResult& a,
                   const vdm::experiments::RunResult& b);

}  // namespace perfbench
