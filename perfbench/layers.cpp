#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iomanip>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <utility>

#include "baselines/mst_overlay.hpp"
#include "core/vdm_protocol.hpp"
#include "metrics/collector.hpp"
#include "net/coord_underlay.hpp"
#include "net/graph_underlay.hpp"
#include "overlay/metric.hpp"
#include "overlay/scenario.hpp"
#include "overlay/walk.hpp"
#include "overlay/workload.hpp"
#include "sim/simulator.hpp"
#include "topology/coord.hpp"
#include "topology/geo.hpp"
#include "topology/transit_stub.hpp"

namespace perfbench {

namespace ex = vdm::experiments;
namespace net = vdm::net;
namespace ov = vdm::overlay;

namespace {

using Clock = std::chrono::steady_clock;

/// Spans of one run, kept in memory until the run ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Opens a span nested under the innermost open one.
  std::int32_t begin(std::string_view name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, current_, now(), 0.0});
    current_ = id;
    return id;
  }

  /// Closes `id` (the innermost open span) and returns its duration.
  double end(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    current_ = s.parent;
    return s.end - s.start;
  }

  /// Records an already-measured span under the innermost open one.
  void add(std::string_view name, double start, double end) {
    spans_.push_back({name, current_, start, end});
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// Adds the span's duration to `sink` when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, double& sink)
      : log_(log), sink_(sink), id_(log.begin(name)) {}
  ~ScopedSpan() { sink_ += log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  double& sink_;
  std::int32_t id_;
};

/// Underlay decorator: forwards every virtual and counts the reads.
class CountingUnderlay final : public net::Underlay {
 public:
  CountingUnderlay(const net::Underlay& inner, LayerStats& stats)
      : inner_(inner), stats_(stats) {}

  std::size_t num_hosts() const override { return inner_.num_hosts(); }
  vdm::sim::Time delay(net::HostId a, net::HostId b) const override {
    ++stats_.delay_reads;
    return inner_.delay(a, b);
  }
  double loss(net::HostId a, net::HostId b) const override {
    ++stats_.loss_reads;
    return inner_.loss(a, b);
  }
  std::vector<net::LinkId> path(net::HostId a, net::HostId b) const override {
    std::vector<net::LinkId> links = inner_.path(a, b);
    stats_.path_link_visits += links.size();
    return links;
  }
  void for_each_path_link(
      net::HostId a, net::HostId b,
      vdm::util::FunctionRef<void(net::LinkId)> visit) const override {
    std::uint64_t& visits = stats_.path_link_visits;
    inner_.for_each_path_link(a, b, [&visits, visit](net::LinkId l) {
      ++visits;
      visit(l);
    });
  }
  double link_delay(net::LinkId link) const override {
    return inner_.link_delay(link);
  }
  std::size_t num_links() const override { return inner_.num_links(); }
  bool concurrent_reads() const override { return inner_.concurrent_reads(); }
  bool zero_loss() const override { return inner_.zero_loss(); }

 private:
  const net::Underlay& inner_;
  LayerStats& stats_;
};

/// MetricProvider decorator: forwards every virtual and counts measurements
/// (each of measure, measure_with_cost and probe_base is one probe).
class CountingMetric final : public ov::MetricProvider {
 public:
  CountingMetric(const ov::MetricProvider& inner, LayerStats& stats)
      : inner_(inner), stats_(stats) {}

  std::string_view name() const override { return inner_.name(); }
  double measure(const net::Underlay& n, net::HostId a, net::HostId b,
                 vdm::util::Rng& rng) const override {
    ++stats_.probes;
    return inner_.measure(n, a, b, rng);
  }
  int messages_per_measurement() const override {
    return inner_.messages_per_measurement();
  }
  vdm::sim::Time measurement_time(const net::Underlay& n, net::HostId a,
                                  net::HostId b) const override {
    return inner_.measurement_time(n, a, b);
  }
  double measure_with_cost(const net::Underlay& n, net::HostId a, net::HostId b,
                           vdm::util::Rng& rng, Cost& cost) const override {
    ++stats_.probes;
    return inner_.measure_with_cost(n, a, b, rng, cost);
  }
  bool concurrent_probe_safe() const override {
    return inner_.concurrent_probe_safe();
  }
  ProbeBase probe_base(const net::Underlay& n, net::HostId a,
                       net::HostId b) const override {
    ++stats_.probes;
    return inner_.probe_base(n, a, b);
  }
  double finish_probe(const ProbeBase& base, vdm::util::Rng& rng) const override {
    return inner_.finish_probe(base, rng);
  }

 private:
  const ov::MetricProvider& inner_;
  LayerStats& stats_;
};

class StepCounter final : public ov::WalkObserver {
 public:
  explicit StepCounter(LayerStats& stats) : stats_(stats) {}
  void on_step(const ov::WalkStep&) override { ++stats_.walk_steps; }

 private:
  LayerStats& stats_;
};

/// PipelineSupport decorator. The concurrent pipeline runs inside one
/// simulator event per arrival timestamp; its span runs from the first to
/// the last pipeline call of that event (one clock read per call).
class TimedPipeline final : public ov::PipelineSupport {
 public:
  TimedPipeline(ov::PipelineSupport& inner, const vdm::sim::Simulator& sim,
                SpanLog& log, LayerStats& stats)
      : inner_(inner), sim_(sim), log_(log), stats_(stats) {}

  void start(ov::TreeWalk& walk, ov::PolicySlot& slot,
             ov::OpStats& stats) override {
    touch();
    inner_.start(walk, slot, stats);
    last_ = log_.now();
  }
  ov::TreeWalk::Action step(ov::TreeWalk& walk, ov::PolicySlot& slot,
                            ov::OpStats& stats) override {
    touch();
    const ov::TreeWalk::Action action = inner_.step(walk, slot, stats);
    last_ = log_.now();
    return action;
  }
  std::span<const ov::WalkAdoption> adoptions(
      const ov::PolicySlot& slot) const override {
    return inner_.adoptions(slot);
  }
  bool commit(ov::Session& session, net::HostId joiner, net::HostId parent,
              double parent_dist, bool parent_has_dist,
              std::span<const ov::WalkAdoption> adoptions,
              ov::OpStats& stats) override {
    touch();
    const bool ok = inner_.commit(session, joiner, parent, parent_dist,
                                  parent_has_dist, adoptions, stats);
    last_ = log_.now();
    return ok;
  }

  /// Closes the open drain span, if any.
  void close() {
    if (!open_) return;
    log_.add("walk.drain", first_, last_);
    stats_.join_s += last_ - first_;
    open_ = false;
  }

 private:
  void touch() {
    const std::uint64_t event = sim_.executed();
    if (open_ && event == event_) return;
    close();
    open_ = true;
    event_ = event;
    first_ = log_.now();
    ++stats_.drains;
  }

  ov::PipelineSupport& inner_;
  const vdm::sim::Simulator& sim_;
  SpanLog& log_;
  LayerStats& stats_;
  bool open_ = false;
  std::uint64_t event_ = 0;
  double first_ = 0.0;
  double last_ = 0.0;
};

/// Protocol decorator: a span around every execute_join / execute_refine,
/// everything else forwarded.
class TimedProtocol final : public ov::Protocol {
 public:
  TimedProtocol(ov::Protocol& inner, const vdm::sim::Simulator& sim,
                SpanLog& log, LayerStats& stats)
      : inner_(inner), sim_(sim), log_(log), stats_(stats) {}

  std::string_view name() const override { return inner_.name(); }
  ov::OpStats execute_join(ov::Session& session, net::HostId joiner,
                           net::HostId start) override {
    ++stats_.join_calls;
    const ScopedSpan span(log_, "walk.join", stats_.join_s);
    return inner_.execute_join(session, joiner, start);
  }
  ov::OpStats execute_refine(ov::Session& session, net::HostId node) override {
    const ScopedSpan span(log_, "walk.refine", stats_.refine_s);
    return inner_.execute_refine(session, node);
  }
  bool wants_refinement() const override { return inner_.wants_refinement(); }
  vdm::sim::Time refinement_period() const override {
    return inner_.refinement_period();
  }
  ov::PipelineSupport* pipeline_support() override {
    if (!pipeline_) {
      ov::PipelineSupport* inner = inner_.pipeline_support();
      if (inner == nullptr) return nullptr;
      pipeline_ = std::make_unique<TimedPipeline>(*inner, sim_, log_, stats_);
    }
    return pipeline_.get();
  }

  void close_drain() {
    if (pipeline_) pipeline_->close();
  }

 private:
  ov::Protocol& inner_;
  const vdm::sim::Simulator& sim_;
  SpanLog& log_;
  LayerStats& stats_;
  std::unique_ptr<TimedPipeline> pipeline_;
};

std::unique_ptr<ov::Protocol> make_protocol(const ex::RunConfig& cfg) {
  if (cfg.protocol != ex::Proto::kVdm && cfg.protocol != ex::Proto::kVdmRefine) {
    throw std::invalid_argument("traced run composes VDM protocols only");
  }
  vdm::core::VdmConfig vc;
  vc.epsilon_rel = cfg.vdm_epsilon;
  vc.case2_descend_ratio = cfg.vdm_case2_descend_ratio;
  vc.refinement_period = cfg.vdm_refine_period;
  vc.refinement = cfg.protocol == ex::Proto::kVdmRefine;
  return std::make_unique<vdm::core::VdmProtocol>(vc);
}

std::unique_ptr<ov::MetricProvider> make_metric(const ex::RunConfig& cfg) {
  switch (cfg.metric) {
    case ex::Metric::kDelay:
      return std::make_unique<ov::DelayMetric>(cfg.probe_noise);
    case ex::Metric::kLoss:
      return std::make_unique<ov::LossMetric>();
    default:
      throw std::invalid_argument("traced run composes delay/loss metrics only");
  }
}

/// The scalar extraction of run_once, from the same Collector and Session
/// reads.
ex::RunResult read_result(const ex::RunConfig& cfg,
                          const vdm::metrics::Collector& collector,
                          const ov::Session& session,
                          const net::Underlay& underlay) {
  using vdm::metrics::EpochSample;
  const std::size_t n = collector.samples().size();
  const std::size_t skip = std::min(cfg.epoch_skip, n == 0 ? std::size_t{0} : n - 1);
  ex::RunResult r;
  r.stress = collector.mean_stress(skip);
  r.stress_max = collector.mean_of(
      [](const EpochSample& e) { return e.tree.stress_max; }, skip);
  r.stretch = collector.mean_stretch(skip);
  r.stretch_leaf = collector.mean_of(
      [](const EpochSample& e) { return e.tree.stretch_leaf_avg; }, skip);
  r.stretch_max = collector.mean_of(
      [](const EpochSample& e) { return e.tree.stretch_max; }, skip);
  r.stretch_min = collector.mean_of(
      [](const EpochSample& e) { return e.tree.stretch_min; }, skip);
  r.hopcount = collector.mean_hopcount(skip);
  r.hop_leaf = collector.mean_of(
      [](const EpochSample& e) { return e.tree.hop_leaf_avg; }, skip);
  r.hop_max = collector.mean_of(
      [](const EpochSample& e) { return e.tree.hop_max; }, skip);
  r.loss = collector.mean_loss(skip);
  r.overhead = collector.mean_overhead(skip);
  r.overhead_per_chunk = collector.mean_overhead_per_chunk(skip);
  r.network_usage = collector.mean_network_usage(skip);

  const auto startups = collector.startup_stats();
  r.startup_avg = startups.avg;
  r.startup_max = startups.max;
  r.startup_p50 = startups.p50;
  r.startup_p99 = startups.p99;
  if (session.join_cohort_span() > 0.0) {
    r.join_rate = static_cast<double>(session.join_cohort_size()) /
                  session.join_cohort_span();
  }
  const auto reconnects = collector.reconnect_stats();
  r.reconnect_avg = reconnects.avg;
  r.reconnect_max = reconnects.max;
  const auto detections = collector.detection_stats();
  const auto outages = collector.outage_stats();
  r.detection_avg = detections.avg;
  r.detection_max = detections.max;
  r.outage_avg = outages.avg;
  r.outage_max = outages.max;
  r.mst_ratio = cfg.compute_mst_ratio
                    ? vdm::baselines::mst_ratio(session.tree(), session.source(),
                                                underlay)
                    : 1.0;
  r.final_members = session.tree().alive_count();
  return r;
}

}  // namespace

std::unique_ptr<net::Underlay> build_underlay(const ex::RunConfig& cfg,
                                              vdm::util::Rng& topo_rng) {
  switch (cfg.substrate) {
    case ex::Substrate::kTransitStub: {
      vdm::topo::TransitStubParams tp;
      tp.loss_max = cfg.link_loss_max;
      vdm::topo::HostAttachment hp;
      hp.num_hosts = cfg.host_pool;
      hp.loss_max = 0.0;  // loss lives on router links, as in run_once
      return std::make_unique<net::GraphUnderlay>(
          vdm::topo::make_transit_stub_underlay(tp, hp, topo_rng));
    }
    case ex::Substrate::kCoordUs:
    case ex::Substrate::kCoordWorld:
    case ex::Substrate::kCoordPlane: {
      vdm::topo::CoordParams cp;
      cp.num_hosts = cfg.host_pool;
      if (cfg.substrate == ex::Substrate::kCoordPlane) {
        cp.space = vdm::topo::CoordSpace::kPlane;
      } else {
        cp.space = vdm::topo::CoordSpace::kGeo;
        cp.regions = cfg.substrate == ex::Substrate::kCoordUs
                         ? vdm::topo::us_regions()
                         : vdm::topo::world_regions();
      }
      net::CoordUnderlay::Params up;
      up.loss = cfg.link_loss_max;
      return std::make_unique<net::CoordUnderlay>(
          vdm::topo::make_coord(cp, topo_rng, up));
    }
    default:
      throw std::invalid_argument("traced run composes transit-stub/coord only");
  }
}

TracedRun traced_run(const ex::RunConfig& cfg, bool wrap_underlay) {
  if (cfg.host_pool <= cfg.scenario.target_members) {
    throw std::invalid_argument("traced run needs an explicit host_pool");
  }
  const bool slots = cfg.workload.kind == ov::WorkloadKind::kSlots;
  TracedRun out;
  LayerStats& st = out.layers;
  SpanLog log;
  const std::int32_t run_span = log.begin("run");

  // run_once's seed derivation: topology, scenario and session streams.
  const vdm::util::Rng root(cfg.seed);
  vdm::util::Rng topo_rng = root.split(1);
  vdm::util::Rng scenario_rng = root.split(2);
  const vdm::util::Rng session_rng = root.split(3);

  std::unique_ptr<net::Underlay> real;
  {
    const ScopedSpan span(log, "topology.build", st.topology_build_s);
    real = build_underlay(cfg, topo_rng);
  }
  std::optional<CountingUnderlay> counting;
  if (wrap_underlay) counting.emplace(*real, st);
  const net::Underlay& underlay =
      wrap_underlay ? static_cast<const net::Underlay&>(*counting) : *real;
  st.net_measured = wrap_underlay;

  vdm::sim::Simulator simulator;
  const std::unique_ptr<ov::Protocol> inner_protocol = make_protocol(cfg);
  TimedProtocol protocol(*inner_protocol, simulator, log, st);
  StepCounter steps(st);
  // Sequential walks report to the inner protocol's observer, pipeline
  // drains to the one on the protocol the session holds.
  inner_protocol->set_walk_observer(&steps);
  protocol.set_walk_observer(&steps);
  const std::unique_ptr<ov::MetricProvider> inner_metric = make_metric(cfg);
  const CountingMetric metric(*inner_metric, st);

  ov::SessionParams sp = cfg.session;
  sp.source = 0;
  sp.profile = true;
  ov::Session session(simulator, underlay, protocol, metric, sp, session_rng);
  vdm::metrics::Collector collector(session);
  collector.set_threads(sp.threads);

  std::vector<ov::WorkloadEvent> events;
  std::optional<ov::ScenarioDriver> driver;
  {
    const ScopedSpan span(log, "workload.setup", st.workload_setup_s);
    if (!slots) {
      ov::generate_workload(cfg.scenario, cfg.workload, cfg.host_pool,
                            sp.source, scenario_rng, events);
      st.workload_events = events.size();
    }
    driver.emplace(session, cfg.scenario, scenario_rng);
  }
  {
    const auto measure = [&](vdm::sim::Time at) {
      ++st.captures;
      const ScopedSpan span(log, "metrics.capture", st.capture_s);
      collector.capture(at);
    };
    const ScopedSpan span(log, "driver.run", st.driver_s);
    if (slots) {
      driver->run(measure);
    } else {
      driver->run_trace(events, measure);
    }
    protocol.close_drain();
  }
  driver.reset();
  {
    const ScopedSpan span(log, "metrics.final", st.final_s);
    out.result = read_result(cfg, collector, session, underlay);
  }
  st.sim_events = simulator.executed();
  st.totals = session.totals();
  st.profile = session.profile();
  st.run_s = log.end(run_span);
  session.tree().validate();
  out.spans = std::move(log.spans());
  return out;
}

void write_spans(std::ostream& os, const std::vector<Span>& spans) {
  os << "index,name,parent,start_s,end_s\n" << std::fixed << std::setprecision(9);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << i << ',' << s.name << ',' << s.parent << ',' << s.start << ','
       << s.end << '\n';
  }
}

std::vector<Scalar> scalars(const ex::RunResult& r) {
  return {{"stress", r.stress},
          {"stress_max", r.stress_max},
          {"stretch", r.stretch},
          {"stretch_leaf", r.stretch_leaf},
          {"stretch_max", r.stretch_max},
          {"stretch_min", r.stretch_min},
          {"hopcount", r.hopcount},
          {"hop_leaf", r.hop_leaf},
          {"hop_max", r.hop_max},
          {"loss", r.loss},
          {"overhead", r.overhead},
          {"overhead_per_chunk", r.overhead_per_chunk},
          {"network_usage", r.network_usage},
          {"startup_avg", r.startup_avg},
          {"startup_max", r.startup_max},
          {"startup_p50", r.startup_p50},
          {"startup_p99", r.startup_p99},
          {"join_rate", r.join_rate},
          {"reconnect_avg", r.reconnect_avg},
          {"reconnect_max", r.reconnect_max},
          {"detection_avg", r.detection_avg},
          {"detection_max", r.detection_max},
          {"outage_avg", r.outage_avg},
          {"outage_max", r.outage_max},
          {"mst_ratio", r.mst_ratio},
          {"final_members", static_cast<double>(r.final_members)}};
}

bool bitwise_equal(const ex::RunResult& a, const ex::RunResult& b) {
  const std::vector<Scalar> sa = scalars(a);
  const std::vector<Scalar> sb = scalars(b);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(sa[i].value) !=
        std::bit_cast<std::uint64_t>(sb[i].value)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
