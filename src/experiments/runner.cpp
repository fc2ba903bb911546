#include "experiments/runner.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "baselines/btp_protocol.hpp"
#include "baselines/hmtp_protocol.hpp"
#include "baselines/mst_overlay.hpp"
#include "baselines/random_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "net/coord_underlay.hpp"
#include "sim/simulator.hpp"
#include "topology/coord.hpp"
#include "topology/geo.hpp"
#include "topology/transit_stub.hpp"
#include "topology/waxman.hpp"
#include "util/require.hpp"

namespace vdm::experiments {

namespace {

std::size_t auto_pool(const overlay::ScenarioParams& scenario) {
  // Enough spare hosts that churn joiners never exhaust the pool: target
  // members + source + 60% slack (the paper drew 200 members from 792
  // router attachment points). Flash arrivals come on top, one host each.
  return scenario.target_members + scenario.flash_count + 1 +
         std::max<std::size_t>(8, scenario.target_members * 3 / 5);
}

topo::TransitStubParams transit_stub_params(const RunConfig& cfg) {
  topo::TransitStubParams tp;
  if (cfg.routers > 0) {
    // Scale the stub tier to approximate the requested router count
    // while keeping the paper's 4x6 transit core.
    const std::size_t transit = tp.transit_domains * tp.routers_per_transit;
    if (cfg.routers > transit) {
      const std::size_t stub_total = cfg.routers - transit;
      tp.routers_per_stub = std::max<std::size_t>(
          2, stub_total / (transit * tp.stub_domains_per_transit_router));
    }
  }
  tp.loss_max = cfg.link_loss_max;
  return tp;
}

topo::GeoParams geo_params(const RunConfig& cfg, std::size_t pool) {
  topo::GeoParams gp;
  gp.num_hosts = pool;
  gp.regions = cfg.substrate == Substrate::kGeoUs ? topo::us_regions()
                                                  : topo::world_regions();
  if (cfg.link_loss_max > 0.0) {
    gp.loss_noise = cfg.link_loss_max;
    gp.loss_max = cfg.link_loss_max;
  }
  return gp;
}

std::unique_ptr<overlay::Protocol> build_protocol(const RunConfig& cfg) {
  std::unique_ptr<overlay::Protocol> protocol;
  core::VdmConfig vc;
  vc.epsilon_rel = cfg.vdm_epsilon;
  vc.case2_descend_ratio = cfg.vdm_case2_descend_ratio;
  vc.refinement_period = cfg.vdm_refine_period;
  switch (cfg.protocol) {
    case Proto::kVdm:
      protocol = std::make_unique<core::VdmProtocol>(vc);
      break;
    case Proto::kVdmRefine:
      vc.refinement = true;
      protocol = std::make_unique<core::VdmProtocol>(vc);
      break;
    case Proto::kHmtp: {
      baselines::HmtpConfig hc;
      hc.refinement = cfg.hmtp_refinement;
      hc.refinement_period = cfg.hmtp_refine_period;
      hc.u_turn_rule = cfg.hmtp_u_turn_rule;
      hc.foster_child = cfg.hmtp_foster_child;
      protocol = std::make_unique<baselines::HmtpProtocol>(hc);
      break;
    }
    case Proto::kBtp:
      protocol = std::make_unique<baselines::BtpProtocol>();
      break;
    case Proto::kRandom:
      protocol = std::make_unique<baselines::RandomProtocol>();
      break;
  }
  VDM_REQUIRE_MSG(protocol != nullptr, "unknown protocol");
  protocol->set_walk_observer(cfg.walk_observer);
  return protocol;
}

std::unique_ptr<overlay::MetricProvider> build_metric(const RunConfig& cfg,
                                                      const sim::Reactor& clock) {
  switch (cfg.metric) {
    case Metric::kDelay:
      return std::make_unique<overlay::DelayMetric>(cfg.probe_noise);
    case Metric::kLoss:
      return std::make_unique<overlay::LossMetric>();
    case Metric::kBlend:
      return std::make_unique<overlay::BlendMetric>(0.5, 0.5);
    case Metric::kCachedDelay:
      return std::make_unique<overlay::CachedMetric>(
          std::make_unique<overlay::DelayMetric>(cfg.probe_noise), clock,
          cfg.metric_cache_ttl);
    case Metric::kCachedLoss:
      return std::make_unique<overlay::CachedMetric>(
          std::make_unique<overlay::LossMetric>(), clock, cfg.metric_cache_ttl);
  }
  VDM_REQUIRE_MSG(false, "unknown metric");
  return nullptr;
}

}  // namespace

struct RunScratch::Impl {
  // Router-graph substrates: the underlay keeps the graph, router caches and
  // host list between runs; release()/rebind() shuttles the graph buffers
  // through the topology generators, which rebuild them in place.
  std::optional<net::GraphUnderlay> graph_underlay;
  topo::TransitStubTopology ts;
  topo::WaxmanTopology wax;
  std::vector<net::NodeId> hosts;
  std::vector<net::NodeId> all_routers;

  // Matrix substrates: the delay/loss matrices shuttle the same way.
  std::optional<net::MatrixUnderlay> matrix_underlay;
  std::vector<topo::GeoHost> geo_hosts;
  std::vector<double> geo_delay;
  std::vector<double> geo_loss;

  // Coordinate substrates: two coordinate arrays, O(N) total — what lets
  // run_once reach 100k+ hosts without an O(N^2) delay matrix.
  std::optional<net::CoordUnderlay> coord_underlay;
  std::vector<double> coord_x;
  std::vector<double> coord_y;

  metrics::CollectorScratch collector;

  /// The event queue itself: reset() between runs keeps the slab/heap
  /// capacity a previous run grew (simulator.hpp).
  sim::Simulator simulator;

  /// Membership-process buffers: the slot compiler's pool, member list and
  /// heap, the executor's member flags and the event list.
  overlay::ScenarioScratch scenario;

  /// Everything a Session grows (tree, walk buffers, placement index, event
  /// paths), swapped into each run's Session for its lifetime.
  overlay::Session::Scratch session;

  /// Prim working set for the end-of-run MST ratio.
  topo::MstScratch mst;

  /// Cached protocol / metric objects, rebuilt only when the config fields
  /// that shape them change — the steady-state bench loop (identical config
  /// every iteration) reuses them. Protocols carry no behavior-affecting run
  /// state, so reuse cannot perturb results. CachedMetric is deliberately
  /// NOT cached: its time-stamped measurement cache must not survive a
  /// simulator reset.
  struct ProtocolKey {
    Proto protocol;
    double vdm_epsilon, vdm_case2_descend_ratio;
    sim::Time vdm_refine_period;
    bool hmtp_refinement;
    sim::Time hmtp_refine_period;
    bool hmtp_u_turn_rule, hmtp_foster_child;
    bool operator==(const ProtocolKey&) const = default;
  };
  std::optional<ProtocolKey> protocol_key;
  std::unique_ptr<overlay::Protocol> protocol;

  struct MetricKey {
    Metric metric;
    double probe_noise;
    bool operator==(const MetricKey&) const = default;
  };
  std::optional<MetricKey> metric_key;
  std::unique_ptr<overlay::MetricProvider> metric;

  std::uint64_t grow_events = 0;
  std::size_t high_water = 0;

  std::size_t capacity_bytes() const {
    std::size_t bytes = collector.capacity_bytes();
    bytes += simulator.capacity_bytes();
    bytes += scenario.capacity_bytes();
    bytes += session.capacity_bytes();
    bytes += mst.capacity_bytes();
    if (graph_underlay) bytes += graph_underlay->arena_capacity_bytes();
    if (matrix_underlay) bytes += matrix_underlay->arena_capacity_bytes();
    if (coord_underlay) bytes += coord_underlay->arena_capacity_bytes();
    bytes += (coord_x.capacity() + coord_y.capacity()) * sizeof(double);
    bytes += ts.graph.capacity_bytes() + wax.graph.capacity_bytes();
    bytes += (ts.transit_routers.capacity() + ts.stub_routers.capacity() +
              ts.order_scratch.capacity() + ts.stub_scratch.capacity() +
              hosts.capacity() + all_routers.capacity()) *
             sizeof(net::NodeId);
    bytes += ts.transit_scratch.capacity() * sizeof(std::vector<net::NodeId>);
    for (const std::vector<net::NodeId>& d : ts.transit_scratch) {
      bytes += d.capacity() * sizeof(net::NodeId);
    }
    bytes += ts.stub_domain_of.capacity() * sizeof(std::uint32_t);
    bytes += wax.coords.capacity() * sizeof(std::pair<double, double>);
    bytes += geo_hosts.capacity() * sizeof(topo::GeoHost);
    bytes += (geo_delay.capacity() + geo_loss.capacity()) * sizeof(double);
    return bytes;
  }
};

RunScratch::RunScratch() : impl_(std::make_unique<Impl>()) {}
RunScratch::~RunScratch() = default;
RunScratch::RunScratch(RunScratch&&) noexcept = default;
RunScratch& RunScratch::operator=(RunScratch&&) noexcept = default;

std::uint64_t RunScratch::grow_events() const { return impl_->grow_events; }
std::size_t RunScratch::capacity_bytes() const { return impl_->capacity_bytes(); }

namespace {

/// Builds (or rebuilds in place) the run's substrate inside the scratch and
/// returns a pointer into it. Same rng draws as the value-returning
/// generator compositions, so results match the scratch-free path bit for
/// bit.
net::Underlay* build_underlay(const RunConfig& cfg, std::size_t pool,
                              util::Rng& rng, RunScratch::Impl& s) {
  switch (cfg.substrate) {
    case Substrate::kTransitStub: {
      const topo::TransitStubParams tp = transit_stub_params(cfg);
      topo::HostAttachment hp;
      hp.num_hosts = pool;
      hp.loss_max = 0.0;  // loss lives on router links, as in Chapter 4
      if (s.graph_underlay) s.graph_underlay->release(s.ts.graph, s.hosts);
      topo::make_transit_stub(tp, rng, s.ts);
      topo::attach_hosts_into(s.ts.graph, s.ts.stub_routers, hp, rng, s.hosts);
      if (s.graph_underlay) {
        s.graph_underlay->rebind(std::move(s.ts.graph), std::move(s.hosts));
      } else {
        s.graph_underlay.emplace(std::move(s.ts.graph), std::move(s.hosts));
      }
      return &*s.graph_underlay;
    }
    case Substrate::kWaxman: {
      topo::WaxmanParams wp;
      if (cfg.routers > 0) wp.num_routers = cfg.routers;
      wp.loss_max = cfg.link_loss_max;
      if (s.graph_underlay) s.graph_underlay->release(s.wax.graph, s.hosts);
      topo::make_waxman(wp, rng, s.wax);
      s.all_routers.clear();
      s.all_routers.reserve(s.wax.graph.num_nodes());
      for (net::NodeId v = 0; v < s.wax.graph.num_nodes(); ++v) {
        s.all_routers.push_back(v);
      }
      topo::HostAttachment hp;
      hp.num_hosts = pool;
      topo::attach_hosts_into(s.wax.graph, s.all_routers, hp, rng, s.hosts);
      if (s.graph_underlay) {
        s.graph_underlay->rebind(std::move(s.wax.graph), std::move(s.hosts));
      } else {
        s.graph_underlay.emplace(std::move(s.wax.graph), std::move(s.hosts));
      }
      return &*s.graph_underlay;
    }
    case Substrate::kGeoUs:
    case Substrate::kGeoWorld: {
      const topo::GeoParams gp = geo_params(cfg, pool);
      if (s.matrix_underlay) s.matrix_underlay->release(s.geo_delay, s.geo_loss);
      topo::make_geo_into(gp, rng, s.geo_hosts, s.geo_delay, s.geo_loss);
      if (s.matrix_underlay) {
        s.matrix_underlay->rebind(pool, std::move(s.geo_delay),
                                  std::move(s.geo_loss));
      } else {
        s.matrix_underlay.emplace(pool, std::move(s.geo_delay),
                                  std::move(s.geo_loss));
      }
      return &*s.matrix_underlay;
    }
    case Substrate::kCoordUs:
    case Substrate::kCoordWorld:
    case Substrate::kCoordPlane: {
      topo::CoordParams cp;
      cp.num_hosts = pool;
      if (cfg.substrate == Substrate::kCoordPlane) {
        cp.space = topo::CoordSpace::kPlane;
      } else {
        cp.space = topo::CoordSpace::kGeo;
        cp.regions = cfg.substrate == Substrate::kCoordUs
                         ? topo::us_regions()
                         : topo::world_regions();
      }
      net::CoordUnderlay::Params up;
      up.space = cp.space == topo::CoordSpace::kGeo
                     ? net::CoordUnderlay::Space::kSpherical
                     : net::CoordUnderlay::Space::kEuclidean;
      // Coordinate delays are deterministic, so loss is the one knob left:
      // a uniform per-pair drop probability.
      up.loss = cfg.link_loss_max;
      if (s.coord_underlay) s.coord_underlay->release(s.coord_x, s.coord_y);
      topo::make_coord_into(cp, rng, s.coord_x, s.coord_y);
      if (s.coord_underlay) {
        s.coord_underlay->rebind(up, std::move(s.coord_x), std::move(s.coord_y));
      } else {
        s.coord_underlay.emplace(up, std::move(s.coord_x), std::move(s.coord_y));
      }
      return &*s.coord_underlay;
    }
  }
  VDM_REQUIRE_MSG(false, "unknown substrate");
  return nullptr;
}

/// Returns the arena's protocol object, rebuilding it only when the config
/// fields it is constructed from changed since the previous run.
overlay::Protocol& cached_protocol(RunScratch::Impl& s, const RunConfig& cfg) {
  const RunScratch::Impl::ProtocolKey key{
      cfg.protocol,
      cfg.vdm_epsilon,
      cfg.vdm_case2_descend_ratio,
      cfg.vdm_refine_period,
      cfg.hmtp_refinement,
      cfg.hmtp_refine_period,
      cfg.hmtp_u_turn_rule,
      cfg.hmtp_foster_child};
  if (!s.protocol || s.protocol_key != key) {
    s.protocol = build_protocol(cfg);
    s.protocol_key = key;
  }
  // A per-run hook, not a construction parameter — refresh on cache hits.
  s.protocol->set_walk_observer(cfg.walk_observer);
  return *s.protocol;
}

/// Same for the metric provider. The time-stamped CachedMetric variants are
/// always rebuilt: their measurement cache must not survive the simulator
/// reset (entries stamped by a previous run would read as fresh).
overlay::MetricProvider& cached_metric(RunScratch::Impl& s, const RunConfig& cfg,
                                       const sim::Reactor& clock) {
  if (cfg.metric == Metric::kCachedDelay || cfg.metric == Metric::kCachedLoss) {
    s.metric = build_metric(cfg, clock);
    s.metric_key.reset();
    return *s.metric;
  }
  const RunScratch::Impl::MetricKey key{cfg.metric, cfg.probe_noise};
  if (!s.metric || s.metric_key != key) {
    s.metric = build_metric(cfg, clock);
    s.metric_key = key;
  }
  return *s.metric;
}

std::size_t host_pool(const RunConfig& config) {
  return config.host_pool > 0 ? config.host_pool : auto_pool(config.scenario);
}

/// The one list builder behind run_once and workload_events: loads the
/// trace, or generates the list from the scenario rng stream (split 2) over
/// the run's host pool, source at host 0. Fills scratch.events.
void build_events(const RunConfig& config, overlay::ScenarioScratch& scratch) {
  if (config.workload.kind == overlay::WorkloadKind::kTrace) {
    overlay::load_trace_file(config.workload.trace_path, scratch.events);
    return;
  }
  util::Rng scenario_rng = util::Rng(config.seed).split(2);
  overlay::generate_workload(config.scenario, config.workload, host_pool(config),
                             /*source=*/0, scenario_rng, scratch);
}

}  // namespace

void workload_events(const RunConfig& config,
                     std::vector<overlay::WorkloadEvent>& out) {
  overlay::ScenarioScratch scratch;
  scratch.events = std::move(out);
  build_events(config, scratch);
  out = std::move(scratch.events);
}

RunResult run_once(const RunConfig& config) {
  RunScratch scratch;
  return run_once(config, scratch);
}

RunResult run_once(const RunConfig& config, RunScratch& scratch) {
  util::Rng root(config.seed);
  util::Rng topo_rng = root.split(1);
  util::Rng session_rng = root.split(3);

  const std::size_t pool = host_pool(config);
  VDM_REQUIRE(pool > config.scenario.target_members);
  VDM_REQUIRE_MSG(config.link_loss_max >= 0.0, "link_loss_max must not be negative");
  VDM_REQUIRE_MSG(std::isfinite(config.probe_noise) && config.probe_noise >= 0.0,
                  "probe_noise must be finite and >= 0");

  net::Underlay* underlay = build_underlay(config, pool, topo_rng, *scratch.impl_);
  overlay::Protocol& protocol = cached_protocol(*scratch.impl_, config);

  sim::Simulator& simulator = scratch.impl_->simulator;
  simulator.reset();  // keep slab/heap capacity, drop any previous run's state
  overlay::MetricProvider& metric = cached_metric(*scratch.impl_, config, simulator);
  overlay::SessionParams sp = config.session;
  sp.source = 0;
  overlay::Session session(simulator, *underlay, protocol, metric, sp, session_rng);
  session.set_journal(config.journal);
  // Adopt the arena's warm buffers; swapped back after the final metrics read.
  session.swap_scratch(scratch.impl_->session);
  metrics::Collector collector(session, scratch.impl_->collector);
  collector.set_threads(sp.threads);
  double metrics_secs = 0.0;  // --profile: wall clock of the capture sweeps
  {
    // Every workload kind becomes an event list before the driver runs it;
    // running a list draws no randomness, so a replayed trace reproduces
    // the generating run bit for bit.
    overlay::ScenarioScratch& scenario = scratch.impl_->scenario;
    build_events(config, scenario);
    overlay::ScenarioDriver driver(session, config.scenario, root.split(2),
                                   &scenario);
    // After the driver's scenario checks, so a non-finite total_time is
    // named as such rather than as too many chunks.
    overlay::check_chunk_budget(sp, config.scenario.total_time);
    // Two 8-byte captures on purpose: MeasureFn is a std::function, and a
    // third capture would spill the lambda past the small-buffer limit —
    // one heap allocation per run, which the zero-alloc arena contract
    // (tests/test_alloc_budget.cpp) forbids.
    double* const metrics_sink = sp.profile ? &metrics_secs : nullptr;
    const auto measure = [&collector, metrics_sink](sim::Time at) {
      if (metrics_sink == nullptr) {
        collector.capture(at);
        return;
      }
      const auto t0 = std::chrono::steady_clock::now();
      collector.capture(at);
      *metrics_sink +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    };
    driver.run_trace(scenario.events, measure);
  }

  const std::size_t skip =
      std::min(config.epoch_skip, collector.samples().empty()
                                      ? std::size_t{0}
                                      : collector.samples().size() - 1);
  RunResult r;
  r.stress = collector.mean_stress(skip);
  r.stress_max = collector.mean_of(
      [](const metrics::EpochSample& e) { return e.tree.stress_max; }, skip);
  r.stretch = collector.mean_stretch(skip);
  r.stretch_leaf = collector.mean_of(
      [](const metrics::EpochSample& e) { return e.tree.stretch_leaf_avg; }, skip);
  r.stretch_max = collector.mean_of(
      [](const metrics::EpochSample& e) { return e.tree.stretch_max; }, skip);
  r.stretch_min = collector.mean_of(
      [](const metrics::EpochSample& e) { return e.tree.stretch_min; }, skip);
  r.hopcount = collector.mean_hopcount(skip);
  r.hop_leaf = collector.mean_of(
      [](const metrics::EpochSample& e) { return e.tree.hop_leaf_avg; }, skip);
  r.hop_max = collector.mean_of(
      [](const metrics::EpochSample& e) { return e.tree.hop_max; }, skip);
  r.loss = collector.mean_loss(skip);
  r.overhead = collector.mean_overhead(skip);
  r.overhead_per_chunk = collector.mean_overhead_per_chunk(skip);
  r.network_usage = collector.mean_network_usage(skip);

  const metrics::Collector::EventTimingStats startups = collector.startup_stats();
  const metrics::Collector::EventTimingStats reconnects =
      collector.reconnect_stats();
  r.startup_avg = startups.avg;
  r.startup_max = startups.max;
  r.startup_p50 = startups.p50;
  r.startup_p99 = startups.p99;
  if (session.join_cohort_span() > 0.0) {
    r.join_rate = static_cast<double>(session.join_cohort_size()) /
                  session.join_cohort_span();
  }
  r.reconnect_avg = reconnects.avg;
  r.reconnect_max = reconnects.max;
  const metrics::Collector::EventTimingStats detections =
      collector.detection_stats();
  const metrics::Collector::EventTimingStats outages = collector.outage_stats();
  r.detection_avg = detections.avg;
  r.detection_max = detections.max;
  r.outage_avg = outages.avg;
  r.outage_max = outages.max;

  r.mst_ratio = config.compute_mst_ratio
                    ? baselines::mst_ratio(session.tree(), session.source(),
                                           *underlay, scratch.impl_->mst)
                    : 1.0;
  r.final_members = session.tree().alive_count();
  r.sim_events = simulator.executed();
  r.sim_periodic_fires = simulator.periodic_fires();
  const std::optional<net::GraphUnderlay>& graph = scratch.impl_->graph_underlay;
  if (graph && underlay == &*graph) {
    r.net_trees = graph->router().trees_computed();
    r.net_settled = graph->router().vertices_settled();
  }
  r.totals = session.totals();
  r.profile_join_secs = session.profile().join_secs;
  r.profile_refine_secs = session.profile().refine_secs;
  r.profile_flood_secs = session.profile().flood_secs;
  r.profile_metrics_secs = metrics_secs;
  if (config.keep_epochs) {
    const std::span<const metrics::EpochSample> epochs = collector.samples();
    r.epochs.assign(epochs.begin(), epochs.end());
  }
  // Final metrics are read; return the warm buffers to the arena so their
  // capacity survives into the next run (and is counted below).
  session.swap_scratch(scratch.impl_->session);

  // Arena-growth accounting: a run that ends with more reserved bytes than
  // any run before it grew some buffer. Steady-state sweeps (same-shaped
  // configs on one worker) must not move this counter after their first run.
  const std::size_t cap = scratch.impl_->capacity_bytes();
  if (cap > scratch.impl_->high_water) {
    ++scratch.impl_->grow_events;
    scratch.impl_->high_water = cap;
  }
  return r;
}

std::size_t default_seeds(std::size_t fast, std::size_t full) {
  if (const char* env = std::getenv("VDM_FULL")) {
    if (env[0] == '1') return full;
  }
  return fast;
}

}  // namespace vdm::experiments
