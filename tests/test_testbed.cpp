#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "baselines/hmtp_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "testbed/controller.hpp"
#include "testbed/dot_export.hpp"
#include "testbed/node_pool.hpp"
#include "testbed/report.hpp"
#include "overlay/workload.hpp"
#include "testbed/scenario_file.hpp"
#include "util/require.hpp"

namespace vdm::testbed {
namespace {

// -------------------------------------------------------------- node pool

TEST(NodePool, HealthRatesRoughlyMatchParams) {
  util::Rng rng(1);
  PoolParams p;
  p.num_nodes = 2000;
  const NodePool pool = make_pool(p, topo::us_regions(), rng);
  const FilterReport r = filter_nodes(pool);
  EXPECT_EQ(r.total, 2000u);
  EXPECT_NEAR(static_cast<double>(r.dropped_unresponsive) / 2000.0, 0.10, 0.03);
  EXPECT_GT(r.usable, 1500u);
  EXPECT_EQ(r.total, r.usable + r.dropped_unresponsive + r.dropped_no_ping_out +
                         r.dropped_agent);
}

TEST(NodePool, UsableNodesMatchFilterCount) {
  util::Rng rng(2);
  PoolParams p;
  p.num_nodes = 300;
  const NodePool pool = make_pool(p, topo::us_regions(), rng);
  EXPECT_EQ(pool.usable_nodes().size(), filter_nodes(pool).usable);
}

TEST(NodePool, LazyNodesHaveSlownessAboveOne) {
  util::Rng rng(3);
  PoolParams p;
  p.num_nodes = 500;
  p.frac_lazy = 1.0;  // everyone lazy
  const NodePool pool = make_pool(p, topo::us_regions(), rng);
  for (const NodeHealth& h : pool.health) {
    EXPECT_GE(h.slowness, p.lazy_slowness_min);
    EXPECT_LE(h.slowness, p.lazy_slowness_max);
  }
}

TEST(NodePool, PerfectPoolKeepsEverything) {
  util::Rng rng(4);
  PoolParams p;
  p.num_nodes = 50;
  p.frac_unresponsive = p.frac_no_ping_out = p.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(p, topo::us_regions(), rng);
  EXPECT_EQ(filter_nodes(pool).usable, 50u);
}

// --------------------------------------------------------- scenario files

using Kind = overlay::WorkloadEvent::Kind;

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  for (net::HostId h = 1; h <= 30; ++h) spec.nodes.push_back(h);
  spec.members = 10;
  spec.join_phase = 100.0;
  spec.total_time = 500.0;
  spec.churn_interval = 100.0;
  spec.churn_rate = 0.2;
  return spec;
}

/// write_trace then parse_trace: the scenario-file round trip.
Scenario round_trip(const Scenario& sc) {
  std::ostringstream os;
  overlay::write_trace(os, sc.events, sc.end_time);
  Scenario back;
  back.end_time = overlay::parse_trace(os.str(), back.events);
  return back;
}

TEST(ScenarioFile, GenerateProducesWarmupThenChurn) {
  util::Rng rng(5);
  const Scenario sc = generate_scenario(small_spec(), rng);
  ASSERT_FALSE(sc.events.empty());
  EXPECT_DOUBLE_EQ(sc.end_time, 500.0);
  std::size_t joins = 0, leaves = 0;
  for (const overlay::WorkloadEvent& e : sc.events) {
    if (e.kind == Kind::kJoin) {
      ++joins;
      EXPECT_GE(e.degree, 1);
    }
    if (e.kind == Kind::kLeave) ++leaves;
  }
  EXPECT_EQ(joins, 10u + leaves);  // each leave paired with a join
  EXPECT_GT(leaves, 0u);
}

TEST(ScenarioFile, EventsAreTimeOrdered) {
  util::Rng rng(6);
  const Scenario sc = generate_scenario(small_spec(), rng);
  for (std::size_t i = 1; i < sc.events.size(); ++i) {
    EXPECT_LE(sc.events[i - 1].at, sc.events[i].at);
  }
}

TEST(ScenarioFile, NoJoinOfAlreadyJoinedNode) {
  util::Rng rng(7);
  const Scenario sc = generate_scenario(small_spec(), rng);
  std::vector<char> in(64, 0);
  for (const overlay::WorkloadEvent& e : sc.events) {
    if (e.kind == Kind::kJoin) {
      EXPECT_FALSE(in[e.host]) << "double join of " << e.host;
      in[e.host] = 1;
    } else if (e.kind == Kind::kLeave) {
      EXPECT_TRUE(in[e.host]) << "leave of absent " << e.host;
      in[e.host] = 0;
    }
  }
}

TEST(ScenarioFile, WriteParseRoundTrip) {
  util::Rng rng(8);
  const Scenario sc = generate_scenario(small_spec(), rng);
  const Scenario back = round_trip(sc);
  EXPECT_EQ(back.events, sc.events);  // full precision: bitwise equal
  EXPECT_EQ(back.end_time, sc.end_time);
}

TEST(ScenarioFile, CrashFractionTurnsDeparturesIntoCrashes) {
  ScenarioSpec spec = small_spec();
  spec.crash_fraction = 1.0;
  util::Rng rng(21);
  const Scenario sc = generate_scenario(spec, rng);
  std::size_t crashes = 0, leaves = 0;
  for (const overlay::WorkloadEvent& e : sc.events) {
    if (e.kind == Kind::kCrash) ++crashes;
    if (e.kind == Kind::kLeave) ++leaves;
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(leaves, 0u);  // every departure is ungraceful

  // crash_fraction == 0 draws nothing: the stream matches the all-graceful
  // generation from the same seed event for event.
  util::Rng rng_a(22), rng_b(22);
  const Scenario graceful = generate_scenario(small_spec(), rng_a);
  ScenarioSpec zero = small_spec();
  zero.crash_fraction = 0.0;
  const Scenario zero_sc = generate_scenario(zero, rng_b);
  EXPECT_EQ(zero_sc.events, graceful.events);
}

TEST(ScenarioFile, CrashVerbRoundTrips) {
  ScenarioSpec spec = small_spec();
  spec.crash_fraction = 0.5;
  util::Rng rng(23);
  const Scenario sc = generate_scenario(spec, rng);
  std::ostringstream os;
  overlay::write_trace(os, sc.events, sc.end_time);
  EXPECT_NE(os.str().find(",crash,"), std::string::npos);
  EXPECT_EQ(round_trip(sc).events, sc.events);
  std::vector<overlay::WorkloadEvent> out;
  EXPECT_THROW(overlay::parse_trace("1.0 crash\n", out), util::InvariantError);
}

TEST(ScenarioFile, FlashVerbRoundTrips) {
  // generate_scenario names its burst hosts the way a hand-written
  // "<t> flash <count> [degree]" line is expanded: the lowest ids no other
  // event names, in list order.
  ScenarioSpec spec = small_spec();
  spec.flash_count = 12;
  spec.flash_at = 100.0;
  util::Rng rng(29);
  const Scenario sc = generate_scenario(spec, rng);
  const auto burst = static_cast<std::size_t>(
      std::find_if(sc.events.begin(), sc.events.end(),
                   [](const overlay::WorkloadEvent& e) { return e.at == 100.0; }) -
      sc.events.begin());
  ASSERT_LE(burst + 12, sc.events.size());
  std::ostringstream text;  // the same scenario, burst written as one line
  text.precision(17);
  for (std::size_t i = 0; i < sc.events.size(); ++i) {
    const overlay::WorkloadEvent& e = sc.events[i];
    if (i == burst) text << "100 flash 12 " << e.degree << '\n';
    if (i >= burst && i < burst + 12) {
      EXPECT_EQ(e.kind, Kind::kJoin);
      EXPECT_EQ(e.at, 100.0);
      continue;
    }
    if (e.kind == Kind::kJoin) {
      text << e.at << " join " << e.host << ' ' << e.degree << '\n';
    } else {
      text << e.at << " leave " << e.host << '\n';
    }
  }
  std::vector<overlay::WorkloadEvent> parsed;
  overlay::parse_trace(text.str(), parsed);
  EXPECT_EQ(parsed, sc.events);
  EXPECT_EQ(round_trip(sc).events, sc.events);

  std::vector<overlay::WorkloadEvent> out;
  EXPECT_THROW(overlay::parse_trace("1.0 flash\n", out), util::InvariantError);
  EXPECT_THROW(overlay::parse_trace("1.0 flash 0\n", out), util::InvariantError);
}

TEST(ScenarioFile, ParserHandlesCommentsAndBlanks) {
  std::vector<overlay::WorkloadEvent> events;
  const sim::Time end_time = overlay::parse_trace(
      "# a comment\n"
      "\n"
      "1.5 join 3 4\n"
      "2.0 leave 3   # trailing comment\n"
      "9 terminate\n",
      events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].host, 3u);
  EXPECT_EQ(events[0].degree, 4);
  EXPECT_EQ(events[1].kind, Kind::kLeave);
  EXPECT_DOUBLE_EQ(end_time, 9.0);
}

TEST(ScenarioFile, ParserRejectsGarbage) {
  std::vector<overlay::WorkloadEvent> out;
  EXPECT_THROW(overlay::parse_trace("1.0 explode 3\n", out), util::InvariantError);
  EXPECT_THROW(overlay::parse_trace("1.0 join\n", out), util::InvariantError);
}

TEST(ScenarioFile, TerminateClosesTheFileAndSetsTheHorizon) {
  // write_trace closes every file with a terminate line at the horizon;
  // without one, the horizon is the last event's time.
  std::ostringstream os;
  const std::vector<overlay::WorkloadEvent> events{{5.0, Kind::kJoin, 1, 2}};
  overlay::write_trace(os, events, 7.5);
  EXPECT_NE(os.str().find("7.5,terminate\n"), std::string::npos);
  std::vector<overlay::WorkloadEvent> back;
  EXPECT_DOUBLE_EQ(overlay::parse_trace(os.str(), back), 7.5);
  EXPECT_EQ(back, events);
  EXPECT_DOUBLE_EQ(overlay::parse_trace("5 join 1 2\n", back), 5.0);
  EXPECT_THROW(overlay::write_trace(os, events, 4.0), util::InvariantError);
}

TEST(ScenarioFile, GenerateRejectsTooFewNodes) {
  util::Rng rng(9);
  ScenarioSpec spec = small_spec();
  spec.members = 100;  // > pool
  EXPECT_THROW(generate_scenario(spec, rng), util::InvariantError);
}

// -------------------------------------------------------------- controller

double sum_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(Controller, RunsScenarioAndReports) {
  util::Rng rng(10);
  PoolParams pp;
  pp.num_nodes = 40;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);

  ScenarioSpec spec;
  for (const net::HostId h : pool.usable_nodes()) {
    if (h != 0) spec.nodes.push_back(h);
  }
  spec.members = 15;
  spec.join_phase = 60.0;
  spec.total_time = 300.0;
  spec.churn_interval = 60.0;
  spec.churn_rate = 0.1;
  util::Rng scenario_rng(11);
  const Scenario sc = generate_scenario(spec, scenario_rng);

  sim::Simulator simulator;
  core::VdmProtocol vdm;
  overlay::DelayMetric metric;
  ControllerParams cp;
  cp.measure_interval = 60.0;
  MainController controller(simulator, pool.topology.underlay, vdm, metric, cp,
                            util::Rng(12));
  const SessionReport report = controller.run(sc);

  EXPECT_EQ(report.final_tree.members, 16u);
  EXPECT_GE(report.startup_times.size(), 15u);  // warmup joins + churn joins
  EXPECT_GT(report.totals.control_messages, 0u);
  EXPECT_GT(report.totals.chunks_emitted, 2000u);  // 10/s for 300s
  EXPECT_GE(report.mst_ratio, 1.0 - 1e-9);
  EXPECT_GE(report.epochs.size(), 4u);
  EXPECT_GE(report.loss_rate, 0.0);
  EXPECT_LT(report.loss_rate, 0.5);

  // Bit-exact pins, recorded while the controller dispatched scenario lines
  // through its own switch instead of the shared event executor.
  EXPECT_EQ(report.final_tree.stretch_avg, 0x1.309ad6c91f91ep+0);
  EXPECT_EQ(report.final_tree.hop_avg, 0x1.c444444444445p+1);
  EXPECT_EQ(report.loss_rate, 0x1.6c656b3a17fp-9);
  EXPECT_EQ(report.overhead, 0x1.b4a297b5b7901p-7);
  EXPECT_EQ(report.mst_ratio, 0x1.27fc45f48d32fp+0);
  EXPECT_EQ(sum_of(report.startup_times), 0x1.27e886be4a517p+2);
}

TEST(Controller, CrashScenarioWithHeartbeatsReportsDetection) {
  // The testbed route of the failure model: a generated scenario whose
  // departures all crash, driven through MainController with heartbeat
  // detection on — the report must split detection from the rejoin.
  util::Rng rng(24);
  PoolParams pp;
  pp.num_nodes = 40;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);

  ScenarioSpec spec;
  for (const net::HostId h : pool.usable_nodes()) {
    if (h != 0) spec.nodes.push_back(h);
  }
  spec.members = 15;
  spec.join_phase = 60.0;
  spec.total_time = 300.0;
  spec.churn_interval = 60.0;
  spec.churn_rate = 0.1;
  spec.crash_fraction = 1.0;
  util::Rng scenario_rng(25);
  const Scenario sc = generate_scenario(spec, scenario_rng);

  sim::Simulator simulator;
  core::VdmProtocol vdm;
  overlay::DelayMetric metric;
  ControllerParams cp;
  cp.measure_interval = 60.0;
  cp.faults.heartbeat_period = 1.0;
  cp.faults.heartbeat_misses = 3;
  cp.faults.heartbeat_timeout = 0.5;
  MainController controller(simulator, pool.topology.underlay, vdm, metric, cp,
                            util::Rng(26));
  const SessionReport report = controller.run(sc);

  EXPECT_GT(report.totals.crashes, 0u);
  ASSERT_FALSE(report.detection_times.empty());
  ASSERT_EQ(report.outage_times.size(), report.detection_times.size());
  for (std::size_t i = 0; i < report.detection_times.size(); ++i) {
    // The verdict needs a full silent streak: the first probe lands within
    // one period of the crash, then (misses - 1) more periods + timeout.
    EXPECT_GE(report.detection_times[i], 2.5);
    EXPECT_GT(report.outage_times[i], report.detection_times[i]);
  }
}

TEST(Controller, WorksWithHmtpToo) {
  util::Rng rng(13);
  PoolParams pp;
  pp.num_nodes = 30;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);
  Scenario sc;
  for (net::HostId h = 1; h <= 10; ++h) {
    sc.events.push_back({static_cast<double>(h), Kind::kJoin, h, 4});
  }
  sc.end_time = 120.0;

  sim::Simulator simulator;
  baselines::HmtpProtocol hmtp;
  overlay::DelayMetric metric;
  MainController controller(simulator, pool.topology.underlay, hmtp, metric,
                            ControllerParams{}, util::Rng(14));
  const SessionReport report = controller.run(sc);
  EXPECT_EQ(report.final_tree.members, 11u);
  EXPECT_GT(report.totals.refines_run, 0u);  // HMTP refinement timers fired
}

TEST(Controller, FlashBurstExpandsOverUnusedHosts) {
  // A hand-written scenario: 8 warmup joins, then a 15-strong flash burst.
  // The controller must expand the burst over host ids used nowhere else
  // in the scenario and attach every one of them.
  util::Rng rng(31);
  PoolParams pp;
  pp.num_nodes = 40;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);
  Scenario sc;
  sc.end_time = overlay::parse_trace(
      "1 join 1\n2 join 2\n3 join 3\n4 join 4\n"
      "5 join 5\n6 join 6\n7 join 7\n8 join 8\n"
      "20 flash 15\n"
      "120 terminate\n",
      sc.events);
  ASSERT_EQ(sc.events.size(), 23u);
  EXPECT_EQ(sc.events[8].host, 9u);   // the burst starts at the first free id
  EXPECT_EQ(sc.events[22].host, 23u);

  sim::Simulator simulator;
  core::VdmProtocol vdm;
  overlay::DelayMetric metric;
  ControllerParams cp;
  cp.join_mode = overlay::JoinMode::kConcurrent;
  MainController controller(simulator, pool.topology.underlay, vdm, metric, cp,
                            util::Rng(32));
  const SessionReport report = controller.run(sc);

  EXPECT_EQ(report.final_tree.members, 24u);  // source + 8 warmup + 15 flash
  EXPECT_EQ(report.totals.joins_completed, 23u);
  EXPECT_GE(report.startup_times.size(), 23u);

  // Bit-exact pins, recorded while the controller expanded the burst itself.
  EXPECT_EQ(report.final_tree.stretch_avg, 0x1.9216540c51158p+0);
  EXPECT_EQ(report.final_tree.hop_avg, 0x1.1bd37a6f4de9dp+2);
  EXPECT_EQ(report.loss_rate, 0x1.03ef3f146f4p-11);
  EXPECT_EQ(report.overhead, 0x1.e0d402bf5232dp-6);
  EXPECT_EQ(report.mst_ratio, 0x1.79b8d451ce13dp+0);
  EXPECT_EQ(sum_of(report.startup_times), 0x1.1c15c86d65dacp+2);
}

TEST(Controller, RejectsMoreThanTwoToThe32ChunksBeforeTheFirstEvent) {
  // 1e7 chunks/s until a terminate at 500 s is 5e9 chunks, past the 32-bit
  // per-member chunk records.
  util::Rng rng(33);
  PoolParams pp;
  pp.num_nodes = 8;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);
  Scenario sc;
  sc.end_time = overlay::parse_trace("1 join 1\n2 join 2\n500 terminate\n",
                                     sc.events);
  core::VdmProtocol vdm;
  overlay::DelayMetric metric;
  ControllerParams cp;
  cp.chunk_rate = 1e7;
  {
    sim::Simulator simulator;
    MainController controller(simulator, pool.topology.underlay, vdm, metric,
                              cp, util::Rng(34));
    try {
      controller.run(sc);
      ADD_FAILURE() << "a 5e9-chunk run was accepted";
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("chunk_rate"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(simulator.now(), 0.0);  // no event ran
  }
  // Without a data plane the rate streams nothing, so the run goes ahead.
  cp.data_plane = false;
  sim::Simulator simulator;
  MainController controller(simulator, pool.topology.underlay, vdm, metric, cp,
                            util::Rng(34));
  const SessionReport report = controller.run(sc);
  EXPECT_EQ(report.final_tree.members, 3u);
  EXPECT_EQ(report.totals.chunks_emitted, 0u);
}

TEST(Controller, RejectsACaptureCadenceThatNeverEndsBeforeTheFirstEvent) {
  // Zero, negative, NaN or infinite intervals, and a step that rounds away
  // against t, would schedule captures forever (or never step at all).
  util::Rng rng(35);
  PoolParams pp;
  pp.num_nodes = 8;
  pp.frac_unresponsive = pp.frac_no_ping_out = pp.frac_agent_broken = 0.0;
  const NodePool pool = make_pool(pp, topo::us_regions(), rng);
  Scenario sc;
  sc.end_time = overlay::parse_trace("1 join 1\n2 join 2\n500 terminate\n",
                                     sc.events);
  core::VdmProtocol vdm;
  overlay::DelayMetric metric;
  for (const double interval :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 1e-300}) {
    ControllerParams cp;
    cp.measure_interval = interval;
    sim::Simulator simulator;
    MainController controller(simulator, pool.topology.underlay, vdm, metric,
                              cp, util::Rng(36));
    const auto start = std::chrono::steady_clock::now();
    try {
      controller.run(sc);
      ADD_FAILURE() << "measure_interval " << interval << " was accepted";
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("measure_interval"), std::string::npos)
          << e.what();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
        << interval;
    EXPECT_EQ(simulator.now(), 0.0) << interval;  // no event ran
  }
}

TEST(FlakyMetric, SlowsMeasurementsOfLazyTargets) {
  const std::vector<double> delay{0.0, 0.010, 0.010, 0.0};
  const net::MatrixUnderlay u(2, delay);
  FlakyMetric flaky(std::make_unique<overlay::DelayMetric>(),
                    /*slowness=*/{1.0, 4.0}, /*noise=*/0.0);
  EXPECT_DOUBLE_EQ(flaky.measurement_time(u, 1, 0), 0.020);      // prompt target
  EXPECT_DOUBLE_EQ(flaky.measurement_time(u, 0, 1), 4 * 0.020);  // lazy target
  util::Rng rng(15);
  EXPECT_DOUBLE_EQ(flaky.measure(u, 0, 1, rng), 0.020);  // value unchanged
}

TEST(FlakyMetric, NoiseVariesMeasurements) {
  const std::vector<double> delay{0.0, 0.010, 0.010, 0.0};
  const net::MatrixUnderlay u(2, delay);
  FlakyMetric flaky(std::make_unique<overlay::DelayMetric>(), {1.0, 1.0}, 0.2);
  util::Rng rng(16);
  const double a = flaky.measure(u, 0, 1, rng);
  const double b = flaky.measure(u, 0, 1, rng);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------------ report

TEST(Report, ContinentOfParsesPrefix) {
  EXPECT_EQ(continent_of("US-West"), "US");
  EXPECT_EQ(continent_of("EU-North"), "EU");
  EXPECT_EQ(continent_of("Oceania"), "Oceania");
}

TEST(Report, ClusterStatsCountEdges) {
  util::Rng rng(17);
  topo::GeoParams gp;
  gp.num_hosts = 6;
  gp.regions = topo::world_regions();
  topo::GeoTopology geo = topo::make_geo(gp, rng);

  overlay::Membership tree(6);
  for (net::HostId h = 0; h < 6; ++h) tree.activate(h, 8);
  for (net::HostId h = 1; h < 6; ++h) tree.attach(h, 0, 1.0);
  const ClusterStats stats = cluster_stats(tree, 0, geo);
  EXPECT_EQ(stats.edges, 5u);
  EXPECT_EQ(stats.intra_region + stats.cross_continent +
                (stats.intra_continent - stats.intra_region),
            5u);
}

TEST(Report, DotExportIsWellFormed) {
  util::Rng rng(20);
  topo::GeoParams gp;
  gp.num_hosts = 5;
  topo::GeoTopology geo = topo::make_geo(gp, rng);
  overlay::Membership tree(5);
  for (net::HostId h = 0; h < 5; ++h) tree.activate(h, 8);
  tree.attach(1, 0, 1.0);
  tree.attach(2, 1, 1.0);
  tree.attach(3, 0, 1.0);
  std::ostringstream os;
  write_dot(tree, 0, geo, os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n3"), std::string::npos);
  EXPECT_EQ(dot.find("n4"), std::string::npos);  // detached host not drawn
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // source marked
  EXPECT_NE(dot.find("ms\""), std::string::npos);          // edge delays
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Report, DotExportWithoutGeoOmitsRegions) {
  overlay::Membership tree(3);
  for (net::HostId h = 0; h < 3; ++h) tree.activate(h, 8);
  tree.attach(1, 0, 1.0);
  tree.attach(2, 1, 1.0);
  const std::vector<double> delay{0.0, 0.01, 0.02, 0.01, 0.0, 0.01, 0.02, 0.01, 0.0};
  const net::MatrixUnderlay u(3, delay);
  std::ostringstream os;
  DotOptions opts;
  opts.edge_delays = false;
  write_dot(tree, 0, u, os, opts);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
  EXPECT_EQ(dot.find("ms"), std::string::npos);
  EXPECT_EQ(dot.find("US-"), std::string::npos);
}

TEST(Report, RenderTreeShowsAllNodes) {
  util::Rng rng(18);
  topo::GeoParams gp;
  gp.num_hosts = 4;
  topo::GeoTopology geo = topo::make_geo(gp, rng);
  overlay::Membership tree(4);
  for (net::HostId h = 0; h < 4; ++h) tree.activate(h, 8);
  tree.attach(1, 0, 1.0);
  tree.attach(2, 1, 1.0);
  tree.attach(3, 0, 1.0);
  const std::string out = render_tree(tree, 0, geo);
  EXPECT_NE(out.find("node 0"), std::string::npos);
  EXPECT_NE(out.find("(source)"), std::string::npos);
  EXPECT_NE(out.find("node 2"), std::string::npos);
  EXPECT_NE(out.find("node 3"), std::string::npos);
}

}  // namespace
}  // namespace vdm::testbed
