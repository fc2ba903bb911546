#include "overlay/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/runner.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "walk_golden_configs.hpp"

namespace vdm::overlay {
namespace {

using K = WorkloadEvent::Kind;

ScenarioParams small_scenario() {
  ScenarioParams p;
  p.target_members = 40;
  p.join_phase = 500.0;
  p.total_time = 8000.0;
  p.churn_interval = 250.0;
  p.settle_time = 50.0;
  return p;
}

WorkloadParams poisson(double mean_session = 1500.0) {
  WorkloadParams w;
  w.kind = WorkloadKind::kPoisson;
  w.mean_session = mean_session;
  return w;
}

/// Walks the event list as the driver would and returns the member count
/// at every measurement-grid instant of `p`.
std::vector<std::size_t> membership_at_grid(
    const ScenarioParams& p, const std::vector<WorkloadEvent>& events) {
  std::vector<sim::Time> grid{p.join_phase + p.settle_time};
  for (std::size_t i = 0;; ++i) {
    const sim::Time slot =
        grid.front() + static_cast<double>(i) * p.churn_interval;
    if (!(slot + p.churn_interval <= p.total_time)) break;
    grid.push_back(slot + p.churn_interval);
  }
  std::vector<std::size_t> members;
  std::size_t alive = 0, next = 0;
  for (const sim::Time t : grid) {
    while (next < events.size() && events[next].at <= t) {
      alive += events[next].kind == K::kJoin ? 1 : std::size_t(-1);
      ++next;
    }
    members.push_back(alive);
  }
  return members;
}

// ----------------------------------------------------------- generator

TEST(WorkloadGenerator, EventsSortedAndBalanced) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(1);
  const ScenarioParams p = small_scenario();
  generate_workload(p, poisson(), 200, 0, rng, events);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const WorkloadEvent& a, const WorkloadEvent& b) { return a.at < b.at; }));
  std::size_t joins = 0, departures = 0;
  for (const WorkloadEvent& ev : events) {
    EXPECT_LE(ev.at, p.total_time);
    EXPECT_LT(ev.host, 200u);
    EXPECT_NE(ev.host, 0u);  // the source never appears in a workload
    if (ev.kind == K::kJoin) {
      EXPECT_GE(ev.degree, 1);
      ++joins;
    } else {
      ++departures;
    }
  }
  // Every departure belongs to an earlier join; some members outlive the run.
  EXPECT_GE(joins, departures);
  EXPECT_GE(joins, p.target_members);
}

TEST(WorkloadGenerator, PoissonHoversAroundTarget) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(2);
  const ScenarioParams p = small_scenario();
  generate_workload(p, poisson(), 400, 0, rng, events);
  const std::vector<std::size_t> members = membership_at_grid(p, events);
  ASSERT_GT(members.size(), 10u);
  // Little's law pins the steady state at target_members; allow wide
  // stochastic slack but reject drift to half or double the target.
  for (std::size_t i = 1; i < members.size(); ++i) {
    EXPECT_GT(members[i], p.target_members / 2) << "at grid point " << i;
    EXPECT_LT(members[i], p.target_members * 2) << "at grid point " << i;
  }
}

TEST(WorkloadGenerator, DiurnalWaveModulatesArrivals) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(3);
  ScenarioParams p = small_scenario();
  p.total_time = 20000.0;
  WorkloadParams w;
  w.kind = WorkloadKind::kDiurnal;
  w.mean_session = 1500.0;
  w.diurnal_period = 20000.0 - p.join_phase;  // one full wave after joining
  w.diurnal_amplitude = 1.0;
  generate_workload(p, w, 400, 0, rng, events);
  // Arrival counts over the crest half vs the trough half of the sine.
  std::size_t crest = 0, trough = 0;
  const double half = p.join_phase + w.diurnal_period / 2.0;
  for (const WorkloadEvent& ev : events) {
    if (ev.kind != K::kJoin || ev.at <= p.join_phase) continue;
    (ev.at < half ? crest : trough) += 1;
  }
  ASSERT_GT(crest + trough, 50u);
  EXPECT_GT(crest, trough * 2);
}

TEST(WorkloadGenerator, CrashFractionProducesCrashes) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(4);
  ScenarioParams p = small_scenario();
  p.crash_fraction = 1.0;
  generate_workload(p, poisson(), 400, 0, rng, events);
  std::size_t leaves = 0, crashes = 0;
  for (const WorkloadEvent& ev : events) {
    leaves += ev.kind == K::kLeave;
    crashes += ev.kind == K::kCrash;
  }
  EXPECT_EQ(leaves, 0u);
  EXPECT_GT(crashes, 0u);
}

TEST(WorkloadGenerator, FlashCrowdJoinsAtOneInstant) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(5);
  ScenarioParams p = small_scenario();
  p.flash_count = 25;
  p.flash_at = 300.0;
  generate_workload(p, poisson(), 400, 0, rng, events);
  std::size_t flash = 0;
  for (const WorkloadEvent& ev : events) {
    if (ev.at == 300.0 && ev.kind == K::kJoin) ++flash;
  }
  EXPECT_GE(flash, 25u);
}

TEST(WorkloadGenerator, SameSeedSameList) {
  const ScenarioParams p = small_scenario();
  std::vector<WorkloadEvent> a, b;
  util::Rng ra(7), rb(7);
  generate_workload(p, poisson(), 300, 0, ra, a);
  generate_workload(p, poisson(), 300, 0, rb, b);
  EXPECT_EQ(a, b);
}

TEST(WorkloadGenerator, RejectsBadParameters) {
  std::vector<WorkloadEvent> out;
  util::Rng rng(8);
  const ScenarioParams p = small_scenario();
  WorkloadParams w = poisson();
  w.kind = WorkloadKind::kTrace;  // loaded from a file, never generated
  EXPECT_THROW(generate_workload(p, w, 200, 0, rng, out),
               util::InvariantError);
  w = poisson(0.0);
  EXPECT_THROW(generate_workload(p, w, 200, 0, rng, out),
               util::InvariantError);
  w = poisson();
  w.kind = WorkloadKind::kPareto;
  w.pareto_alpha = 1.0;  // mean session length would not exist
  EXPECT_THROW(generate_workload(p, w, 200, 0, rng, out),
               util::InvariantError);
}

TEST(WorkloadGenerator, SlotTimelineCompilesToASortedListAtTarget) {
  // kSlots compiles the paper's timeline: the list is time-ordered, every
  // departure pairs with a replacement join, and membership sits exactly
  // at target_members at every measurement point.
  std::vector<WorkloadEvent> events;
  util::Rng rng(11);
  ScenarioParams p = small_scenario();
  p.churn_rate = 0.1;
  WorkloadParams slots;
  slots.kind = WorkloadKind::kSlots;
  generate_workload(p, slots, 200, 0, rng, events);
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const WorkloadEvent& a, const WorkloadEvent& b) { return a.at < b.at; }));
  std::size_t joins = 0, departures = 0;
  for (const WorkloadEvent& ev : events) {
    EXPECT_LE(ev.at, p.total_time);
    EXPECT_NE(ev.host, 0u);
    (ev.kind == K::kJoin ? joins : departures) += 1;
  }
  EXPECT_GT(departures, 0u);
  EXPECT_EQ(joins, p.target_members + departures);
  for (const std::size_t members : membership_at_grid(p, events)) {
    EXPECT_EQ(members, p.target_members);
  }
  std::vector<WorkloadEvent> again;
  util::Rng rng2(11);
  generate_workload(p, slots, 200, 0, rng2, again);
  EXPECT_EQ(events, again);
}

// ----------------------------------------------------------- trace IO

TEST(WorkloadTrace, RoundTripIsExact) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(9);
  generate_workload(small_scenario(), poisson(), 300, 0, rng, events);
  std::ostringstream os;
  write_trace(os, events, small_scenario().total_time);
  std::vector<WorkloadEvent> back;
  EXPECT_EQ(parse_trace(os.str(), back), small_scenario().total_time);
  // Full-precision doubles round-trip bitwise, so the lists are equal —
  // the property the bit-identical replay guarantee rests on.
  EXPECT_EQ(events, back);
}

TEST(WorkloadTrace, ParserAcceptsCommasSpacesAndComments) {
  std::vector<WorkloadEvent> out;
  const sim::Time end_time = parse_trace(std::string("# header comment\n"
                                                     "10.5,join,3,5\n"
                                                     "20 join 4\n"
                                                     "  \n"
                                                     "30,leave,3\n"
                                                     "40\tcrash 4\r\n"
                                                     "99 terminate\n"),
                                         out);
  EXPECT_EQ(end_time, 99.0);
  const std::vector<WorkloadEvent> expected{
      {10.5, K::kJoin, 3, 5},
      {20.0, K::kJoin, 4, 4},  // degree defaults to 4
      {30.0, K::kLeave, 3, 4},
      {40.0, K::kCrash, 4, 4},
  };
  EXPECT_EQ(out, expected);
}

TEST(WorkloadTrace, ParserRejectsMalformedWithLineNumber) {
  // Each bad line must fail naming its line and the offending part — never
  // be skipped or coerced. Line 3 follows two good lines at t = 1 and 2.
  struct Case {
    std::string text;
    const char* needle;
  };
  const std::string good = "1 join 1\n2 join 2\n";
  const Case cases[] = {
      {"10,hop,3\n", "line 1: unknown event kind 'hop'"},
      {"# ok\n10,join\n", "line 2: join needs a host"},
      {"10,join,3\n5,leave,3\n", "line 2: time 5 is below the previous"},
      {"1 join 1\n5 terminate\n6 join 2\n", "line 3: event after terminate"},
      {good + "abc join 3\n", "line 3: time 'abc'"},
      {good + "nan join 3\n", "line 3: time 'nan'"},
      {good + "inf join 3\n", "line 3: time 'inf'"},
      {good + "1e400 join 3\n", "line 3: time '1e400'"},
      {good + "-1 join 3\n", "line 3: time '-1'"},
      {good + "3 join 4294967297\n", "line 3: host '4294967297'"},
      {good + "3 join 4294967295\n", "line 3: host '4294967295'"},
      {good + "3 join -3\n", "line 3: host '-3'"},
      {good + "3 join 3 abc\n", "line 3: degree 'abc'"},
      {good + "3 join 3 4.5\n", "line 3: degree '4.5'"},
      {good + "3 join 3 0\n", "line 3: degree '0'"},
      {good + "3 leave 3 9\n", "line 3: extra field '9'"},
      {good + "3 join 3 4 junk\n", "line 3: extra field 'junk'"},
      {good + "3 terminate 0\n", "line 3: extra field '0'"},
      {good + "3 flash 0\n", "line 3: count '0'"},
      {good + "3 flash x\n", "line 3: count 'x'"},
      {good + "3 flash 4000000000\n", "line 3: flash lines add more than"},
      {good + "3 flash 1048576\n4 flash 1\n", "line 4: flash lines add more than"},
      {good + "3\n", "line 3: missing the event kind"},
  };
  std::vector<WorkloadEvent> out;
  for (const Case& c : cases) {
    try {
      parse_trace(c.text, out);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << c.text << "-> " << e.what();
    }
  }
}

TEST(WorkloadTrace, FlashLinesExpandOverUnusedHosts) {
  std::vector<WorkloadEvent> out;
  const sim::Time end_time = parse_trace(
      "0 join 1\n1 flash 3 2\n2 join 3\n3 flash 1\n4 leave 1\n9 terminate\n",
      out);
  const std::vector<WorkloadEvent> expected{
      {0.0, K::kJoin, 1, 4}, {1.0, K::kJoin, 2, 2}, {1.0, K::kJoin, 4, 2},
      {1.0, K::kJoin, 5, 2}, {2.0, K::kJoin, 3, 4}, {3.0, K::kJoin, 6, 4},
      {4.0, K::kLeave, 1, 4},
  };
  EXPECT_EQ(out, expected);  // ids 1 and 3 are named elsewhere
  EXPECT_EQ(end_time, 9.0);
}

TEST(WorkloadTrace, FileRoundTrip) {
  std::vector<WorkloadEvent> events;
  util::Rng rng(10);
  generate_workload(small_scenario(), poisson(), 300, 0, rng, events);
  const std::string path = testing::TempDir() + "vdm_workload_trace.csv";
  write_trace_file(path, events, small_scenario().total_time);
  std::vector<WorkloadEvent> back;
  EXPECT_EQ(load_trace_file(path, back), small_scenario().total_time);
  EXPECT_EQ(events, back);
  EXPECT_THROW(load_trace_file(path + ".missing", back), util::InvariantError);
}

TEST(WorkloadTrace, TestbedScenarioFileLoadsCsvTraces) {
  // One grammar: a CSV trace and a space-separated testbed scenario file
  // with the same events load to the same list and horizon.
  std::vector<WorkloadEvent> csv, scenario;
  const sim::Time csv_end = parse_trace(
      "# vdm membership events\n10,join,3,5\n30,leave,3\n40,terminate\n", csv);
  const sim::Time scenario_end =
      parse_trace("10 join 3 5\n30 leave 3\n40 terminate\n", scenario);
  EXPECT_EQ(csv, scenario);
  EXPECT_EQ(csv_end, scenario_end);
  ASSERT_EQ(csv.size(), 2u);
  EXPECT_EQ(csv[0], (WorkloadEvent{10.0, K::kJoin, 3, 5}));
  EXPECT_EQ(csv[1].kind, K::kLeave);
}

TEST(WorkloadKindFlag, ParsesAllSpellings) {
  WorkloadParams w;
  EXPECT_TRUE(parse_workload_kind("slots", w));
  EXPECT_EQ(w.kind, WorkloadKind::kSlots);
  EXPECT_TRUE(parse_workload_kind("poisson", w));
  EXPECT_EQ(w.kind, WorkloadKind::kPoisson);
  EXPECT_TRUE(parse_workload_kind("diurnal", w));
  EXPECT_TRUE(parse_workload_kind("pareto", w));
  EXPECT_TRUE(parse_workload_kind("trace:/tmp/t.csv", w));
  EXPECT_EQ(w.kind, WorkloadKind::kTrace);
  EXPECT_EQ(w.trace_path, "/tmp/t.csv");
  EXPECT_FALSE(parse_workload_kind("weibull", w));
  EXPECT_EQ(w.kind, WorkloadKind::kTrace);  // untouched on failure
  EXPECT_EQ(workload_kind_name(WorkloadKind::kDiurnal), "diurnal");
}

// ----------------------------------------------------------- runner replay

experiments::RunConfig runner_config() {
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.routers = 60;
  cfg.scenario.target_members = 15;
  cfg.scenario.join_phase = 200.0;
  cfg.scenario.total_time = 1600.0;
  cfg.scenario.churn_interval = 200.0;
  cfg.scenario.settle_time = 50.0;
  cfg.scenario.churn_rate = 0.1;
  cfg.session.chunk_rate = 1.0;
  cfg.workload = poisson(600.0);
  cfg.seed = 11;
  return cfg;
}

TEST(WorkloadRunner, TraceReplayIsBitIdenticalToGeneratedRun) {
  // Every list builder replays bit for bit: the slot-mode golden corners,
  // the batched corner and a Poisson config each save their event list as
  // a trace and replay it, equal to the original on every scalar.
  std::vector<testutil::NamedRunConfig> configs;
  for (const testutil::NamedRunConfig& c : testutil::walk_golden_configs()) {
    if (c.cfg.workload.kind == WorkloadKind::kSlots) configs.push_back(c);
  }
  configs.push_back({"poisson", runner_config()});
  for (const testutil::NamedRunConfig& c : configs) {
    SCOPED_TRACE(c.name);
    const experiments::RunResult generated = experiments::run_once(c.cfg);
    std::vector<WorkloadEvent> events;
    experiments::workload_events(c.cfg, events);
    ASSERT_FALSE(events.empty());
    const std::string path = testing::TempDir() + "vdm_replay_trace.csv";
    write_trace_file(path, events, c.cfg.scenario.total_time);
    experiments::RunConfig replay = c.cfg;
    replay.workload.kind = WorkloadKind::kTrace;
    replay.workload.trace_path = path;
    const std::vector<double> want =
        testutil::run_result_scalars(generated);
    const std::vector<double> got =
        testutil::run_result_scalars(experiments::run_once(replay));
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "scalar #" << i;
    }
  }
}

TEST(WorkloadRunner, TrajectoryFollowsMeasurementGrid) {
  experiments::RunConfig cfg = runner_config();
  cfg.keep_epochs = true;
  const experiments::RunResult r = experiments::run_once(cfg);
  ASSERT_FALSE(r.epochs.empty());
  const sim::Time first = cfg.scenario.join_phase + cfg.scenario.settle_time;
  for (std::size_t i = 0; i < r.epochs.size(); ++i) {
    const metrics::EpochSample& e = r.epochs[i];
    EXPECT_EQ(e.at,
              first + static_cast<double>(i) * cfg.scenario.churn_interval);
    EXPECT_GE(e.loss_rate, 0.0);  // continuity 1 - loss_rate lies in [0, 1]
    EXPECT_LE(e.loss_rate, 1.0);
    EXPECT_GE(e.overhead, 0.0);
    EXPECT_GT(e.members, 0u);  // at least the source is alive
  }
}

TEST(WorkloadRunner, SlotModeUnaffectedByWorkloadParams) {
  // kSlots ignores the generator knobs entirely — the classic timeline
  // stays bit-identical no matter what the workload block says.
  experiments::RunConfig a = runner_config();
  a.workload = WorkloadParams{};
  experiments::RunConfig b = a;
  b.workload.mean_session = 1.0;
  b.workload.pareto_alpha = 9.0;
  const experiments::RunResult ra = experiments::run_once(a);
  const experiments::RunResult rb = experiments::run_once(b);
  EXPECT_EQ(ra.loss, rb.loss);
  EXPECT_EQ(ra.stretch, rb.stretch);
  EXPECT_EQ(ra.overhead, rb.overhead);
  EXPECT_EQ(ra.final_members, rb.final_members);
}

}  // namespace
}  // namespace vdm::overlay
