#include "overlay/scenario.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/vdm_protocol.hpp"
#include "helpers.hpp"
#include "util/require.hpp"

namespace vdm::overlay {
namespace {

TEST(DegreeSpec, UniformSamplesWithinBounds) {
  const DegreeSpec spec = DegreeSpec::uniform(2, 5);
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int d = spec.sample(rng);
    EXPECT_GE(d, 2);
    EXPECT_LE(d, 5);
  }
  EXPECT_DOUBLE_EQ(spec.mean(), 3.5);
}

TEST(DegreeSpec, UniformRejectsBadBounds) {
  EXPECT_THROW(DegreeSpec::uniform(0, 3), util::InvariantError);
  EXPECT_THROW(DegreeSpec::uniform(4, 3), util::InvariantError);
}

TEST(DegreeSpec, FractionalAverageRealized) {
  const DegreeSpec spec = DegreeSpec::average(1.25);
  util::Rng rng(2);
  long sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const int d = spec.sample(rng);
    EXPECT_TRUE(d == 1 || d == 2);
    sum += d;
  }
  EXPECT_NEAR(static_cast<double>(sum) / kN, 1.25, 0.01);
  EXPECT_DOUBLE_EQ(spec.mean(), 1.25);
}

TEST(DegreeSpec, IntegralAverageIsConstant) {
  const DegreeSpec spec = DegreeSpec::average(3.0);
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(spec.sample(rng), 3);
}

TEST(DegreeSpec, AverageBelowOneRejected) {
  EXPECT_THROW(DegreeSpec::average(0.5), util::InvariantError);
}

// ----------------------------------------------------------- driver

struct DriverFixture {
  sim::Simulator sim;
  net::MatrixUnderlay underlay;
  core::VdmProtocol vdm;
  DelayMetric metric;
  Session session;

  explicit DriverFixture(std::size_t hosts, std::uint64_t seed = 1)
      : underlay(make_underlay(hosts)),
        session(sim, underlay, vdm, metric, make_params(), util::Rng(seed)) {}

  static net::MatrixUnderlay make_underlay(std::size_t n) {
    // Hosts on a line, 1ms apart, so joins are fast and deterministic.
    std::vector<double> pos(n);
    for (std::size_t i = 0; i < n; ++i) pos[i] = 0.001 * static_cast<double>(i + 1) * 2.0;
    pos[0] = 0.0;
    return testutil::line_underlay(pos);
  }

  static SessionParams make_params() {
    SessionParams sp;
    sp.source = 0;
    sp.chunk_rate = 1.0;
    sp.paranoid_checks = true;
    return sp;
  }
};

ScenarioParams small_scenario() {
  ScenarioParams p;
  p.target_members = 10;
  p.join_phase = 100.0;
  p.total_time = 500.0;
  p.churn_interval = 100.0;
  p.settle_time = 20.0;
  p.churn_rate = 0.2;
  return p;
}

TEST(ScenarioDriver, MaintainsTargetMembership) {
  DriverFixture f(20);
  ScenarioDriver driver(f.session, small_scenario(), util::Rng(7));
  std::vector<std::size_t> sizes;
  driver.run([&](sim::Time) { sizes.push_back(driver.members_alive()); });
  ASSERT_FALSE(sizes.empty());
  for (const std::size_t s : sizes) EXPECT_EQ(s, 10u);
}

TEST(ScenarioDriver, MeasurementCountMatchesSlots) {
  DriverFixture f(20);
  const ScenarioParams p = small_scenario();
  ScenarioDriver driver(f.session, p, util::Rng(8));
  int measures = 0;
  driver.run([&](sim::Time) { ++measures; });
  // One after the join phase + one per complete churn slot:
  // slots start at 120 and need 100 each within 500 -> 120, 220, 320, 420.
  EXPECT_EQ(measures, 1 + 3);
}

TEST(ScenarioDriver, MeasurementsHappenAtSettledInstants) {
  DriverFixture f(20);
  const ScenarioParams p = small_scenario();
  ScenarioDriver driver(f.session, p, util::Rng(9));
  std::vector<sim::Time> at;
  driver.run([&](sim::Time t) { at.push_back(t); });
  ASSERT_GE(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[0], p.join_phase + p.settle_time);
  for (std::size_t i = 1; i < at.size(); ++i) {
    EXPECT_DOUBLE_EQ(at[i] - at[i - 1], p.churn_interval);
  }
}

TEST(ScenarioDriver, TreeStaysValidUnderChurn) {
  DriverFixture f(25);
  ScenarioParams p = small_scenario();
  p.churn_rate = 0.3;
  ScenarioDriver driver(f.session, p, util::Rng(10));
  driver.run([&](sim::Time) {
    f.session.tree().validate();
    // Every alive member must be attached at measurement time.
    for (const net::HostId h : f.session.tree().alive_members()) {
      if (h == f.session.source()) continue;
      EXPECT_NE(f.session.tree().member(h).parent, net::kInvalidHost);
    }
  });
}

TEST(ScenarioDriver, DeterministicForSameSeed) {
  auto run_one = [] {
    DriverFixture f(20, 5);
    ScenarioDriver driver(f.session, small_scenario(), util::Rng(11));
    driver.run([](sim::Time) {});
    std::vector<net::HostId> parents;
    for (net::HostId h = 0; h < 20; ++h) {
      parents.push_back(f.session.tree().member(h).alive
                            ? f.session.tree().member(h).parent
                            : net::kInvalidHost);
    }
    return parents;
  };
  EXPECT_EQ(run_one(), run_one());
}

TEST(ScenarioDriver, BatchedJoinsMode) {
  DriverFixture f(20);
  ScenarioParams p;
  p.target_members = 12;
  p.batched_joins = true;
  p.batch_size = 4;
  p.churn_interval = 50.0;
  p.settle_time = 10.0;
  p.total_time = 400.0;
  ScenarioDriver driver(f.session, p, util::Rng(12));
  std::vector<std::size_t> sizes;
  driver.run([&](sim::Time) { sizes.push_back(driver.members_alive()); });
  ASSERT_EQ(sizes.size(), 3u);  // 12 members / 4 per batch
  EXPECT_EQ(sizes[0], 4u);
  EXPECT_EQ(sizes[1], 8u);
  EXPECT_EQ(sizes[2], 12u);
}

TEST(ScenarioDriver, RejectsBadConfigs) {
  DriverFixture f(10);
  ScenarioParams p = small_scenario();
  p.target_members = 10;  // == pool -> no slack for churn
  EXPECT_THROW(ScenarioDriver(f.session, p, util::Rng(1)), util::InvariantError);
  p.target_members = 5;
  p.settle_time = p.churn_interval;
  EXPECT_THROW(ScenarioDriver(f.session, p, util::Rng(1)), util::InvariantError);
}

TEST(CheckScenario, RejectsNonFiniteTimesNamingTheField) {
  const ScenarioParams ok = small_scenario();
  EXPECT_NO_THROW(check_scenario(ok, 64));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    sim::Time ScenarioParams::* field;
    const char* name;
  };
  for (const Case c : {Case{&ScenarioParams::join_phase, "join_phase"},
                       Case{&ScenarioParams::total_time, "total_time"},
                       Case{&ScenarioParams::churn_interval, "churn_interval"},
                       Case{&ScenarioParams::settle_time, "settle_time"}}) {
    for (const double bad : {inf, -inf, nan}) {
      ScenarioParams p = ok;
      p.*c.field = bad;
      try {
        check_scenario(p, 64);
        ADD_FAILURE() << c.name << " = " << bad << " accepted";
      } catch (const util::InvariantError& e) {
        EXPECT_NE(std::string(e.what()).find(c.name), std::string::npos)
            << e.what();
      }
    }
  }
  // flash_at matters only when a flash crowd is scheduled.
  ScenarioParams p = ok;
  p.flash_at = nan;
  EXPECT_NO_THROW(check_scenario(p, 64));
  p.flash_count = 4;
  for (const double bad : {nan, inf, -1.0}) {
    p.flash_at = bad;
    try {
      check_scenario(p, 64);
      ADD_FAILURE() << "flash_at = " << bad << " accepted";
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("flash_at"), std::string::npos)
          << e.what();
    }
  }
  p.flash_at = 0.0;
  EXPECT_NO_THROW(check_scenario(p, 64));
}

TEST(ScenarioDriver, ZeroChurnKeepsInitialMembers) {
  DriverFixture f(15);
  ScenarioParams p = small_scenario();
  p.churn_rate = 0.0;
  ScenarioDriver driver(f.session, p, util::Rng(13));
  driver.run([](sim::Time) {});
  EXPECT_EQ(f.session.totals().reconnects_completed, 0u);
  EXPECT_EQ(f.session.totals().joins_completed, 10u);
}

TEST(ScenarioDriver, FullChurnHoldsSteadyMembership) {
  // churn_rate 1.0 replaces the entire membership every slot. Before the
  // joiner draw was made conditional on a successful victim draw, any
  // skipped departure still admitted its replacement and membership crept
  // upward; this pins the steady-state count at the maximum churn rate.
  DriverFixture f(25);
  ScenarioParams p = small_scenario();
  p.churn_rate = 1.0;
  ScenarioDriver driver(f.session, p, util::Rng(21));
  std::vector<std::size_t> sizes;
  driver.run([&](sim::Time) { sizes.push_back(driver.members_alive()); });
  ASSERT_EQ(sizes.size(), 4u);
  for (const std::size_t s : sizes) EXPECT_EQ(s, 10u);
  // Three full-replacement slots really happened (10 leaves + 10 joins each).
  EXPECT_EQ(f.session.totals().joins_completed, 10u + 30u);
}

TEST(ScenarioDriver, AdversarialIntervalStaysOnExactGrid) {
  // 0.1 is inexact in binary; accumulating `slot += interval` 10k times
  // drifts off the grid and eventually gains or loses a slot against the
  // closed form. The driver must place slot i at exactly
  // first_slot + i * interval.
  DriverFixture f(10);
  ScenarioParams p;
  p.target_members = 5;
  p.join_phase = 1.0;
  p.total_time = 1000.0;
  p.churn_interval = 0.1;
  p.settle_time = 0.02;
  p.churn_rate = 0.0;
  ScenarioDriver driver(f.session, p, util::Rng(22));
  std::vector<sim::Time> at;
  driver.run([&](sim::Time t) { at.push_back(t); });

  const sim::Time first = p.join_phase + p.settle_time;
  std::size_t expected = 1;  // measurement closing the join phase
  for (std::size_t i = 0;; ++i) {
    const sim::Time slot = first + static_cast<double>(i) * p.churn_interval;
    if (!(slot + p.churn_interval <= p.total_time)) break;
    ++expected;
  }
  ASSERT_EQ(at.size(), expected);
  EXPECT_GT(at.size(), 9000u);
  for (std::size_t i = 0; i < at.size(); ++i) {
    // Exact (bitwise) equality with the closed-form grid, not EXPECT_NEAR:
    // drift is precisely the regression this guards against.
    ASSERT_EQ(at[i], first + static_cast<double>(i) * p.churn_interval)
        << "measurement " << i << " off the closed-form slot grid";
  }
}

TEST(ScenarioDriver, PoolExhaustionReportsClearError) {
  // 11 usable hosts, 5 steady members + a 6-host flash crowd: the first
  // churn slot's joiner finds the pool empty. The failure must name the
  // budget that overflowed, not just trip an anonymous invariant.
  DriverFixture f(12);
  ScenarioParams p = small_scenario();
  p.target_members = 5;
  p.flash_count = 6;
  p.flash_at = 50.0;
  try {
    ScenarioDriver driver(f.session, p, util::Rng(23));
    driver.run([](sim::Time) {});
    FAIL() << "expected host-pool exhaustion";
  } catch (const util::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("host pool exhausted"),
              std::string::npos)
        << e.what();
  }
}

// ----------------------------------------------------------- trace mode

TEST(ScenarioDriver, TraceModeReplaysExplicitEvents) {
  DriverFixture f(20);
  ScenarioParams p = small_scenario();
  ScenarioDriver driver(f.session, p, util::Rng(24));
  using K = WorkloadEvent::Kind;
  const std::vector<WorkloadEvent> events{
      {10.0, K::kJoin, 1, 3},  {20.0, K::kJoin, 2, 4}, {30.0, K::kJoin, 3, 4},
      {40.0, K::kJoin, 4, 2},  {200.0, K::kLeave, 2, 4},
      {250.0, K::kCrash, 3, 4},
      // Host 2 rejoins after leaving: legal within one trace.
      {300.0, K::kJoin, 2, 4},
  };
  std::vector<sim::Time> at;
  std::vector<std::size_t> sizes;
  driver.run_trace(events, [&](sim::Time t) {
    at.push_back(t);
    sizes.push_back(driver.members_alive());
  });
  // Same settled measurement grid as the slot timeline.
  ASSERT_EQ(at.size(), 4u);
  EXPECT_DOUBLE_EQ(at[0], p.join_phase + p.settle_time);
  EXPECT_EQ(sizes[0], 4u);           // after the four joins
  EXPECT_EQ(sizes.back(), 3u);       // leave + crash + rejoin
  EXPECT_EQ(f.session.totals().joins_completed, 5u);
  f.session.tree().validate();
}

TEST(ScenarioDriver, TraceModeIsDeterministic) {
  // The trace path draws no randomness: two replays with different driver
  // rng seeds produce identical trees.
  auto run_one = [](std::uint64_t driver_seed) {
    DriverFixture f(20, 5);
    ScenarioDriver driver(f.session, small_scenario(), util::Rng(driver_seed));
    using K = WorkloadEvent::Kind;
    const std::vector<WorkloadEvent> events{
        {10.0, K::kJoin, 1, 3},   {20.0, K::kJoin, 2, 4},
        {30.0, K::kJoin, 3, 5},   {150.0, K::kLeave, 1, 4},
        {220.0, K::kJoin, 6, 2},
    };
    driver.run_trace(events, [](sim::Time) {});
    std::vector<net::HostId> parents;
    for (net::HostId h = 0; h < 20; ++h) {
      parents.push_back(f.session.tree().member(h).alive
                            ? f.session.tree().member(h).parent
                            : net::kInvalidHost);
    }
    return parents;
  };
  EXPECT_EQ(run_one(100), run_one(200));
}

TEST(ScenarioDriver, TraceModeRejectsBadTraces) {
  using K = WorkloadEvent::Kind;
  const auto expect_throw_with = [](const std::vector<WorkloadEvent>& events,
                                    const std::string& needle) {
    DriverFixture f(20);
    ScenarioDriver driver(f.session, small_scenario(), util::Rng(25));
    try {
      driver.run_trace(events, [](sim::Time) {});
      FAIL() << "expected InvariantError mentioning: " << needle;
    } catch (const util::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_throw_with({{20.0, K::kJoin, 1, 4}, {10.0, K::kJoin, 2, 4}},
                    "sorted");
  expect_throw_with({{10.0, K::kJoin, 1, 4}, {20.0, K::kJoin, 1, 4}},
                    "already a member");
  expect_throw_with({{10.0, K::kLeave, 1, 4}}, "not a member");
  expect_throw_with({{10.0, K::kCrash, 1, 4}}, "not a member");
}

}  // namespace
}  // namespace vdm::overlay
