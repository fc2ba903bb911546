// The membership journal: what a run changed in the tree and when. Checks
// that recording perturbs nothing, that the diff helper names the first
// event two runs part on, and pins the structure of every transit-stub
// golden corner, so a change that must move their delay-derived scalars
// (the dyadic delay grid) can show it moved no tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "experiments/runner.hpp"
#include "journal_diff.hpp"
#include "overlay/journal.hpp"
#include "overlay/workload.hpp"
#include "walk_golden_configs.hpp"

namespace vdm::overlay {
namespace {

using testutil::first_difference;
using testutil::JournalDiff;

experiments::RunConfig corner(const std::string& name) {
  for (const testutil::NamedRunConfig& c : testutil::walk_golden_configs()) {
    if (c.name == name) return c.cfg;
  }
  ADD_FAILURE() << "no golden corner " << name;
  return {};
}

JournalRow row(double t, JournalRow::Kind kind, net::HostId child,
               net::HostId parent) {
  return {t, kind, child, parent};
}

TEST(Journal, FirstDifferenceTellsStructureFromTime) {
  using K = JournalRow::Kind;
  const std::vector<JournalRow> base = {row(1.0, K::kAttach, 1, 0),
                                        row(2.0, K::kAttach, 2, 1),
                                        row(3.0, K::kDetach, 2, 1)};
  EXPECT_EQ(first_difference(base, base).kind, JournalDiff::Kind::kNone);

  std::vector<JournalRow> later = base;
  later[1].t = 2.5;
  const JournalDiff time = first_difference(base, later);
  EXPECT_EQ(time.kind, JournalDiff::Kind::kTime);
  EXPECT_EQ(time.row, 1u);

  std::vector<JournalRow> moved = later;
  moved[2].parent = 0;  // a structural change after a time-only one
  EXPECT_EQ(first_difference(later, moved).row, 2u);
  EXPECT_EQ(first_difference(later, moved).kind, JournalDiff::Kind::kStructure);
  EXPECT_EQ(first_difference(base, moved).row, 1u);

  const std::vector<JournalRow> prefix(base.begin(), base.begin() + 2);
  const JournalDiff ended = first_difference(base, prefix);
  EXPECT_EQ(ended.kind, JournalDiff::Kind::kStructure);
  EXPECT_EQ(ended.row, 2u);
  EXPECT_EQ(testutil::describe(ended, base, prefix),
            "row #2 differs in structure: detach 2 -> 1 at 0x1.8p+1 vs (end)");
}

TEST(Journal, KeepsTheFirstRunItIsStartedFor) {
  experiments::RunConfig cfg = corner("degree2-vdm");
  MembershipJournal journal;
  cfg.journal = &journal;
  (void)experiments::run_once(cfg);
  const std::vector<JournalRow> first = journal.rows();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.front().kind, JournalRow::Kind::kAttach);
  EXPECT_EQ(first.front().parent, 0u);  // the first joiner hangs off the source

  cfg.seed += 1;
  (void)experiments::run_once(cfg);
  EXPECT_EQ(first_difference(first, journal.rows()).kind, JournalDiff::Kind::kNone);

  MembershipJournal fresh;
  cfg.journal = &fresh;
  (void)experiments::run_once(cfg);
  EXPECT_NE(first_difference(first, fresh.rows()).kind, JournalDiff::Kind::kNone);
}

TEST(Journal, RunsWithAndWithoutTheJournalAreBitIdentical) {
  // Lossy flood, heartbeats over lossy control, concurrent batches on a
  // coordinate underlay, and refinement on the geo matrix.
  for (const char* name :
       {"fig3-vdm", "crash-hmtp", "flash-heartbeat-vdm", "fig5-vdmr"}) {
    experiments::RunConfig cfg = corner(name);
    const experiments::RunResult plain = experiments::run_once(cfg);
    MembershipJournal journal;
    cfg.journal = &journal;
    const experiments::RunResult journaled = experiments::run_once(cfg);
    EXPECT_FALSE(journal.rows().empty()) << name;
    const std::vector<double> want = testutil::run_result_scalars(plain);
    const std::vector<double> got = testutil::run_result_scalars(journaled);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << name << " scalar #" << i;
    }
    EXPECT_EQ(journaled.sim_events, plain.sim_events) << name;
    EXPECT_EQ(journaled.net_trees, plain.net_trees) << name;
  }
}

TEST(Journal, FirstDifferenceNamesTheShiftedEventOfAReplayedTrace) {
  // Replays one lossless transit-stub run's event list twice, the second
  // time with one join moved later inside its gap to the next event: the
  // journals part first at that join's attach, in time only.
  experiments::RunConfig cfg;
  cfg.substrate = experiments::Substrate::kTransitStub;
  cfg.scenario.target_members = 24;
  cfg.scenario.churn_rate = 0.1;
  cfg.compute_mst_ratio = false;
  cfg.seed = 5;
  std::vector<WorkloadEvent> events;
  experiments::workload_events(cfg, events);
  ASSERT_GT(events.size(), 30u);

  // A mid-run join whose successor is at least a second away.
  std::size_t k = events.size() / 2;
  while (k + 1 < events.size() &&
         (events[k].kind != WorkloadEvent::Kind::kJoin ||
          events[k + 1].at - events[k].at < 1.0)) {
    ++k;
  }
  ASSERT_LT(k + 1, events.size());
  const net::HostId shifted = events[k].host;

  const auto journal_of = [&](const std::vector<WorkloadEvent>& list,
                              const std::string& file) {
    const std::string path = testing::TempDir() + file;
    write_trace_file(path, list, cfg.scenario.total_time);
    experiments::RunConfig replay = cfg;
    EXPECT_TRUE(parse_workload_kind("trace:" + path, replay.workload));
    MembershipJournal journal;
    replay.journal = &journal;
    (void)experiments::run_once(replay);
    return journal.rows();
  };
  const std::vector<JournalRow> base = journal_of(events, "journal_base.csv");
  events[k].at += 0.5;
  const std::vector<JournalRow> moved = journal_of(events, "journal_moved.csv");

  const JournalDiff d = first_difference(base, moved);
  const std::string text = testutil::describe(d, base, moved);
  ASSERT_EQ(d.kind, JournalDiff::Kind::kTime) << text;
  EXPECT_EQ(base[d.row].kind, JournalRow::Kind::kAttach) << text;
  EXPECT_EQ(base[d.row].child, shifted) << text;
  EXPECT_EQ(moved[d.row].t - base[d.row].t, 0.5) << text;
}

/// The journal of each transit-stub golden corner, recorded before the
/// dyadic delay grid: its row count and structure hash.
struct JournalPin {
  const char* name;
  std::size_t rows;
  std::uint64_t structure_hash;
};

constexpr JournalPin kTransitStubPins[] = {
    {"fig3-vdm", 514, 0xac7e1d0f444d4e01},
    {"fig3-hmtp", 789, 0x11395e6eab14f57},
    {"fig3-btp", 715, 0xa5aff952a429318d},
    {"fig3-random", 335, 0x5fa03373589ba419},
    {"degree2-vdm", 263, 0x1adf410d9cdcb23c},
    {"degree2-hmtp", 248, 0xc4402ff36eb0e437},
    {"degree2-btp", 185, 0x47f406c6b1a95df5},
    {"degree2-random", 159, 0xbf4db7968e22ef71},
    {"crash-vdm", 470, 0xb7e192f6abda73be},
    {"crash-hmtp", 714, 0x5cbfe908bd38a49b},
    {"fig4-batched-vdml", 224, 0x6f8314b7f8c00cea},
};

class JournalPins : public ::testing::TestWithParam<std::size_t> {};

TEST_P(JournalPins, TransitStubCornerChangesTheTreeAsBeforeTheGrid) {
  const JournalPin& pin = kTransitStubPins[GetParam()];
  experiments::RunConfig cfg = corner(pin.name);
  ASSERT_EQ(cfg.substrate, experiments::Substrate::kTransitStub);
  MembershipJournal journal;
  cfg.journal = &journal;
  (void)experiments::run_once(cfg);
  EXPECT_EQ(journal.rows().size(), pin.rows) << pin.name;
  const std::uint64_t hash = testutil::structure_hash(journal.rows());
  EXPECT_EQ(hash, pin.structure_hash) << pin.name << " hash 0x" << std::hex << hash;
}

INSTANTIATE_TEST_SUITE_P(
    GoldenCorners, JournalPins,
    ::testing::Range(std::size_t{0}, std::size(kTransitStubPins)),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      std::string name = kTransitStubPins[param_info.param].name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace vdm::overlay
