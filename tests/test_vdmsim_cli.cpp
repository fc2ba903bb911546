// Runs the real vdmsim binary on bad input: malformed numbers and configs
// the library rejects must end in a one-line error and exit status 2, never
// in std::terminate. The binary path is injected by CMake
// (VDMSIM_BINARY_PATH), the same way test_vdmd_loopback finds vdmd.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_vdmsim(const std::string& args) {
  const std::string cmd =
      std::string(VDMSIM_BINARY_PATH) + " " + args + " --quiet 2>&1";
  CliResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(VdmsimCli, NonNumberExitsTwoNamingTheFlag) {
  const CliResult r = run_vdmsim("--members abc");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_TRUE(contains(r.output, "--members")) << r.output;
  EXPECT_FALSE(contains(r.output, "terminate")) << r.output;
}

TEST(VdmsimCli, TrailingGarbageExitsTwo) {
  const CliResult r = run_vdmsim("--chunk-rate 2x");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_TRUE(contains(r.output, "--chunk-rate")) << r.output;
}

TEST(VdmsimCli, NegativeCountExitsTwoNamingTheFlag) {
  // A sign must not wrap to ~2^64 seeds (std::length_error at the parent).
  const CliResult r = run_vdmsim("--seeds -2");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_TRUE(contains(r.output, "--seeds")) << r.output;
  EXPECT_FALSE(contains(r.output, "terminate")) << r.output;
}

TEST(VdmsimCli, RejectedConfigExitsTwo) {
  // Each input, and the field its message must name ("" = not checked).
  const std::pair<const char*, const char*> cases[] = {
      {"--members 0 --seeds 1", ""},
      {"--chunk-rate 0 --seeds 1", ""},
      // Out-of-range loss, buffer, noise and control-loss values.
      {"--members 16 --seeds 1 --link-loss -0.1", ""},
      {"--members 16 --seeds 1 --buffer -1", ""},
      // An infinite playout buffer used to hide every outage (loss 0).
      {"--members 16 --seeds 1 --buffer inf", "buffer_seconds"},
      {"--members 16 --seeds 1 --probe-noise -1", ""},
      {"--members 16 --seeds 1 --control-loss -0.5", ""},
      {"--members 16 --seeds 1 --control-loss 1.5", ""},
      // Heartbeat settings: a period that is not a finite, non-negative
      // number (NaN used to index an unsized slab), and with heartbeats
      // on, a miss count below 1 or a bad verdict timeout.
      {"--members 16 --seeds 1 --heartbeat-period nan", "heartbeat_period"},
      {"--members 16 --seeds 1 --heartbeat-period inf", "heartbeat_period"},
      {"--members 16 --seeds 1 --heartbeat-period -1", "heartbeat_period"},
      {"--members 16 --seeds 1 --heartbeat-period 1 --heartbeat-misses 0",
       "heartbeat_misses"},
      {"--members 16 --seeds 1 --heartbeat-period 1 --heartbeat-misses -2",
       "heartbeat_misses"},
      {"--members 16 --seeds 1 --heartbeat-period 1 --heartbeat-timeout -1",
       "heartbeat_timeout"},
      {"--members 16 --seeds 1 --heartbeat-period 1 --heartbeat-timeout nan",
       "heartbeat_timeout"},
      // A refinement period that is not a finite number > 0 used to blame
      // "a periodic group's period" in the engine; 1e-300 passes that check
      // but vanishes when added to any join time, and used to re-arm at one
      // instant forever. The engine rejects a period that does not move
      // the clock.
      {"--members 16 --seeds 1 --protocol hmtp --hmtp-period 0",
       "refinement_period"},
      {"--members 16 --seeds 1 --protocol hmtp --hmtp-period -1",
       "refinement_period"},
      {"--members 16 --seeds 1 --protocol hmtp --hmtp-period nan",
       "refinement_period"},
      {"--members 16 --seeds 1 --protocol hmtp --hmtp-period inf",
       "refinement_period"},
      {"--members 16 --seeds 1 --protocol hmtp --hmtp-period 1e-300",
       "move the clock"},
      // A retry timeout that is negative or not finite used to print a
      // negative, NaN or infinite reconnect time.
      {"--members 16 --seeds 1 --control-loss 0.3 --retry-timeout -1",
       "retry_timeout"},
      {"--members 16 --seeds 1 --control-loss 0.3 --retry-timeout nan",
       "retry_timeout"},
      {"--members 16 --seeds 1 --control-loss 0.3 --retry-timeout inf",
       "retry_timeout"},
      // Non-finite stream and timeline values used to hang (a zero chunk
      // period or an endless timeline re-arms at one instant forever), end
      // a degenerate run with exit 0 (a NaN flash instant broke the slot
      // compiler's heap order, an infinite join phase left the tree
      // empty), or blame a walk invariant.
      {"--members 50 --seeds 1 --chunk-rate inf", "chunk_rate"},
      {"--members 50 --seeds 1 --total-time inf", "total_time"},
      {"--members 50 --seeds 1 --join-phase inf", "join_phase"},
      {"--members 50 --seeds 1 --interval inf", "churn_interval"},
      {"--members 50 --seeds 1 --flash 10 --flash-at nan", "flash_at"},
      {"--members 50 --seeds 1 --flash 10 --flash-at inf", "flash_at"},
      {"--members 50 --seeds 1 --probe-noise inf", "probe_noise"},
      // A degree average that is not finite or exceeds INT_MAX used to reach
      // undefined int casts and blame the first join's degree.
      {"--members 50 --seeds 1 --degree-avg inf", "average"},
      {"--members 50 --seeds 1 --degree-avg 1e12", "average"},
      {"--members 50 --seeds 1 --degree-avg nan", "average"},
      // More than 2^32 chunks in one run overflow the 32-bit per-member
      // chunk records; both runs used to never return.
      {"--underlay coord-plane --members 16 --seeds 1 --join-phase 100 "
       "--total-time 500 --interval 100 --settle 20 --chunk-rate 1e300",
       "chunk_rate"},
      {"--underlay coord-plane --members 16 --seeds 1 --join-phase 100 "
       "--total-time 500 --interval 100 --settle 20 --chunk-rate 1e7",
       "chunk_rate"}};
  for (const auto& [args, field] : cases) {
    const auto t0 = std::chrono::steady_clock::now();
    const CliResult r = run_vdmsim(args);
    // A rejection comes before the first event, not after a long run.
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
        << args;
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_TRUE(contains(r.output, "rejected config")) << args << "\n" << r.output;
    EXPECT_TRUE(contains(r.output, field)) << args << "\n" << r.output;
  }
  // A boolean flag's value that is no true or false spelling is a malformed
  // value, named in the message: the parser reads "stray" as the value of
  // --csv, which used to read as false and print the table.
  for (const char* args :
       {"--underlay coord-plane --members 16 --seeds 1 --csv stray",
        "--underlay coord-plane --members 16 --seeds 1 --csv 2"}) {
    const CliResult r = run_vdmsim(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_TRUE(contains(r.output, "--csv")) << args << "\n" << r.output;
    EXPECT_FALSE(contains(r.output, "members")) << args << "\n" << r.output;
  }
}

TEST(VdmsimCli, MisspeltFlagExitsTwoNamingIt) {
  // Ignoring --membrs would run the default 200 members instead.
  const CliResult r =
      run_vdmsim("--underlay coord-plane --membrs 16 --seeds 1 --bogus=3");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_TRUE(contains(r.output, "unknown flag --membrs")) << r.output;
  EXPECT_TRUE(contains(r.output, "unknown flag --bogus")) << r.output;
  EXPECT_FALSE(contains(r.output, "hopcount")) << r.output;
}

TEST(VdmsimCli, EveryFlagInHelpIsAccepted) {
  const CliResult help = run_vdmsim("--help");
  ASSERT_EQ(help.exit_code, 0) << help.output;
  std::set<std::string> names;
  const std::regex flag("--([a-z][a-z-]*)");
  for (std::sregex_iterator it(help.output.begin(), help.output.end(), flag), end;
       it != end; ++it) {
    names.insert((*it)[1]);
  }
  ASSERT_GT(names.size(), 40u) << help.output;
  // Every name at once, each read as "true", then --help: nothing runs, and
  // an unaccepted name would exit 2 naming itself.
  std::string args;
  for (const std::string& name : names) args += "--" + name + " ";
  const CliResult r = run_vdmsim(args + "--help");
  EXPECT_EQ(r.exit_code, 0) << args << "\n" << r.output;
  EXPECT_FALSE(contains(r.output, "unknown flag")) << r.output;
}

TEST(VdmsimCli, JournalWritesTheFirstSeedInHexfloat) {
  const std::string one = testing::TempDir() + "vdmsim_journal_1.csv";
  const std::string two = testing::TempDir() + "vdmsim_journal_2.csv";
  const std::string shape =
      "--underlay transit-stub --members 16 --join-phase 400 "
      "--total-time 1200 --interval 200 --settle 50 --churn 0.1 --csv";
  ASSERT_EQ(run_vdmsim(shape + " --seeds 1 --journal " + one).exit_code, 0);
  ASSERT_EQ(run_vdmsim(shape + " --seeds 2 --threads 2 --journal " + two).exit_code, 0);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::string journal = slurp(one);
  EXPECT_EQ(journal, slurp(two));  // the second seed is not written
  EXPECT_EQ(journal.rfind("t,event,child,parent\n0x", 0), 0u) << journal;
  EXPECT_TRUE(contains(journal, ",attach,")) << journal;
  EXPECT_TRUE(contains(journal, ",detach,")) << journal;
}

TEST(VdmsimCli, ValidRunExitsZero) {
  const CliResult r = run_vdmsim(
      "--underlay coord-plane --members 16 --seeds 1 --join-phase 400 "
      "--total-time 1200 --interval 200 --settle 50 --csv");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(contains(r.output, "hopcount")) << r.output;
}

TEST(VdmsimCli, SlotsRunSavesATraceThatReplaysTheSameTable) {
  // --save-trace works for the paper's slot timeline too, and replaying
  // the saved list prints the generating run's table digit for digit.
  const std::string trace = testing::TempDir() + "vdmsim_slots_trace.csv";
  const std::string shape =
      "--underlay coord-plane --members 24 --seeds 1 --join-phase 400 "
      "--total-time 1200 --interval 200 --settle 50 --churn 0.1 --csv";
  const CliResult saved =
      run_vdmsim(shape + " --workload slots --save-trace " + trace);
  ASSERT_EQ(saved.exit_code, 0) << saved.output;
  const CliResult replayed = run_vdmsim(shape + " --workload trace:" + trace);
  ASSERT_EQ(replayed.exit_code, 0) << replayed.output;
  EXPECT_TRUE(contains(saved.output, "hopcount")) << saved.output;
  EXPECT_EQ(replayed.output, saved.output);
}

TEST(VdmsimCli, TrajectoryAndProfileCountersArePinned) {
  // The --trajectory table and the deterministic --profile lines of a small
  // crash-churn run with heartbeats, lossy control and HMTP refinement, so
  // every timer counter is non-zero.
  const CliResult r = run_vdmsim(
      "--substrate coord-plane --members 60 --crash-frac 0.5 "
      "--heartbeat-period 1 --protocol hmtp --control-loss 0.1 --seeds 2 "
      "--threads 1 --join-phase 100 --total-time 500 --interval 100 "
      "--settle 20 --trajectory --profile");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(contains(r.output,
                       "  sim events 4285 (periodic 2728, one-shot 1557)\n"
                       "  timers: heartbeat ticks 53551, refine ticks 1728, "
                       "verdicts 7 true / 284 false\n"))
      << r.output;
  EXPECT_TRUE(contains(r.output,
                       "trajectory (seed 1)\n"
                       "\n"
                       "t      continuity  outage_s  overhead  members  \n"
                       "------------------------------------------------\n"
                       "120.0  0.97054     3.598     3.09256   61       \n"
                       "220.0  0.95996     3.655     2.98785   61       \n"
                       "320.0  0.96797     4.342     2.93112   61       \n"
                       "420.0  0.96256     4.023     2.95034   61       \n"))
      << r.output;
}

TEST(VdmsimCli, ProfileCountsRouterTrees) {
  // On the 64-member transit-stub run, one Dijkstra tree per access router
  // of the hosts the run reads from (87, each over its stub domain's
  // region of 6 to 8 routers), and one per transit router, at the far end
  // of the stub domains' gateway bridges (24, each over all 782 transit
  // vertices); coordinate underlays build no router.
  const CliResult ts = run_vdmsim(
      "--underlay transit-stub --members 64 --seeds 1 --profile");
  ASSERT_EQ(ts.exit_code, 0) << ts.output;
  EXPECT_TRUE(contains(ts.output,
                       "  underlay: router trees 111, vertices settled 19455\n"))
      << ts.output;
  const CliResult coord = run_vdmsim(
      "--underlay coord-plane --members 64 --seeds 1 --profile");
  ASSERT_EQ(coord.exit_code, 0) << coord.output;
  EXPECT_TRUE(contains(coord.output, "  underlay: router trees 0, vertices settled 0\n"))
      << coord.output;
}

}  // namespace
