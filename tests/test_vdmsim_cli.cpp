// Runs the real vdmsim binary on bad input: malformed numbers and configs
// the library rejects must end in a one-line error and exit status 2, never
// in std::terminate. The binary path is injected by CMake
// (VDMSIM_BINARY_PATH), the same way test_vdmd_loopback finds vdmd.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

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
  for (const char* args :
       {"--members 0 --seeds 1", "--chunk-rate 0 --seeds 1",
        // Out-of-range loss, buffer, noise and control-loss values.
        "--members 16 --seeds 1 --link-loss -0.1",
        "--members 16 --seeds 1 --buffer -1",
        "--members 16 --seeds 1 --probe-noise -1",
        "--members 16 --seeds 1 --control-loss -0.5",
        "--members 16 --seeds 1 --control-loss 1.5",
        // Heartbeat settings: a period that is not a finite, non-negative
        // number (NaN used to index an unsized slab), and with heartbeats
        // on, a miss count below 1 or a bad verdict timeout.
        "--members 16 --seeds 1 --heartbeat-period nan",
        "--members 16 --seeds 1 --heartbeat-period inf",
        "--members 16 --seeds 1 --heartbeat-period -1",
        "--members 16 --seeds 1 --heartbeat-period 1 --heartbeat-misses 0",
        "--members 16 --seeds 1 --heartbeat-period 1 --heartbeat-misses -2",
        "--members 16 --seeds 1 --heartbeat-period 1 --heartbeat-timeout -1",
        "--members 16 --seeds 1 --heartbeat-period 1 --heartbeat-timeout nan",
        // A refinement period of 0 used to re-arm forever at one instant.
        "--members 16 --seeds 1 --protocol hmtp --hmtp-period 0",
        // A retry timeout that is negative or not finite used to print a
        // negative, NaN or infinite reconnect time.
        "--members 16 --seeds 1 --control-loss 0.3 --retry-timeout -1",
        "--members 16 --seeds 1 --control-loss 0.3 --retry-timeout nan",
        "--members 16 --seeds 1 --control-loss 0.3 --retry-timeout inf"}) {
    const CliResult r = run_vdmsim(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_TRUE(contains(r.output, "rejected config")) << args << "\n" << r.output;
    if (contains(args, "retry-timeout")) {
      EXPECT_TRUE(contains(r.output, "retry_timeout")) << args << "\n" << r.output;
    }
    if (contains(args, "heartbeat")) {
      // The message names the offending field.
      const std::string flag = contains(args, "misses")    ? "heartbeat_misses"
                               : contains(args, "timeout") ? "heartbeat_timeout"
                                                           : "heartbeat_period";
      EXPECT_TRUE(contains(r.output, flag)) << args << "\n" << r.output;
    }
  }
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

}  // namespace
