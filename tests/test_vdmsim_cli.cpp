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

TEST(VdmsimCli, RejectedConfigExitsTwo) {
  for (const char* args : {"--members 0 --seeds 1", "--chunk-rate 0 --seeds 1"}) {
    const CliResult r = run_vdmsim(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_TRUE(contains(r.output, "rejected config")) << args << "\n" << r.output;
  }
}

TEST(VdmsimCli, ValidRunExitsZero) {
  const CliResult r = run_vdmsim(
      "--underlay coord-plane --members 16 --seeds 1 --join-phase 400 "
      "--total-time 1200 --interval 200 --settle 50 --csv");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(contains(r.output, "hopcount")) << r.output;
}

}  // namespace
