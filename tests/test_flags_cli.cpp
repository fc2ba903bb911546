// Runs the real `figures` runner and a real example binary with bad
// arguments: a malformed flag value, a misspelt flag or (figures) an unknown
// entry must end in a one-line message naming it and exit status 2, never
// std::terminate or a run with the argument ignored. Also runs every
// figures entry once at one seed. The binary paths are injected by CMake
// (BENCH_BINARY_PATH, EXAMPLE_BINARY_PATH) when the bench and example
// targets are built.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_binary(const std::string& binary, const std::string& args) {
  const std::string cmd = binary + " " + args + " < /dev/null 2>&1";
  CliResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

void expect_exit_two_naming(const std::string& binary, const std::string& args,
                            const std::string& named) {
  const CliResult r = run_binary(binary, args);
  EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
  EXPECT_NE(r.output.find(named), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("terminate"), std::string::npos) << r.output;
}

void expect_malformed_values_exit_two(const std::string& binary,
                                      const std::string& flag) {
  for (const std::string value : {"abc", "12abc", "-3"}) {
    expect_exit_two_naming(binary, flag + " " + value, flag);
  }
}

#ifdef BENCH_BINARY_PATH
TEST(FlagsCli, BenchExitsTwoOnMalformedValue) {
  expect_malformed_values_exit_two(BENCH_BINARY_PATH, "--seeds");
}

TEST(FlagsCli, FiguresExitsTwoOnMisspeltFlagOrUnknownEntry) {
  // Ignored, either would let fig5_mst_ratio run as if it were not there.
  expect_exit_two_naming(BENCH_BINARY_PATH, "fig5_mst_ratio --bogus 1 --seeds 1",
                         "unknown flag --bogus");
  expect_exit_two_naming(BENCH_BINARY_PATH, "fig5_mst_ratio fig9_nope --seeds 1",
                         "unknown entry 'fig9_nope'");
}

TEST(FlagsCli, FiguresRunsEveryEntryInOrder) {
  const CliResult r = run_binary(BENCH_BINARY_PATH, "--seeds 1 --threads 1");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // Each entry's first banner, in the order the runner lists its entries.
  std::size_t at = 0;
  for (const std::string title :
       {"Figure 3.25 — stress vs churn", "Figure 3.29 — stress vs number of nodes",
        "Figure 3.33 — stress vs average node degree",
        "Crash churn — loss rate vs crash fraction",
        "Workload churn — loss rate by membership process",
        "Figure 4.6 — stress vs time", "Figure 5.2 — node selection filter",
        "Figure 5.7 — startup time (s) vs churn rate",
        "Figure 5.14 — startup time (s) vs number of nodes",
        "Figure 5.21 — startup time (s) vs node degree",
        "Figure 5.28 — stretch vs number of nodes",
        "Figure 5.31 — overlay tree cost / MST cost vs number of nodes",
        "Ablation — directionality classifier knobs",
        "Ablation — refinement period vs tree quality and overhead",
        "Ablation — foster-child quick start (HMTP §2.4.7)"}) {
    const std::size_t found = r.output.find("=== " + title + " ===", at);
    ASSERT_NE(found, std::string::npos) << title << " after offset " << at;
    at = found;
  }
}
#endif

#ifdef EXAMPLE_BINARY_PATH
TEST(FlagsCli, ExampleExitsTwoOnMalformedValue) {
  expect_malformed_values_exit_two(EXAMPLE_BINARY_PATH, "--members");
}

TEST(FlagsCli, ExampleExitsTwoOnMisspeltFlag) {
  expect_exit_two_naming(EXAMPLE_BINARY_PATH, "--bogus 1 --members 8",
                         "unknown flag --bogus");
}
#endif

}  // namespace
