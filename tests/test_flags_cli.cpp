// Runs a real bench and a real example binary with a malformed flag value:
// util::run_main must turn the parse error into a one-line message naming
// the flag and exit status 2, never std::terminate. The binary paths are
// injected by CMake (BENCH_BINARY_PATH, EXAMPLE_BINARY_PATH) when the bench
// and example targets are built.

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

void expect_exit_two_naming(const std::string& binary, const std::string& flag) {
  for (const std::string value : {"abc", "12abc", "-3"}) {
    const CliResult r = run_binary(binary, flag + " " + value);
    EXPECT_EQ(r.exit_code, 2) << flag << ' ' << value << "\n" << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("terminate"), std::string::npos) << r.output;
  }
}

#ifdef BENCH_BINARY_PATH
TEST(FlagsCli, BenchExitsTwoOnMalformedValue) {
  expect_exit_two_naming(BENCH_BINARY_PATH, "--seeds");
}
#endif

#ifdef EXAMPLE_BINARY_PATH
TEST(FlagsCli, ExampleExitsTwoOnMalformedValue) {
  expect_exit_two_naming(EXAMPLE_BINARY_PATH, "--members");
}
#endif

}  // namespace
