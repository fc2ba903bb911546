// Runs the real bench_to_json binary on bad input: an unknown flag, a stray
// argument or a malformed --max-regress must print usage and exit 2 — a
// misspelt gate flag must never record an ungated entry. The binary path
// is injected by CMake (BENCH_TO_JSON_BINARY_PATH).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_bench_to_json(const std::string& args) {
  const std::string cmd = std::string(BENCH_TO_JSON_BINARY_PATH) + " " + args +
                          " < /dev/null 2>&1";
  CliResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

TEST(BenchToJsonCli, BadInputExitsTwoAndRecordsNothing) {
  const std::string in = testing::TempDir() + "bench_to_json_in.txt";
  const std::string out = testing::TempDir() + "bench_to_json_out.json";
  {
    std::ofstream f(in);
    f << "BM_Example/8   1.50 ms   1.40 ms   100 items=3\n";
  }
  std::remove(out.c_str());
  const std::string io = " --in " + in + " --out " + out;
  for (const std::string& args :
       {"--max-regress abc" + io, "--max-regress 5x" + io,
        "--max-regres 5" + io, "--lable x" + io, "stray" + io}) {
    const CliResult r = run_bench_to_json(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
    EXPECT_FALSE(std::ifstream(out).good()) << args << " wrote " << out;
  }
  const CliResult ok = run_bench_to_json("--label t --max-regress 5" + io);
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_TRUE(std::ifstream(out).good());
}

}  // namespace
