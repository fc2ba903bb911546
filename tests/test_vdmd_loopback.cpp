// Multi-process integration test (DESIGN.md §14): launches the real vdmd
// binary as one controller plus forked agents on 127.0.0.1, and asserts
// from its output that the tree formed, chunks flowed down it, every agent
// reported stats, and the whole flock shut down cleanly — for synthesized
// joins and for a --scenario file.
//
// The binary path is injected by CMake (VDMD_BINARY_PATH). The run is
// double-guarded against hangs: vdmd enforces its own --deadline, and the
// ctest TIMEOUT property kills the test harness itself as a last resort.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_vdmd(const std::string& args) {
  const std::string cmd = std::string(VDMD_BINARY_PATH) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

int count_matching(const std::vector<std::string>& lines,
                   const std::string& needle) {
  int n = 0;
  for (const std::string& l : lines) {
    if (l.find(needle) != std::string::npos) ++n;
  }
  return n;
}

std::string find_line(const std::vector<std::string>& lines,
                      const std::string& needle) {
  for (const std::string& l : lines) {
    if (l.find(needle) != std::string::npos) return l;
  }
  return {};
}

/// "key=value" integer extraction from a stats/summary line.
long field_of(const std::string& line, const std::string& key) {
  const auto pos = line.find(key + "=");
  if (pos == std::string::npos) return -1;
  return std::strtol(line.c_str() + pos + key.size() + 1, nullptr, 10);
}

}  // namespace

TEST(VdmdLoopback, SourcePlusThirtyTwoAgentsStreamAndShutDownCleanly) {
  constexpr int kAgents = 32;
  const RunResult r = run_vdmd("--source --agents 32 --spawn "
                               "--chunk-rate 20 --stream-secs 2 --deadline 45");
  SCOPED_TRACE(r.output);
  ASSERT_EQ(r.exit_code, 0);

  const std::vector<std::string> lines = lines_of(r.output);
  EXPECT_EQ(count_matching(lines, "vdmd: controller listening on 127.0.0.1:"), 1);
  EXPECT_EQ(count_matching(lines, "vdmd: 32 agents ready"), 1);
  EXPECT_EQ(count_matching(lines, "vdmd: clean shutdown"), 1);

  // Tree formed: the source plus every agent alive at terminate.
  const std::string members = find_line(lines, "vdmd: members=");
  ASSERT_FALSE(members.empty());
  EXPECT_EQ(field_of(members, "members"), kAgents + 1);
  // With a degree limit of 4 the tree cannot be a star — depth >= 2.
  EXPECT_GE(field_of(members, "depth"), 2);

  // Chunks flowed: the source emitted and fanned out to its children.
  const std::string chunks = find_line(lines, "vdmd: chunks emitted=");
  ASSERT_FALSE(chunks.empty());
  EXPECT_GT(field_of(chunks, "emitted"), 0);
  EXPECT_GT(field_of(chunks, "fanned"), 0);

  // Real probe transactions backed the tree walk.
  const std::string control = find_line(lines, "probes=");
  ASSERT_FALSE(control.empty());
  EXPECT_GT(field_of(control, "probes"), 0);

  // Every agent answered the stats sweep, and the stream reached the tree:
  // chunks received across agents strictly exceeds what the source fanned
  // out directly (interior agents relayed down).
  EXPECT_EQ(count_matching(lines, "vdmd: stats host="), kAgents);
  long total_received = 0;
  long total_relayed = 0;
  for (const std::string& l : lines) {
    if (l.find("vdmd: stats host=") == std::string::npos) continue;
    total_received += field_of(l, "received");
    total_relayed += field_of(l, "relayed");
    EXPECT_GT(field_of(l, "control"), 0) << l;  // every agent got control msgs
  }
  EXPECT_GT(total_received, 0);
  EXPECT_GT(total_relayed, 0);  // depth >= 2 means someone relayed
  EXPECT_GE(total_received, field_of(chunks, "fanned"));
}

TEST(VdmdLoopback, ScenarioFileDrivesJoinsLeavesAndFlashBursts) {
  // A hand-written scenario in the one membership grammar: host 1 joins
  // and later leaves, host 2 joins, a 2-member flash burst takes hosts 3
  // and 4 (the lowest ids no other line names), then terminate.
  const std::string path = testing::TempDir() + "vdmd_scenario.txt";
  {
    std::ofstream f(path);
    f << "# t verb host|count [degree]\n"
         "0.0 join 1\n"
         "0.1 join 2 3\n"
         "0.3 flash 2\n"
         "0.8 leave 1\n"
         "1.5 terminate\n";
  }
  const RunResult r = run_vdmd("--source --agents 4 --spawn --scenario " +
                               path + " --deadline 30");
  SCOPED_TRACE(r.output);
  ASSERT_EQ(r.exit_code, 0);
  const std::vector<std::string> lines = lines_of(r.output);
  const std::string members = find_line(lines, "vdmd: members=");
  ASSERT_FALSE(members.empty());
  EXPECT_EQ(field_of(members, "members"), 1 + 4 - 1);  // source + joined - left
  EXPECT_EQ(count_matching(lines, "vdmd: stats host="), 4);
  EXPECT_EQ(count_matching(lines, "vdmd: clean shutdown"), 1);
}

TEST(VdmdLoopback, MisspeltFlagExitsTwoNamingIt) {
  const RunResult r = run_vdmd("--source --agnets 4");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown flag --agnets"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("listening"), std::string::npos) << r.output;
}

TEST(VdmdLoopback, UsageErrorsExitNonZeroWithoutHanging) {
  // Each must print usage and exit 2 before any socket or agent exists.
  for (const char* args :
       {"", "--agent", "--source --agent", "--source --agents abc",
        "--source --agents 0", "--source --agents 12x", "--source --port 70000",
        "--source --port -1", "--source --degree 0", "--source --degree 2.5",
        "--source --chunk-rate 0", "--source --chunk-rate abc",
        "--source --chunk-rate nan", "--source --deadline 0"}) {
    EXPECT_EQ(run_vdmd(args).exit_code, 2) << args;
  }
  // A flag the chosen role never reads is named, not ignored. The short
  // deadlines bound a run that wrongly starts.
  const std::string agent = "--agent --controller 127.0.0.1:9 --deadline 1 ";
  for (const auto& [args, flag] : std::initializer_list<std::pair<std::string, std::string>>{
           {agent + "--agents 4", "--agents"},
           {agent + "--spawn", "--spawn"},
           {agent + "--scenario trace.txt", "--scenario"},
           {agent + "--chunk-rate 5", "--chunk-rate"},
           {agent + "--stream-secs 1", "--stream-secs"},
           {agent + "--port 9000", "--port"},
           {agent + "--port-file port.txt", "--port-file"},
           {agent + "--degree 3", "--degree"},
           {"--source --agents 1 --deadline 1 --controller 127.0.0.1:9", "--controller"}}) {
    const RunResult r = run_vdmd(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("never reads " + flag), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("listening"), std::string::npos) << r.output;
  }
  // A malformed scenario file is rejected up front, naming its line.
  const std::string path = testing::TempDir() + "vdmd_bad_scenario.txt";
  {
    std::ofstream f(path);
    f << "0.0 join 1\n0.5 join 2 4 junk\n";
  }
  const RunResult r = run_vdmd("--source --agents 2 --scenario " + path);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("line 2"), std::string::npos) << r.output;
}
