#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace vdm::util {
namespace {

// ---------------------------------------------------------------- Table

TEST(Table, PrintsHeaderRuleAndRows) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(Table, CsvFormat) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\n");
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantError);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), InvariantError);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Table, RowAccessors) {
  Table t({"h"});
  t.add_row({"v"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.row(0)[0], "v");
  EXPECT_EQ(t.header()[0], "h");
}

// ---------------------------------------------------------------- Flags

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const Flags f = make_flags({"--nodes=42"});
  EXPECT_EQ(f.get_int("nodes", 0), 42);
}

TEST(Flags, SpaceSyntax) {
  const Flags f = make_flags({"--nodes", "17"});
  EXPECT_EQ(f.get_int("nodes", 0), 17);
}

TEST(Flags, BareFlagIsTrue) {
  const Flags f = make_flags({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, DefaultWhenAbsent) {
  const Flags f = make_flags({});
  EXPECT_EQ(f.get_int("nodes", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 2.5), 2.5);
  EXPECT_EQ(f.get("name", "x"), "x");
  EXPECT_FALSE(f.get_bool("quiet", false));
}

TEST(Flags, BoolParsesCommonSpellings) {
  EXPECT_TRUE(make_flags({"--a=TRUE"}).get_bool("a", false));
  EXPECT_TRUE(make_flags({"--a=on"}).get_bool("a", false));
  EXPECT_TRUE(make_flags({"--a=1"}).get_bool("a", false));
  EXPECT_FALSE(make_flags({"--a=0"}).get_bool("a", true));
  EXPECT_FALSE(make_flags({"--a=no"}).get_bool("a", true));
  EXPECT_TRUE(make_flags({"--a=Yes"}).get_bool("a", false));
  EXPECT_FALSE(make_flags({"--a=False"}).get_bool("a", true));
  EXPECT_FALSE(make_flags({"--a=OFF"}).get_bool("a", true));
  // Any other value is an error naming the flag, not a silent false: a
  // bare flag followed by a stray word takes the word as its value.
  EXPECT_THROW(make_flags({"--a", "stray"}).get_bool("a", false),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--a=2"}).get_bool("a", false), std::invalid_argument);
  try {
    make_flags({"--csv", "stray"}).get_bool("csv", false);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--csv"), std::string::npos) << e.what();
  }
}

TEST(Flags, PositionalArguments) {
  const Flags f = make_flags({"file1", "--k=v", "file2"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "file1");
  EXPECT_EQ(f.positional()[1], "file2");
}

TEST(Flags, EnvironmentFallback) {
  ::setenv("VDM_TEST_KNOB", "33", 1);
  const Flags f = make_flags({});
  EXPECT_EQ(f.get_int("test-knob", 0), 33);
  EXPECT_TRUE(f.has("test-knob"));
  ::unsetenv("VDM_TEST_KNOB");
  EXPECT_FALSE(f.has("test-knob"));
}

TEST(Flags, NumbersMustParseWhole) {
  EXPECT_EQ(make_flags({"--n=-12"}).get_int("n", 0), -12);
  EXPECT_DOUBLE_EQ(make_flags({"--x=0.25"}).get_double("x", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(make_flags({"--x=1e3"}).get_double("x", 0.0), 1000.0);
  EXPECT_THROW(make_flags({"--n=abc"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=12abc"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=1.5"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=99999999999999999999"}).get_int("n", 0),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--x=fast"}).get_double("x", 0.0),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--x=0.5s"}).get_double("x", 0.0),
               std::invalid_argument);
}

TEST(Flags, CountsRejectASign) {
  EXPECT_EQ(make_flags({"--n=12"}).get_count("n", 0), 12u);
  EXPECT_EQ(make_flags({}).get_count("n", 5), 5u);
  EXPECT_THROW(make_flags({"--n=-3"}).get_count("n", 0), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=+3"}).get_count("n", 0), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=3x"}).get_count("n", 0), std::invalid_argument);
}

TEST(Flags, NumberErrorNamesTheFlagAndValue) {
  try {
    (void)make_flags({"--members", "12abc"}).get_int("members", 0);
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--members"), std::string::npos) << what;
    EXPECT_NE(what.find("12abc"), std::string::npos) << what;
  }
}

TEST(Flags, CommandLineBeatsEnvironment) {
  ::setenv("VDM_PRIORITY", "1", 1);
  const Flags f = make_flags({"--priority=2"});
  EXPECT_EQ(f.get_int("priority", 0), 2);
  ::unsetenv("VDM_PRIORITY");
}

// ---------------------------------------------------------------- Require

TEST(Require, ThrowsWithLocation) {
  try {
    VDM_REQUIRE_MSG(false, "context here");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context here"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Require, PassesOnTrue) {
  EXPECT_NO_THROW(VDM_REQUIRE(1 + 1 == 2));
}

// ---------------------------------------------------------------- Logging

TEST(Log, LevelFiltering) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kOff);
  // Must not crash or emit; nothing observable to assert beyond no-throw.
  EXPECT_NO_THROW(VDM_INFO() << "suppressed");
  set_log_level(old);
}

TEST(Log, SetAndGetRoundTrip) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(old);
}

}  // namespace
}  // namespace vdm::util
