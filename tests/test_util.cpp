#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

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

// A flag with a value has a placeholder; a boolean has none. `n`, `x` and
// `members` have no default.
constexpr Flag kTable[] = {
    {"nodes", "N", "7", ""},   {"rate", "R", "2.5", ""}, {"name", "TEXT", "x", ""},
    {"n", "N", "", ""},        {"x", "X", "", ""},       {"members", "N", "", ""},
    {"verbose", "", "", ""},   {"a", "", "", ""},        {"csv", "", "", ""},
};

/// Reads `args` against kTable, in a program that takes the positional
/// words `operands` (none when empty).
Flags make_flags(std::initializer_list<const char*> args, std::string_view operands = {}) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data(),
               Usage{.operands = operands, .flags = kTable});
}

/// The std::invalid_argument message reading `args` throws.
std::string usage_error(std::initializer_list<const char*> args) {
  try {
    make_flags(args);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "no throw";
  return {};
}

TEST(Flags, EqualsSyntax) {
  const Flags f = make_flags({"--nodes=42"});
  EXPECT_EQ(f.get_int("nodes"), 42);
}

TEST(Flags, SpaceSyntax) {
  const Flags f = make_flags({"--nodes", "17"});
  EXPECT_EQ(f.get_int("nodes"), 17);
}

TEST(Flags, BareFlagIsTrue) {
  const Flags f = make_flags({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_TRUE(f.has("verbose"));
}

TEST(Flags, DefaultWhenAbsent) {
  // A value comes only from the command line or the table, never from a
  // VDM_<NAME> environment variable.
  ::setenv("VDM_NODES", "40", 1);
  ::setenv("VDM_N", "3", 1);
  const Flags f = make_flags({});
  EXPECT_EQ(f.get_int("nodes"), 7);
  EXPECT_DOUBLE_EQ(f.get_double("rate"), 2.5);
  EXPECT_EQ(f.get("name"), "x");
  EXPECT_FALSE(f.get_bool("verbose"));
  // A default is not a given value; a flag without one reads as absent,
  // its text empty.
  EXPECT_FALSE(f.has("nodes"));
  EXPECT_FALSE(f.has("n"));
  EXPECT_EQ(f.get("n"), "");
  EXPECT_THROW((void)f.get_int("n"), std::invalid_argument);
  // Reading a name the table does not declare is the program's mistake.
  for (const auto& read : {+[](const Flags& g) { (void)g.get("nope"); },
                           +[](const Flags& g) { (void)g.has("nope"); }}) {
    try {
      read(f);
      ADD_FAILURE() << "no throw";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "--nope is not declared");
    }
  }
  ::unsetenv("VDM_NODES");
  ::unsetenv("VDM_N");
}

TEST(Flags, BoolParsesCommonSpellings) {
  EXPECT_TRUE(make_flags({"--a=TRUE"}).get_bool("a"));
  EXPECT_TRUE(make_flags({"--a=on"}).get_bool("a"));
  EXPECT_TRUE(make_flags({"--a=1"}).get_bool("a"));
  EXPECT_FALSE(make_flags({"--a=0"}).get_bool("a"));
  EXPECT_FALSE(make_flags({"--a=no"}).get_bool("a"));
  EXPECT_TRUE(make_flags({"--a=Yes"}).get_bool("a"));
  EXPECT_FALSE(make_flags({"--a=False"}).get_bool("a"));
  EXPECT_FALSE(make_flags({"--a=OFF"}).get_bool("a"));
  // Any other value is an error naming the flag, not a silent false. A
  // boolean never takes the next word, so in a program without positional
  // words `--a stray` is an error too, naming the boolean.
  EXPECT_THROW(make_flags({"--a=2"}).get_bool("a"), std::invalid_argument);
  EXPECT_THROW(make_flags({"--a", "stray"}), std::invalid_argument);
  try {
    make_flags({"--csv=stray"}).get_bool("csv");
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--csv"), std::string::npos) << e.what();
  }
}

TEST(Flags, PositionalArguments) {
  const Flags f = make_flags({"file1", "--name=v", "file2"}, "[FILE...]");
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "file1");
  EXPECT_EQ(f.positional()[1], "file2");
  EXPECT_EQ(f.get("name"), "v");
}

TEST(Flags, BooleanLeavesTheNextWordPositional) {
  const Flags f = make_flags({"--verbose", "fig3_nodes", "--nodes", "3"}, "[ENTRY...]");
  EXPECT_TRUE(f.get_bool("verbose"));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "fig3_nodes");
  EXPECT_EQ(f.get_int("nodes"), 3);
}

TEST(Flags, EveryUndeclaredNameInOneMessage) {
  // An undeclared flag takes the next word, so "16" is not reported too.
  const std::string what = usage_error({"--membrs", "16", "--nodes", "4", "--bogus=3"});
  EXPECT_NE(what.find("unknown flag --membrs; unknown flag --bogus"), std::string::npos)
      << what;
  EXPECT_EQ(what.find("16"), std::string::npos) << what;
}

TEST(Flags, PositionalInAProgramThatTakesNoneNamesTheBooleanItFollows) {
  const std::string after_csv = usage_error({"--nodes", "4", "--csv", "stray"});
  EXPECT_NE(after_csv.find("'stray'"), std::string::npos) << after_csv;
  EXPECT_NE(after_csv.find("--csv"), std::string::npos) << after_csv;
  const std::string alone = usage_error({"stray", "--csv"});
  EXPECT_EQ(alone, "unexpected argument 'stray'");
}

TEST(Flags, AValueFlagNeedsItsValue) {
  EXPECT_EQ(usage_error({"--nodes"}), "--nodes: expected a value");
  EXPECT_EQ(usage_error({"--nodes", "--csv"}), "--nodes: expected a value");
}

TEST(Flags, HelpForgivesMisuseButNotUndeclaredNames) {
  EXPECT_TRUE(make_flags({"--nodes", "--help"}).get_bool("help"));
  EXPECT_TRUE(make_flags({"--help", "stray"}).get_bool("help"));
  EXPECT_FALSE(make_flags({"--help=no"}).get_bool("help"));
  EXPECT_EQ(usage_error({"--help", "--bogus"}), "unknown flag --bogus");
}

TEST(Flags, NumbersMustParseWhole) {
  EXPECT_EQ(make_flags({"--n=-12"}).get_int("n"), -12);
  EXPECT_EQ(make_flags({"--n", "-12"}).get_int("n"), -12);
  EXPECT_DOUBLE_EQ(make_flags({"--x=0.25"}).get_double("x"), 0.25);
  EXPECT_DOUBLE_EQ(make_flags({"--x=1e3"}).get_double("x"), 1000.0);
  EXPECT_THROW(make_flags({"--n=abc"}).get_int("n"), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=12abc"}).get_int("n"), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=1.5"}).get_int("n"), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=99999999999999999999"}).get_int("n"),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--x=fast"}).get_double("x"), std::invalid_argument);
  EXPECT_THROW(make_flags({"--x=0.5s"}).get_double("x"), std::invalid_argument);
  EXPECT_THROW(make_flags({"--x="}).get_double("x"), std::invalid_argument);
}

TEST(Flags, CountsRejectASign) {
  EXPECT_EQ(make_flags({"--n=12"}).get_count("n"), 12u);
  EXPECT_EQ(make_flags({}).get_count("nodes"), 7u);
  EXPECT_THROW(make_flags({"--n=-3"}).get_count("n"), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=+3"}).get_count("n"), std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=3x"}).get_count("n"), std::invalid_argument);
}

TEST(Flags, NumberErrorNamesTheFlagAndValue) {
  try {
    (void)make_flags({"--members", "12abc"}).get_int("members");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--members"), std::string::npos) << what;
    EXPECT_NE(what.find("12abc"), std::string::npos) << what;
  }
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
