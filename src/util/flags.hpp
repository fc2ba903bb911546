#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace vdm::util {

/// Parses all of `text` as a number T: false on no digits, trailing garbage
/// ("12abc", "4.5" for an int) or a value out of T's range.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// One row of a program's flag table, the one place a flag is declared.
struct Flag {
  std::string_view name;   ///< spelt `--name`
  std::string_view value;  ///< placeholder ("N", "FILE"); empty: a boolean
  std::string_view def;    ///< default (a boolean's is false); empty: none
  std::string_view help;   ///< --help text; '\n' starts an indented line
};

/// A program's command line: its flag table (`--help` is implied) and what
/// --help prints around it.
struct Usage {
  std::string_view operands = {};  ///< "[ENTRY...]"; empty: takes no word
  std::string_view about = {};     ///< printed under the usage line
  std::span<const Flag> flags = {};
  void (*more)(std::ostream&) = nullptr;  ///< printed after the table
};

/// The command line read against one flag table.
///
/// Accepts `--name=value` and `--name value` for a flag with a value, and
/// bare `--name` for a boolean, which never takes the next word. The
/// constructor throws std::invalid_argument naming every undeclared flag in
/// one message; unless --help is given, also for a flag left without its
/// value, and for a positional word in a program that takes none (naming
/// the boolean it follows: `--csv stray`). A value comes only from the
/// command line or the table's default. Reading a name the table does not
/// declare throws std::logic_error.
class Flags {
 public:
  Flags(int argc, const char* const* argv, const Usage& usage);

  /// `--name` was given. Absent, a flag without a default reads as "".
  bool has(std::string_view name) const;
  std::string get(std::string_view name) const;  // the value, else the default
  /// Numeric getters read the whole value: a non-number or trailing
  /// garbage ("12abc") throws std::invalid_argument naming the flag.
  std::int64_t get_int(std::string_view name) const;
  /// A count or size: as get_int, but a sign ("-3", "+3") is rejected
  /// too, so a negative value never wraps to a huge std::size_t.
  std::size_t get_count(std::string_view name) const;
  double get_double(std::string_view name) const;
  /// False when absent; a given value must be 1/true/yes/on or 0/false/
  /// no/off in any case (`--csv=off`), or std::invalid_argument names it.
  bool get_bool(std::string_view name) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }
  /// argv[0], the path the program was started by.
  const std::string& program() const { return program_; }

  /// The usage line, `usage.about`, each flag with its default, `usage.more`.
  void print_help(std::ostream& out, std::string_view program, const Usage& usage) const;

 private:
  std::size_t row(std::string_view name) const;  // std::logic_error if undeclared
  std::string_view text(std::string_view name) const;  // the value or default

  std::vector<Flag> table_;  // the program's rows, then --help
  std::vector<std::optional<std::string>> values_;  // one per row
  std::vector<std::string> positional_;
  std::string program_;
};

/// The body of a command-line program's main(): reads the command line
/// against `usage` and returns what `body` returns. --help prints the help
/// on stdout and exits 0 before `body` runs. A usage error
/// (std::invalid_argument naming the flag or word) ends in that message
/// and the usage line on stderr, a config the library rejects
/// (util::InvariantError) in a one-line message, both with exit status 2
/// instead of std::terminate.
int run_main(int argc, char** argv, const Usage& usage, int (*body)(const Flags&));

}  // namespace vdm::util
