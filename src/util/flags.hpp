#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
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

/// Minimal command-line flag parser for example and bench binaries.
///
/// Accepts `--name=value`, `--name value`, and bare `--name` (boolean true).
/// Values not supplied on the command line fall back to an environment
/// variable `VDM_<NAME>` (uppercased, dashes to underscores), then to the
/// caller's default. This lets the paper-scale knobs (seeds, node counts)
/// be raised fleet-wide with env vars without editing every invocation.
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  /// Numeric getters read the whole value: a non-number or trailing
  /// garbage ("12abc") throws std::invalid_argument naming the flag.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// A count or size: as get_int, but a sign ("-3", "+3") is rejected
  /// too, so a negative value never wraps to a huge std::size_t.
  std::size_t get_count(const std::string& name, std::size_t def) const;
  double get_double(const std::string& name, double def) const;
  /// 1/true/yes/on or 0/false/no/off, in any case; anything else throws
  /// std::invalid_argument naming the flag (so `--csv stray`, which reads
  /// "stray" as the value of --csv, is an error, not a silent false).
  bool get_bool(const std::string& name, bool def) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws std::invalid_argument naming every flag given on the command
  /// line whose name is not in `known`, so a misspelt flag ends the program
  /// (exit 2 through run_main) instead of being ignored.
  void reject_unknown(std::initializer_list<std::string_view> known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The body of a command-line program's main(): returns what `body`
/// returns, but a malformed flag value (the std::invalid_argument the
/// numeric and boolean getters throw, naming the flag) or a config the
/// library rejects (util::InvariantError) ends in a one-line message on
/// stderr and exit status 2 instead of std::terminate.
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace vdm::util
