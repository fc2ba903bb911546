#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vdm::util {

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
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace vdm::util
