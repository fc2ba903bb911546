#include "util/flags.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "util/require.hpp"

namespace vdm::util {

namespace {

std::string env_name(const std::string& flag) {
  std::string out = "VDM_";
  for (char ch : flag) {
    out += (ch == '-') ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  return out;
}

/// Parses all of `v` as a T; anything else (no digits, trailing garbage,
/// out of range) throws an error that names the flag.
template <typename T>
T parse_number(const std::string& name, const std::string& v, const char* what) {
  T out{};
  if (!parse_whole(v, out)) {
    throw std::invalid_argument("--" + name + ": expected " + what + ", got '" +
                                v + "'");
  }
  return out;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  if (values_.count(name)) return true;
  return std::getenv(env_name(name).c_str()) != nullptr;
}

std::string Flags::get(const std::string& name, const std::string& def) const {
  const auto it = values_.find(name);
  if (it != values_.end()) return it->second;
  if (const char* env = std::getenv(env_name(name).c_str())) return env;
  return def;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  return parse_number<std::int64_t>(name, v, "an integer");
}

std::size_t Flags::get_count(const std::string& name, std::size_t def) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  return parse_number<std::size_t>(name, v, "a non-negative integer");
}

double Flags::get_double(const std::string& name, double def) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  return parse_number<double>(name, v, "a number");
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const std::string v = get(name, "");
  if (v.empty()) return def;
  std::string lower = v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") return true;
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") return false;
  throw std::invalid_argument("--" + name + ": expected true or false, got '" + v + "'");
}

void Flags::reject_unknown(std::initializer_list<std::string_view> known) const {
  std::string names;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      if (!names.empty()) names += "; ";
      names += "unknown flag --" + name;
    }
  }
  if (!names.empty()) throw std::invalid_argument(names);
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  std::string_view program = argc > 0 ? argv[0] : "vdm";
  program = program.substr(program.find_last_of('/') + 1);
  try {
    return body(argc, argv);
  } catch (const InvariantError& e) {
    std::cerr << program << ": rejected config: " << e.what() << '\n';
  } catch (const std::invalid_argument& e) {
    std::cerr << program << ": " << e.what() << '\n';
  }
  return 2;
}

}  // namespace vdm::util
