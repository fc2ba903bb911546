#include "util/flags.hpp"

#include <algorithm>
#include <cctype>
#include <iostream>
#include <stdexcept>

#include "util/require.hpp"

namespace vdm::util {

namespace {

std::invalid_argument bad_value(std::string_view name, const char* what, std::string_view v) {
  return std::invalid_argument("--" + std::string(name) + ": expected " + what + ", got '" +
                               std::string(v) + "'");
}

/// Parses all of `v` as a T; anything else (no digits, trailing garbage,
/// out of range) throws an error that names the flag.
template <typename T>
T parse_number(std::string_view name, std::string_view v, const char* what) {
  T out{};
  if (!parse_whole(v, out)) throw bad_value(name, what, v);
  return out;
}

bool parse_bool(std::string_view name, std::string_view v) {
  std::string s(v);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw bad_value(name, "true or false", v);
}

/// "--name VALUE", the left column of a help line.
std::string spelling(const Flag& f) {
  return "--" + std::string(f.name) + (f.value.empty() ? "" : " ") + std::string(f.value);
}

std::ostream& usage_line(std::ostream& out, std::string_view program, const Usage& usage) {
  return out << "usage: " << program << ' ' << usage.operands
             << (usage.operands.empty() ? "" : " ") << "[FLAG...]\n";
}

}  // namespace

Flags::Flags(int argc, const char* const* argv, const Usage& usage)
    : table_(usage.flags.begin(), usage.flags.end()),
      values_(usage.flags.size() + 1), program_(argc > 0 ? argv[0] : "") {
  table_.push_back({"help", "", "", "print this text and exit"});
  std::string unknown;
  std::string misuse;             // the first word out of place; --help forgives it
  std::string_view bare_boolean;  // the flag before this word, if a bare boolean
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (usage.operands.empty() && misuse.empty()) {
        misuse = "unexpected argument '" + std::string(arg) + "'";
        if (!bare_boolean.empty()) {
          misuse += " (--" + std::string(bare_boolean) + " takes no value)";
        }
      }
      positional_.emplace_back(arg);
      bare_boolean = {};
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(2, eq == arg.npos ? arg.npos : eq - 2);
    const auto flag = std::ranges::find(table_, name, &Flag::name);
    const bool boolean = flag != table_.end() && flag->value.empty();
    bare_boolean = eq == arg.npos && boolean ? name : std::string_view{};
    std::optional<std::string> value;
    if (eq != arg.npos) {
      value.emplace(arg.substr(eq + 1));
    } else if (boolean) {
      value.emplace("true");
    } else if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      value.emplace(argv[++i]);
    }
    if (flag == table_.end()) {
      unknown += (unknown.empty() ? "" : "; ") + ("unknown flag --" + std::string(name));
    } else if (!value) {
      if (misuse.empty()) misuse = "--" + std::string(name) + ": expected a value";
    } else {
      values_[static_cast<std::size_t>(flag - table_.begin())] = std::move(value);
    }
  }
  if (!unknown.empty()) throw std::invalid_argument(unknown);
  if (!get_bool("help") && !misuse.empty()) throw std::invalid_argument(misuse);
}

std::size_t Flags::row(std::string_view name) const {
  const auto it = std::ranges::find(table_, name, &Flag::name);
  if (it == table_.end()) throw std::logic_error("--" + std::string(name) + " is not declared");
  return static_cast<std::size_t>(it - table_.begin());
}

std::string_view Flags::text(std::string_view name) const {
  const std::size_t r = row(name);
  return values_[r] ? std::string_view(*values_[r]) : table_[r].def;
}

bool Flags::has(std::string_view name) const { return values_[row(name)].has_value(); }

std::string Flags::get(std::string_view name) const { return std::string(text(name)); }

std::int64_t Flags::get_int(std::string_view name) const {
  return parse_number<std::int64_t>(name, text(name), "an integer");
}

std::size_t Flags::get_count(std::string_view name) const {
  return parse_number<std::size_t>(name, text(name), "a non-negative integer");
}

double Flags::get_double(std::string_view name) const {
  return parse_number<double>(name, text(name), "a number");
}

bool Flags::get_bool(std::string_view name) const {
  const std::optional<std::string>& v = values_[row(name)];
  return v && parse_bool(name, *v);
}

void Flags::print_help(std::ostream& out, std::string_view program, const Usage& usage) const {
  usage_line(out, program, usage) << '\n' << usage.about << (usage.about.empty() ? "" : "\n\n");
  std::size_t width = 0;
  for (const Flag& f : table_) width = std::max(width, spelling(f).size());
  for (const Flag& f : table_) {
    const std::string left = spelling(f);
    out << "  " << left << std::string(width + 2 - left.size(), ' ');
    for (const char c : f.help) {
      out << c;
      if (c == '\n') out << std::string(width + 4, ' ');
    }
    if (!f.def.empty()) out << " (default " << f.def << ')';
    out << '\n';
  }
  if (usage.more != nullptr) usage.more(out);
}

int run_main(int argc, char** argv, const Usage& usage, int (*body)(const Flags&)) {
  std::string_view program = argc > 0 ? argv[0] : "vdm";
  program = program.substr(program.find_last_of('/') + 1);
  try {
    const Flags flags(argc, argv, usage);
    if (!flags.get_bool("help")) return body(flags);
    flags.print_help(std::cout, program, usage);
    return 0;
  } catch (const InvariantError& e) {
    std::cerr << program << ": rejected config: " << e.what() << '\n';
  } catch (const std::invalid_argument& e) {
    usage_line(std::cerr << program << ": " << e.what() << '\n', program, usage);
  }
  return 2;
}

}  // namespace vdm::util
