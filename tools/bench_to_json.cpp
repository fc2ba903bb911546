// Converts google-benchmark console output into the repo's perf-trajectory
// file. Reads the console table (stdin or --in), extracts every benchmark
// row, and appends one labeled run entry to a JSON array (--out, default
// BENCH_e2e.json in the current directory), creating the file on first use:
//
//   ./build/bench/bench_e2e | ./build/tools/bench_to_json --label fastpath
//
// --require <substring>[,<substring>...] makes the conversion fail unless
// every listed substring matches some parsed row name — use it to guarantee
// mandatory benchmarks (e.g. the crash-churn and flash-crowd runs) actually
// made it into the trajectory.
//
// --max-regress <pct> is the perf gate: before recording, every parsed row
// is compared against the most recent trajectory entry with a different
// label (the previous PR's run). If any shared benchmark's real time grew
// by more than <pct> percent, a comparison table is printed, nothing is
// written, and the exit code is non-zero. Benchmarks new in this run (no
// baseline row) are listed but never fail the gate. An unknown flag, a
// stray argument or a malformed --max-regress prints usage and exits 2.
//
// The trajectory file is an array of
//   {"label", "recorded_at_utc", "results": {name: {"real_time_ms",
//    "cpu_time_ms", "iterations", "counters": {...}}}}
// so successive PRs can diff entries (see README "Performance").

#include <cctype>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace {

struct BenchRow {
  std::string name;
  double real_time_ms = 0.0;
  double cpu_time_ms = 0.0;
  long long iterations = 0;
  std::map<std::string, double> counters;
};

double to_ms(double value, const std::string& unit) {
  if (unit == "ns") return value * 1e-6;
  if (unit == "us") return value * 1e-3;
  if (unit == "ms") return value;
  if (unit == "s") return value * 1e3;
  return value;  // unknown unit: pass through
}

/// Parses benchmark's humanized counter values ("1.698k", "23", "2.5M",
/// "766.754u" — sub-unit counters get m/u/n/p suffixes).
double parse_counter(const std::string& text) {
  std::size_t pos = 0;
  const double v = std::stod(text, &pos);
  if (pos < text.size()) {
    switch (text[pos]) {
      case 'k': return v * 1e3;
      case 'M': return v * 1e6;
      case 'G': return v * 1e9;
      case 'm': return v * 1e-3;
      case 'u': return v * 1e-6;
      case 'n': return v * 1e-9;
      case 'p': return v * 1e-12;
      default: break;
    }
  }
  return v;
}

/// A benchmark row looks like:
///   BM_Name/200   98.0 us   96.9 us   2807 counter=1.698k ...
bool parse_row(const std::string& line, BenchRow& row) {
  std::istringstream in(line);
  std::string name, real_unit, cpu_unit;
  double real_value = 0.0, cpu_value = 0.0;
  long long iters = 0;
  if (!(in >> name >> real_value >> real_unit >> cpu_value >> cpu_unit >> iters)) {
    return false;
  }
  if (name.rfind("BM_", 0) != 0) return false;
  row.name = name;
  row.real_time_ms = to_ms(real_value, real_unit);
  row.cpu_time_ms = to_ms(cpu_value, cpu_unit);
  row.iterations = iters;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    try {
      row.counters[token.substr(0, eq)] = parse_counter(token.substr(eq + 1));
    } catch (const std::exception&) {
      // Non-numeric counter; skip it.
    }
  }
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string format_entry(const std::string& label, const std::vector<BenchRow>& rows) {
  std::ostringstream out;
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  }
  out << "  {\n    \"label\": \"" << json_escape(label) << "\",\n"
      << "    \"recorded_at_utc\": \"" << stamp << "\",\n"
      << "    \"results\": {\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "      \"" << json_escape(r.name) << "\": {"
        << "\"real_time_ms\": " << r.real_time_ms
        << ", \"cpu_time_ms\": " << r.cpu_time_ms
        << ", \"iterations\": " << r.iterations;
    if (!r.counters.empty()) {
      out << ", \"counters\": {";
      bool first = true;
      for (const auto& [key, value] : r.counters) {
        if (!first) out << ", ";
        first = false;
        out << "\"" << json_escape(key) << "\": " << value;
      }
      out << "}";
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "    }\n  }";
  return out.str();
}

/// Splits a trajectory array into its top-level entry objects. A tolerant
/// brace scanner (string-aware) rather than a JSON parser: the file is
/// machine-written, but hand edits should not silently corrupt it either —
/// returns false when the text is not a single well-formed array.
bool split_entries(const std::string& text, std::vector<std::string>& entries) {
  std::size_t depth = 0;
  bool in_string = false;
  bool seen_array = false;
  std::size_t entry_start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '[':
        if (depth == 0) {
          if (seen_array) return false;  // two arrays side by side
          seen_array = true;
        }
        ++depth;
        break;
      case '{':
        if (depth == 1) entry_start = i;
        ++depth;
        break;
      case '}':
        if (depth == 0) return false;
        --depth;
        if (depth == 1) entries.push_back(text.substr(entry_start, i + 1 - entry_start));
        break;
      case ']':
        if (depth == 0) return false;
        --depth;
        break;
      default: break;
    }
  }
  return seen_array && depth == 0 && !in_string;
}

/// Extracts the value of the first "label" key of an entry.
std::string entry_label(const std::string& entry) {
  const std::string key = "\"label\": \"";
  const std::size_t at = entry.find(key);
  if (at == std::string::npos) return "";
  std::string out;
  for (std::size_t i = at + key.size(); i < entry.size(); ++i) {
    if (entry[i] == '\\' && i + 1 < entry.size()) { out.push_back(entry[++i]); continue; }
    if (entry[i] == '"') break;
    out.push_back(entry[i]);
  }
  return out;
}

/// Extracts {benchmark name -> real_time_ms} from a trajectory entry by
/// anchoring on the per-row "real_time_ms" key and backtracking to the
/// quoted row name in front of the row's opening brace.
std::map<std::string, double> entry_times(const std::string& entry) {
  std::map<std::string, double> out;
  const std::string marker = "\"real_time_ms\": ";
  for (std::size_t at = entry.find(marker); at != std::string::npos;
       at = entry.find(marker, at + marker.size())) {
    const std::size_t brace = entry.rfind('{', at);
    if (brace == std::string::npos || brace == 0) continue;
    const std::size_t name_close = entry.rfind('"', brace - 1);
    if (name_close == std::string::npos || name_close == 0) continue;
    const std::size_t name_open = entry.rfind('"', name_close - 1);
    if (name_open == std::string::npos) continue;
    try {
      out[entry.substr(name_open + 1, name_close - name_open - 1)] =
          std::stod(entry.substr(at + marker.size()));
    } catch (const std::exception&) {
      // Malformed number; skip the row.
    }
  }
  return out;
}

/// The perf-regression gate: compares every candidate row against the
/// baseline entry's time for the same benchmark. Returns false (after
/// printing the offending rows) when any shared benchmark slowed down by
/// more than `max_regress_pct`.
bool check_regressions(const std::vector<BenchRow>& rows, const std::string& baseline,
                       double max_regress_pct) {
  const std::map<std::string, double> base = entry_times(baseline);
  bool ok = true;
  std::fprintf(stderr, "bench_to_json: gating against \"%s\" (max regress %+.1f%%)\n",
               entry_label(baseline).c_str(), max_regress_pct);
  for (const BenchRow& r : rows) {
    const auto it = base.find(r.name);
    if (it == base.end()) {
      std::fprintf(stderr, "  %-40s %10.3f ms  (new, no baseline)\n", r.name.c_str(),
                   r.real_time_ms);
      continue;
    }
    const double delta_pct =
        it->second > 0.0 ? 100.0 * (r.real_time_ms - it->second) / it->second : 0.0;
    const bool regressed = delta_pct > max_regress_pct;
    std::fprintf(stderr, "  %-40s %10.3f ms  vs %10.3f ms  %+7.1f%%%s\n", r.name.c_str(),
                 r.real_time_ms, it->second, delta_pct, regressed ? "  REGRESSION" : "");
    if (regressed) ok = false;
  }
  return ok;
}

int usage_error(const std::string& why) {
  std::cerr << "bench_to_json: " << why << "\n"
            << "usage: bench_to_json [--label NAME] [--in FILE] [--out FILE]\n"
            << "                     [--require NAME[,NAME...]] [--max-regress PCT]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const vdm::util::Flags flags(argc, argv);
  // A misspelt flag must not pass silently: "--max-regres 5" would record
  // an ungated entry and turn the CI perf gate off.
  double max_regress = 0.0;
  try {
    flags.reject_unknown({"label", "in", "out", "require", "max-regress"});
    max_regress = flags.get_double("max-regress", 0.0);
  } catch (const std::invalid_argument& e) {
    return usage_error(e.what());
  }
  if (!flags.positional().empty()) {
    return usage_error("unexpected argument '" + flags.positional().front() + "'");
  }
  const std::string label = flags.get("label", "unlabeled");
  const std::string in_path = flags.get("in", "");
  const std::string out_path = flags.get("out", "BENCH_e2e.json");

  std::ifstream in_file;
  if (!in_path.empty()) {
    in_file.open(in_path);
    if (!in_file) {
      std::cerr << "bench_to_json: cannot read " << in_path << "\n";
      return 1;
    }
  }
  std::istream& in = in_path.empty() ? std::cin : in_file;

  std::vector<BenchRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    BenchRow row;
    if (parse_row(line, row)) rows.push_back(row);
  }
  if (rows.empty()) {
    std::cerr << "bench_to_json: no benchmark rows found in input\n";
    return 1;
  }
  // Comma-separated list; every substring must match some parsed row.
  const std::string required = flags.get("require", "");
  for (std::size_t pos = 0; pos < required.size();) {
    const std::size_t comma = required.find(',', pos);
    const std::string one =
        required.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
    pos = comma == std::string::npos ? required.size() : comma + 1;
    if (one.empty()) continue;
    bool found = false;
    for (const BenchRow& r : rows) {
      if (r.name.find(one) != std::string::npos) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "bench_to_json: required benchmark '" << one
                << "' missing from input\n";
      return 1;
    }
  }

  // Rewrite the trajectory array: re-running under an already-used label
  // replaces that entry in place (one entry per label — repeated local
  // bench runs must not pile up duplicates), a fresh label appends.
  std::string existing;
  {
    std::ifstream prior(out_path);
    if (prior) {
      std::ostringstream buf;
      buf << prior.rdbuf();
      existing = buf.str();
    }
  }

  std::vector<std::string> entries;
  bool has_content = false;
  for (const char c : existing) {
    if (!std::isspace(static_cast<unsigned char>(c))) { has_content = true; break; }
  }
  if (has_content && !split_entries(existing, entries)) {
    std::cerr << "bench_to_json: " << out_path
              << " is not a trajectory array; refusing to overwrite\n";
    return 1;
  }

  // Perf gate: compare against the most recent entry recorded under a
  // different label — the previous PR's trajectory point — before letting
  // this run into the file.
  if (flags.has("max-regress")) {
    const std::string* baseline = nullptr;
    for (const std::string& e : entries) {
      if (entry_label(e) != label) baseline = &e;
    }
    if (baseline == nullptr) {
      std::cerr << "bench_to_json: --max-regress: no prior entry with a "
                   "different label in " << out_path << "; nothing to gate against\n";
    } else if (!check_regressions(rows, *baseline, max_regress)) {
      std::cerr << "bench_to_json: perf regression beyond " << max_regress
                << "% — not recording \"" << label << "\"\n";
      return 1;
    }
  }

  bool replaced = false;
  const std::string entry = format_entry(label, rows);
  for (std::string& e : entries) {
    if (entry_label(e) == label) {
      e = entry;
      replaced = true;
      break;
    }
  }
  if (!replaced) entries.push_back(entry);

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "bench_to_json: cannot write " << out_path << "\n";
    return 1;
  }
  out << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string& e = entries[i];
    const std::size_t start = e.find_first_not_of(" \t\n");
    out << "  " << (start == std::string::npos ? e : e.substr(start))
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "bench_to_json: " << (replaced ? "replaced" : "appended")
            << " \"" << label << "\" (" << rows.size() << " benchmarks) in "
            << out_path << "\n";
  return 0;
}
