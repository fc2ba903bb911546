#pragma once

// Names the first event where two membership journals part, so a moved
// golden reads "row #N differs" instead of only "scalar #i drifted".

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "overlay/journal.hpp"

namespace vdm::testutil {

/// FNV-1a over the kind, child and parent of every row, times left out:
/// equal for two runs that changed the tree the same way in the same
/// order, however their times differ.
inline std::uint64_t structure_hash(std::span<const overlay::JournalRow> rows) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const overlay::JournalRow& r : rows) {
    mix(static_cast<std::uint64_t>(r.kind));
    mix(r.child);
    mix(r.parent);
  }
  return h;
}

/// Where two journals first differ. kStructure: the rows there differ in
/// kind, child or parent, or one journal has ended; kTime: they name the
/// same change at different times.
struct JournalDiff {
  enum class Kind { kNone, kStructure, kTime };
  Kind kind = Kind::kNone;
  std::size_t row = 0;
};

inline JournalDiff first_difference(std::span<const overlay::JournalRow> a,
                                    std::span<const overlay::JournalRow> b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].kind != b[i].kind || a[i].child != b[i].child ||
        a[i].parent != b[i].parent) {
      return {JournalDiff::Kind::kStructure, i};
    }
    if (a[i].t != b[i].t) return {JournalDiff::Kind::kTime, i};
  }
  if (a.size() != b.size()) return {JournalDiff::Kind::kStructure, n};
  return {};
}

/// One row as text: "attach 7 -> 3 at 0x1.9p+8", or "(end)" past the last.
inline std::string describe_row(std::span<const overlay::JournalRow> rows,
                                std::size_t i) {
  if (i >= rows.size()) return "(end)";
  const overlay::JournalRow& r = rows[i];
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %u -> %u at %a",
                r.kind == overlay::JournalRow::Kind::kAttach ? "attach" : "detach",
                r.child, r.parent, r.t);
  return buf;
}

/// "identical", or which row differs and how, with both sides' rows.
inline std::string describe(const JournalDiff& d,
                            std::span<const overlay::JournalRow> a,
                            std::span<const overlay::JournalRow> b) {
  if (d.kind == JournalDiff::Kind::kNone) return "identical";
  return "row #" + std::to_string(d.row) +
         (d.kind == JournalDiff::Kind::kTime ? " differs in time: "
                                             : " differs in structure: ") +
         describe_row(a, d.row) + " vs " + describe_row(b, d.row);
}

}  // namespace vdm::testutil
