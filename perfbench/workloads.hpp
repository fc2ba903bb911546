#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "experiments/runner.hpp"

namespace perfbench {

/// One named benchmark workload: the run_once shape plus how many
/// independent simulation seeds one benchmark seed folds together.
struct Workload {
  std::string_view name;
  vdm::experiments::RunConfig config;  ///< seed left at its default
  /// Simulation seeds per benchmark seed. Averaging the simulated scalars
  /// of several seeds narrows their spread across benchmark seeds.
  std::size_t sub_seeds = 1;
};

/// The three workloads of record, at full size, or at toy size when `smoke`
/// (same shapes, seconds in total, for the benchmark's own test).
std::vector<Workload> workloads(bool smoke);

/// Simulation seed `i` of benchmark seed `seed`: disjoint across benchmark
/// seeds for i < 16.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t i);

/// Members alive at the end of the run (source included) that the
/// workload's membership process implies: the slot timelines keep exactly
/// target_members; an event list leaves its joins minus its departures up
/// to total_time.
std::size_t expected_final_members(const vdm::experiments::RunConfig& config);

}  // namespace perfbench
