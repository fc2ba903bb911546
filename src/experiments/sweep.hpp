#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "experiments/runner.hpp"

namespace vdm::experiments {

/// Options shared by every grid sweep.
struct SweepOptions {
  /// Worker cap for this sweep; 0 = hardware concurrency. Workers beyond
  /// the flattened task count never start.
  std::size_t threads = 0;
  /// Called after every finished (point, seed) task with the completed and
  /// total task counts. Serialized (never concurrent with itself), but the
  /// completion order across tasks is unspecified.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// Runs every (grid point, seed) combination of `points` x num_seeds as one
/// flat task set on the shared TaskPool and aggregates per point, in point
/// order.
///
/// Seed s of point p runs points[p] with .seed += s — the same per-point
/// seed offsets a run_many loop over the points would use, so a grid sweep
/// and a sequence of individual sweeps produce bit-identical aggregates.
/// Every task derives its RNG streams from its seed alone and lands in a
/// result slot addressed by its flattened index; aggregation walks slots in
/// index order. Output is therefore bit-identical for every thread count
/// and every task completion order.
///
/// Each worker owns one RunScratch for the whole sweep: consecutive tasks
/// on a worker rebuild topology/underlay/collector storage in place
/// (steady-state sweeps allocate no scaffolding after each worker's first
/// run of a shape).
///
/// A point with a walk_observer or a journal clamps the whole sweep to one
/// worker (either is a shared external sink); callers that let users pick a
/// thread count should surface that override rather than apply it silently.
///
/// The first exception cancels the remaining tasks and is rethrown here.
std::vector<AggregateResult> run_grid(std::span<const RunConfig> points,
                                      std::size_t num_seeds,
                                      const SweepOptions& options = {});

}  // namespace vdm::experiments
