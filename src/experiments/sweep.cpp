#include "experiments/sweep.hpp"

#include <iterator>
#include <mutex>
#include <utility>

#include "util/require.hpp"
#include "util/task_pool.hpp"

namespace vdm::experiments {

namespace {

/// Summarizes every field with a 90 % interval, the paper's.
AggregateResult aggregate_runs(std::vector<RunResult> runs) {
  auto summarize_field = [&](double RunResult::* field) {
    std::vector<double> v;
    v.reserve(runs.size());
    for (const RunResult& r : runs) v.push_back(r.*field);
    return util::summarize(v, 0.90);
  };

  AggregateResult agg;
  agg.stress = summarize_field(&RunResult::stress);
  agg.stretch = summarize_field(&RunResult::stretch);
  agg.stretch_leaf = summarize_field(&RunResult::stretch_leaf);
  agg.stretch_max = summarize_field(&RunResult::stretch_max);
  agg.hopcount = summarize_field(&RunResult::hopcount);
  agg.hop_leaf = summarize_field(&RunResult::hop_leaf);
  agg.hop_max = summarize_field(&RunResult::hop_max);
  agg.loss = summarize_field(&RunResult::loss);
  agg.overhead = summarize_field(&RunResult::overhead);
  agg.overhead_per_chunk = summarize_field(&RunResult::overhead_per_chunk);
  agg.network_usage = summarize_field(&RunResult::network_usage);
  agg.startup_avg = summarize_field(&RunResult::startup_avg);
  agg.startup_max = summarize_field(&RunResult::startup_max);
  agg.startup_p50 = summarize_field(&RunResult::startup_p50);
  agg.startup_p99 = summarize_field(&RunResult::startup_p99);
  agg.join_rate = summarize_field(&RunResult::join_rate);
  agg.reconnect_avg = summarize_field(&RunResult::reconnect_avg);
  agg.reconnect_max = summarize_field(&RunResult::reconnect_max);
  agg.detection_avg = summarize_field(&RunResult::detection_avg);
  agg.detection_max = summarize_field(&RunResult::detection_max);
  agg.outage_avg = summarize_field(&RunResult::outage_avg);
  agg.outage_max = summarize_field(&RunResult::outage_max);
  agg.mst_ratio = summarize_field(&RunResult::mst_ratio);
  agg.runs = std::move(runs);
  return agg;
}

}  // namespace

std::vector<AggregateResult> run_grid(std::span<const RunConfig> points,
                                      std::size_t num_seeds,
                                      const SweepOptions& options) {
  VDM_REQUIRE(num_seeds >= 1);
  if (points.empty()) return {};
  const std::size_t total = points.size() * num_seeds;

  // A walk observer (vdmsim --trace-joins) or a journal (--journal) is an
  // external sink written from inside every run; concurrent runs would
  // interleave its records. Clamp the sweep to one worker whenever any
  // point installs one, regardless of what `options.threads` asks for.
  std::size_t thread_cap = options.threads;
  for (const RunConfig& p : points) {
    if (p.walk_observer != nullptr || p.journal != nullptr) {
      thread_cap = 1;
      break;
    }
  }

  util::TaskPool& pool = util::TaskPool::global();
  const std::size_t workers = pool.workers_for(total, thread_cap);
  std::vector<RunScratch> arenas(workers);
  std::vector<RunResult> runs(total);

  std::mutex progress_mu;
  std::size_t done = 0;

  pool.for_n(total, thread_cap, [&](const util::TaskPool::Context& ctx) {
    const std::size_t point = ctx.index / num_seeds;
    const std::size_t seed = ctx.index % num_seeds;
    RunConfig cfg = points[point];
    cfg.seed += seed;
    runs[ctx.index] = run_once(cfg, arenas[ctx.worker]);
    if (options.progress) {
      const std::lock_guard<std::mutex> lock(progress_mu);
      options.progress(++done, total);
    }
  });

  std::vector<AggregateResult> out;
  out.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    const auto first = std::make_move_iterator(
        runs.begin() + static_cast<std::ptrdiff_t>(p * num_seeds));
    out.push_back(aggregate_runs(
        std::vector<RunResult>(first, first + static_cast<std::ptrdiff_t>(num_seeds))));
  }
  return out;
}

AggregateResult run_many(const RunConfig& config, std::size_t num_seeds,
                         std::size_t threads) {
  SweepOptions options;
  options.threads = threads;
  std::vector<AggregateResult> aggs =
      run_grid(std::span<const RunConfig>(&config, 1), num_seeds, options);
  return std::move(aggs.front());
}

}  // namespace vdm::experiments
