#pragma once

#include <functional>
#include <span>
#include <vector>

#include "metrics/tree_metrics.hpp"
#include "overlay/session.hpp"

namespace vdm::metrics {

/// The paper's rates over a window of a run's counts: a difference of two
/// Session::totals() snapshots, or the totals for the whole run. Each is 0
/// when its denominator is.
struct Rates {
  /// 1 - delivered/expected chunks.
  double loss_rate = 0.0;
  /// Control messages per data transmission — the Equation 3.6 overhead.
  double overhead = 0.0;
  /// Control messages per source chunk (the Chapter-5 normalization).
  double overhead_per_chunk = 0.0;
};
Rates rates(const overlay::Session::Counters& window);

/// One measurement epoch: the settled-tree snapshot plus the control/data
/// window since the previous epoch.
struct EpochSample {
  sim::Time at = 0.0;
  TreeMetrics tree;

  /// 1 - delivered/expected over the window (0 when no chunks flowed).
  double loss_rate = 0.0;
  /// Control messages per data transmission over the window — the paper's
  /// Equation 3.6 overhead.
  double overhead = 0.0;
  /// Control messages per source chunk (the Chapter-5 normalization).
  double overhead_per_chunk = 0.0;

  std::uint64_t control_messages = 0;
  std::uint64_t data_transmissions = 0;
  /// Members alive in the tree at the measurement instant (incl. source) —
  /// the membership axis of workload trajectories.
  std::size_t members = 0;

  std::vector<double> startup_times;
  std::vector<double> reconnect_times;
  /// Failure-detection latencies of the window's crash recoveries (records
  /// whose TimingRecord::detection > 0); empty without heartbeat churn.
  std::vector<double> detection_times;
  /// Full viewer-visible outages of those recoveries: detection + rejoin.
  std::vector<double> outage_times;
};

/// Reusable working memory for a Collector: the epoch-sample slots (and all
/// their nested vectors), the timing-record swap buffers, and the
/// tree-metrics scratch. A per-worker run arena holds one of these so that
/// every run after the first on a worker captures epochs without growing the
/// heap. Carries no state between runs beyond capacity.
struct CollectorScratch {
  std::vector<EpochSample> samples;  ///< slot pool; first `used` are live
  std::size_t used = 0;
  /// Swap buffers for Session::drain_*_records (ping-pong, no allocation).
  std::vector<overlay::TimingRecord> startup_buf;
  std::vector<overlay::TimingRecord> reconnect_buf;
  /// Gather/sort buffer for the percentile accessors.
  std::vector<double> percentile_buf;
  TreeMetricsScratch tree;

  /// Heap bytes reserved across all slots and buffers — the arena-growth
  /// accounting input (a steady-state capture loop keeps this constant).
  std::size_t capacity_bytes() const;
};

/// Captures epochs from a Session at measurement points and aggregates them
/// into the scalar series the paper's figures plot.
class Collector {
 public:
  explicit Collector(overlay::Session& session)
      : session_(&session), scratch_(&owned_) {
    owned_.used = 0;
  }

  /// Borrows an external scratch (a run arena's): sample slots, timing
  /// buffers and tree scratch are reused across Collector lifetimes. Resets
  /// `used`, not capacity. The scratch must outlive the Collector.
  Collector(overlay::Session& session, CollectorScratch& scratch)
      : session_(&session), scratch_(&scratch) {
    scratch.used = 0;
  }

  /// Worker threads for the tree-measurement pass (same semantics as
  /// SessionParams::threads: 1 = serial default, 0 = hardware concurrency).
  /// Bit-identical results for every value.
  void set_threads(int threads) { threads_ = threads; }

  /// Snapshot now; the epoch's counts are the session totals since the
  /// previous capture. Call from the ScenarioDriver's measurement callback.
  void capture(sim::Time at);

  std::span<const EpochSample> samples() const {
    return {scratch_->samples.data(), scratch_->used};
  }

  /// Mean of an epoch field over samples [skip, end).
  double mean_of(const std::function<double(const EpochSample&)>& get,
                 std::size_t skip = 0) const;

  // Convenience accessors matching the figures' y-axes.
  double mean_stress(std::size_t skip = 0) const;
  double mean_stretch(std::size_t skip = 0) const;
  double mean_hopcount(std::size_t skip = 0) const;
  double mean_loss(std::size_t skip = 0) const;
  double mean_overhead(std::size_t skip = 0) const;
  double mean_overhead_per_chunk(std::size_t skip = 0) const;
  double mean_network_usage(std::size_t skip = 0) const;

  /// Run-wide summary of one per-event timing family. All zeros when the
  /// family recorded nothing (e.g. no crash churn ran).
  struct EventTimingStats {
    double avg = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
  };

  /// Scratch-backed summaries of the four timing families: gathered and
  /// sorted in the percentile buffer, so allocation-free once warm — the
  /// form run_once uses instead of the all_times copy below.
  EventTimingStats startup_stats() const;
  EventTimingStats reconnect_stats() const;
  EventTimingStats detection_stats() const;
  EventTimingStats outage_stats() const;

  /// One timing family across all epochs, e.g.
  /// all_times(&EpochSample::startup_times).
  std::vector<double> all_times(std::vector<double> EpochSample::* field) const;

 private:
  EventTimingStats stats_of(std::vector<double> EpochSample::* field) const;
  void gather(std::vector<double> EpochSample::* field,
              std::vector<double>& out) const;

  overlay::Session* session_;
  /// Active scratch: &owned_ for the plain constructor, the caller's arena
  /// for the borrowing one. Reusing slots keeps measure_tree and the epoch
  /// capture loop allocation-free in steady state.
  CollectorScratch* scratch_;
  CollectorScratch owned_;
  /// Session totals at the previous capture (zero before the first). Kept
  /// here, not in the scratch, so a warm arena starts each run from zero.
  overlay::Session::Counters seen_;
  int threads_ = 1;
};

}  // namespace vdm::metrics
