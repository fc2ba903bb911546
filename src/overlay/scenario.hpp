#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "overlay/session.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {

/// One membership event — the only event format. Every workload kind (the
/// slot timeline included) becomes a list of these before the reactor runs
/// (overlay/workload.hpp), trace and scenario files round-trip them, and
/// EventExecutor runs them verbatim, drawing no randomness: a replayed list
/// reproduces the generating run bit for bit.
struct WorkloadEvent {
  enum class Kind : std::uint8_t { kJoin, kLeave, kCrash };
  sim::Time at = 0.0;
  Kind kind = Kind::kJoin;
  net::HostId host = net::kInvalidHost;
  /// Degree limit assigned at join time (ignored for departures).
  int degree = 4;

  friend bool operator==(const WorkloadEvent&, const WorkloadEvent&) = default;
};

/// The trace grammar's verb for a kind: "join", "leave" or "crash".
std::string_view event_verb(WorkloadEvent::Kind kind);

/// How child-capacity (degree) limits are assigned to joining members.
struct DegreeSpec {
  int lo = 2;
  int hi = 5;
  /// Probability of drawing `hi` when realizing a fractional average.
  double p_hi = -1.0;  // < 0 means plain uniform over [lo, hi]

  /// Uniform integer limits in [lo, hi] — the paper's Chapter-3 default
  /// ("degree limits of nodes ranges from 2 to 5").
  static DegreeSpec uniform(int lo, int hi);

  /// Mixture of floor/ceil realizing an exact fractional mean, e.g. the
  /// 1.25 / 1.5 / 1.75 points of the node-degree sweeps (Figs 3.33-3.36).
  /// Requires a finite `avg` in [1, INT_MAX].
  static DegreeSpec average(double avg);

  int sample(util::Rng& rng) const;
  double mean() const;
};

/// Parameters of the paper's experiment timeline (§3.6.2): a staggered join
/// phase, then repeated churn slots, each ending with a settle period and a
/// measurement point.
struct ScenarioParams {
  /// Members besides the source kept in the overlay.
  std::size_t target_members = 200;
  sim::Time join_phase = 2000.0;
  sim::Time total_time = 10000.0;
  sim::Time churn_interval = 400.0;
  /// Fraction of target_members replaced (leave + join) per interval.
  double churn_rate = 0.05;
  /// Probability that a churn departure is an ungraceful crash
  /// (Session::crash — no leave notice) instead of a graceful leave.
  /// 0 reproduces the all-graceful timeline bit for bit.
  double crash_fraction = 0.0;
  /// Quiet period before each measurement.
  sim::Time settle_time = 100.0;
  DegreeSpec degrees = DegreeSpec::uniform(2, 5);

  /// Chapter-4 mode: instead of churn slots, `batch_size` nodes join per
  /// interval (measuring after each batch) until target_members is reached.
  bool batched_joins = false;
  std::size_t batch_size = 50;

  /// Flash crowd: `flash_count` extra members (on top of target_members)
  /// all join at the single timestamp `flash_at`. Under join_mode ==
  /// kConcurrent they form one drain batch; sequential modes process them
  /// back-to-back at that instant. 0 disables.
  std::size_t flash_count = 0;
  sim::Time flash_at = 0.0;
};

/// Checks what every list builder and ScenarioDriver rely on: at least one
/// member, spare hosts beyond target_members + flash_count, finite times (a
/// finite flash_at >= 0 when flash_count > 0), rates in [0, 1], settle_time
/// below churn_interval, a positive batch size.
void check_scenario(const ScenarioParams& params, std::size_t num_hosts);

/// A decision waiting in a generator's (time, seq) heap: a membership
/// event, or the start of a churn slot.
struct TimelineEntry {
  /// WorkloadEvent::Kind's values, plus kSlotStart.
  enum class Kind : std::uint8_t { kJoin, kLeave, kCrash, kSlotStart };
  sim::Time at = 0.0;
  std::uint64_t seq = 0;
  Kind kind = Kind::kJoin;
  net::HostId host = net::kInvalidHost;
};

/// Reusable buffers of one run's membership process — the slot compiler's
/// host pool, member list, pending-leave flags and heap, the synthetic
/// generators' pre-drawn arrival instants, the executor's member flags, the
/// event list — shuttled through RunScratch so warm runs rebuild them in
/// place (same seed and config, same sizes).
struct ScenarioScratch {
  std::vector<net::HostId> available;
  std::vector<net::HostId> in_overlay;
  std::vector<char> pending_leave;
  std::vector<TimelineEntry> heap;
  std::vector<double> seeded;
  std::vector<char> member;
  std::vector<WorkloadEvent> events;

  std::size_t capacity_bytes() const {
    return (available.capacity() + in_overlay.capacity()) *
               sizeof(net::HostId) +
           pending_leave.capacity() + member.capacity() +
           heap.capacity() * sizeof(TimelineEntry) +
           seeded.capacity() * sizeof(double) +
           events.capacity() * sizeof(WorkloadEvent);
  }
};

/// The one executor of membership event lists. schedule() checks the whole
/// list up front — time order, host range, never the source, degree >= 1 —
/// then puts every event on the session's reactor in list order. Each event
/// checks membership when it fires, against per-host flags in O(1), so a
/// leave of a non-member names the host instead of tripping a session
/// invariant.
class EventExecutor {
 public:
  /// `member` provides the per-host flag storage (its capacity is reused).
  EventExecutor(Session& session, std::vector<char>& member);

  /// Schedules the events at or before `until` — the horizon of the run
  /// that fires them, which `events` and the executor must outlive; later
  /// events are checked but could never fire.
  void schedule(std::span<const WorkloadEvent> events, sim::Time until);

  /// Hosts the executed events have made members (excluding the source).
  std::size_t members() const { return members_; }

 private:
  void fire(const WorkloadEvent& e);

  Session& session_;
  std::vector<char>& member_;
  std::size_t members_ = 0;
};

/// Runs an experiment on one Session: an event list through an
/// EventExecutor, with a callback at every point of the measurement grid —
/// one point after the join phase settles, then one at the end of every
/// churn interval up to total_time (with batched_joins: one per batch).
class ScenarioDriver {
 public:
  /// `scratch` (optional) donates warm buffers for the slot compiler and
  /// the executor; it must outlive the driver.
  ScenarioDriver(Session& session, const ScenarioParams& params, util::Rng rng,
                 ScenarioScratch* scratch = nullptr);
  ScenarioDriver(const ScenarioDriver&) = delete;
  ScenarioDriver& operator=(const ScenarioDriver&) = delete;

  /// Measurement callback: invoked at each measurement point (settled tree).
  using MeasureFn = std::function<void(sim::Time)>;

  /// Runs the paper's timeline: compiles the slot (or batched) timeline and
  /// its flash crowd from the driver's rng (generate_workload, kSlots), then
  /// runs the list as run_trace does.
  void run(const MeasureFn& on_measure);

  /// Runs a time-ordered event list to total_time, calling `on_measure` at
  /// every measurement point (never during churn or settling). `events`
  /// must outlive the call; a bad list fails with a clear error.
  void run_trace(std::span<const WorkloadEvent> events, const MeasureFn& on_measure);

  /// Hosts currently alive in the overlay (excluding the source).
  std::size_t members_alive() const { return executor_.members(); }

 private:
  void schedule_measurement_grid(const MeasureFn& on_measure);

  Session& session_;
  ScenarioParams params_;
  util::Rng rng_;
  ScenarioScratch own_;       // used when no scratch is donated
  ScenarioScratch& scratch_;
  EventExecutor executor_;
};

}  // namespace vdm::overlay
