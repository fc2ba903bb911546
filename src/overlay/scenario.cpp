#include "overlay/scenario.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "overlay/workload.hpp"
#include "util/require.hpp"

namespace vdm::overlay {

DegreeSpec DegreeSpec::uniform(int lo, int hi) {
  VDM_REQUIRE(lo >= 1 && hi >= lo);
  return DegreeSpec{lo, hi, -1.0};
}

DegreeSpec DegreeSpec::average(double avg) {
  // Checked before the int casts below: inf, NaN or a value past INT_MAX
  // would make them undefined.
  VDM_REQUIRE_MSG(std::isfinite(avg) && avg >= 1.0 &&
                      avg <= static_cast<double>(std::numeric_limits<int>::max()),
                  "degree average must be finite and lie in [1, INT_MAX]");
  const int lo = static_cast<int>(std::floor(avg));
  const int hi = static_cast<int>(std::ceil(avg));
  if (lo == hi) return DegreeSpec{lo, hi, 0.0};
  return DegreeSpec{lo, hi, avg - lo};
}

int DegreeSpec::sample(util::Rng& rng) const {
  if (p_hi < 0.0) return static_cast<int>(rng.uniform_int(lo, hi));
  return rng.chance(p_hi) ? hi : lo;
}

double DegreeSpec::mean() const {
  if (p_hi < 0.0) return (lo + hi) / 2.0;
  return lo + p_hi * (hi - lo);
}

std::string_view event_verb(WorkloadEvent::Kind kind) {
  switch (kind) {
    case WorkloadEvent::Kind::kJoin: return "join";
    case WorkloadEvent::Kind::kLeave: return "leave";
    case WorkloadEvent::Kind::kCrash: return "crash";
  }
  return "?";
}

EventExecutor::EventExecutor(Session& session, std::vector<char>& member)
    : session_(session), member_(member) {}

void EventExecutor::schedule(std::span<const WorkloadEvent> events,
                             sim::Time until) {
  sim::Reactor& reactor = session_.reactor();
  const std::size_t num_hosts = session_.underlay().num_hosts();
  sim::Time prev = reactor.now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const WorkloadEvent& ev = events[i];
    // Messages are built only on failure (VDM_REQUIRE_MSG is lazy).
    const auto where = [i] { return "event #" + std::to_string(i + 1); };
    VDM_REQUIRE_MSG(ev.at >= prev, where() + ": events must be sorted by time, "
                                     "none before the current time");
    prev = ev.at;
    VDM_REQUIRE_MSG(ev.host < num_hosts && ev.host != session_.source(),
                    where() + " references host " + std::to_string(ev.host) +
                        " outside the " + std::to_string(num_hosts) +
                        "-host underlay (or the source)");
    VDM_REQUIRE_MSG(ev.kind != WorkloadEvent::Kind::kJoin || ev.degree >= 1,
                    where() + ": degree must be >= 1");
  }
  member_.assign(num_hosts, 0);
  members_ = 0;
  for (const WorkloadEvent& ev : events) {
    if (ev.at > until) break;
    reactor.schedule_at(ev.at, [this, &ev] { fire(ev); });
  }
}

void EventExecutor::fire(const WorkloadEvent& e) {
  // Membership is checked when the event fires, not when the list is
  // scheduled: a host may join, leave and rejoin within one list.
  const bool join = e.kind == WorkloadEvent::Kind::kJoin;
  VDM_REQUIRE_MSG(static_cast<bool>(member_[e.host]) != join,
                  std::string(event_verb(e.kind)) + " of host " +
                      std::to_string(e.host) +
                      (join ? " which is already a member" : " which is not a member"));
  switch (e.kind) {
    case WorkloadEvent::Kind::kJoin: session_.join(e.host, e.degree); break;
    case WorkloadEvent::Kind::kLeave: session_.leave(e.host); break;
    case WorkloadEvent::Kind::kCrash: session_.crash(e.host); break;
  }
  member_[e.host] = join;
  members_ = join ? members_ + 1 : members_ - 1;
}

void check_scenario(const ScenarioParams& p, std::size_t num_hosts) {
  VDM_REQUIRE(p.target_members >= 1);
  // An infinite span never ends a loop over the timeline, and a NaN breaks
  // the slot compiler's heap order.
  VDM_REQUIRE_MSG(std::isfinite(p.join_phase), "join_phase must be finite");
  VDM_REQUIRE_MSG(std::isfinite(p.total_time), "total_time must be finite");
  VDM_REQUIRE_MSG(std::isfinite(p.churn_interval), "churn_interval must be finite");
  VDM_REQUIRE_MSG(std::isfinite(p.settle_time), "settle_time must be finite");
  VDM_REQUIRE_MSG(p.flash_count == 0 || (std::isfinite(p.flash_at) && p.flash_at >= 0.0),
                  "flash_at must be finite and >= 0");
  VDM_REQUIRE_MSG(p.target_members + p.flash_count < num_hosts,
                  "need spare hosts beyond the target membership for churn");
  VDM_REQUIRE(p.churn_rate >= 0.0 && p.churn_rate <= 1.0);
  VDM_REQUIRE(p.crash_fraction >= 0.0 && p.crash_fraction <= 1.0);
  VDM_REQUIRE(p.settle_time < p.churn_interval);
  VDM_REQUIRE(!p.batched_joins || p.batch_size >= 1);
}

ScenarioDriver::ScenarioDriver(Session& session, const ScenarioParams& params,
                               util::Rng rng, ScenarioScratch* scratch)
    : session_(session),
      params_(params),
      rng_(rng),
      scratch_(scratch != nullptr ? *scratch : own_),
      executor_(session, scratch_.member) {
  check_scenario(params_, session.underlay().num_hosts());
}

void ScenarioDriver::schedule_measurement_grid(const MeasureFn& on_measure) {
  sim::Reactor& sim = session_.reactor();
  const auto measure = [this, &on_measure] {
    on_measure(session_.reactor().now());
  };
  if (params_.batched_joins) {
    // One point at the end of each batch's interval.
    for (std::size_t i = 0; i * params_.batch_size < params_.target_members; ++i) {
      sim.schedule_at(static_cast<double>(i) * params_.churn_interval +
                          params_.churn_interval,
                      measure);
    }
    return;
  }
  // One point after the join phase settles, then one at the end of every
  // churn interval. Closed form per point, the same one the slot compiler
  // uses: slot i + 1 starts bitwise at grid point i + 1 even at intervals
  // like 0.1, where an accumulating `+=` drifts off the grid.
  const sim::Time first_slot = params_.join_phase + params_.settle_time;
  sim.schedule_at(first_slot, measure);
  for (std::size_t i = 0;; ++i) {
    const sim::Time slot_end =
        first_slot + static_cast<double>(i + 1) * params_.churn_interval;
    if (!(slot_end <= params_.total_time)) break;
    sim.schedule_at(slot_end, measure);
  }
}

void ScenarioDriver::run(const MeasureFn& on_measure) {
  WorkloadParams slots;
  slots.kind = WorkloadKind::kSlots;
  generate_workload(params_, slots, session_.underlay().num_hosts(),
                    session_.source(), rng_, scratch_);
  run_trace(scratch_.events, on_measure);
}

void ScenarioDriver::run_trace(std::span<const WorkloadEvent> events,
                               const MeasureFn& on_measure) {
  VDM_REQUIRE(on_measure != nullptr);
  session_.start();
  // Measurements first, then the events: at an equal timestamp the settled
  // measurement fires before the membership change.
  schedule_measurement_grid(on_measure);
  executor_.schedule(events, params_.total_time);
  session_.reactor().run_until(params_.total_time);
  session_.stop();
}

}  // namespace vdm::overlay
