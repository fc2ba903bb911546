#include "overlay/workload.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>

#include "util/flags.hpp"
#include "util/require.hpp"

namespace vdm::overlay {

namespace {

using EntryKind = TimelineEntry::Kind;

/// A (time, seq) min-heap: the earliest entry, and among equal times the
/// one pushed first, pops first. `seq` is unique, so the order is total and
/// the popped stream is a pure function of the rng.
struct Later {
  bool operator()(const TimelineEntry& a, const TimelineEntry& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

void push_entry(std::vector<TimelineEntry>& heap, const TimelineEntry& e) {
  heap.push_back(e);
  std::push_heap(heap.begin(), heap.end(), Later{});
}

TimelineEntry pop_entry(std::vector<TimelineEntry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), Later{});
  const TimelineEntry e = heap.back();
  heap.pop_back();
  return e;
}

void fill_pool(std::vector<net::HostId>& pool, std::size_t num_hosts,
               net::HostId source) {
  pool.clear();
  for (net::HostId h = 0; h < num_hosts; ++h) {
    if (h != source) pool.push_back(h);
  }
}

/// Removes and returns a uniformly drawn host (swap with the back).
net::HostId take_random(std::vector<net::HostId>& pool, util::Rng& rng) {
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
  const net::HostId h = pool[i];
  pool[i] = pool.back();
  pool.pop_back();
  return h;
}

/// The paper's timeline (generate_workload, kSlots). Every decision is
/// pushed on a (time, seq) heap in the order it is made and popped in the
/// order a reactor would fire it. Replaying the draws this way is exact
/// because the rng is private to the timeline and its membership (member
/// list, pool, pending victims) changes only through its own events.
void compile_slots(const ScenarioParams& p, std::size_t num_hosts,
                   net::HostId source, util::Rng& rng, ScenarioScratch& s) {
  fill_pool(s.available, num_hosts, source);
  s.in_overlay.clear();
  s.pending_leave.assign(num_hosts, 0);
  s.heap.clear();
  std::size_t pending = 0;  // victims drawn whose departure has not fired
  std::uint64_t seq = 0;
  const auto push = [&](sim::Time at, EntryKind kind, net::HostId host) {
    push_entry(s.heap, {at, seq++, kind, host});
  };
  const auto draw_available = [&] {
    VDM_REQUIRE_MSG(!s.available.empty(),
                    "host pool exhausted: target_members + flash_count + "
                    "in-flight churn joins exceed the " +
                        std::to_string(num_hosts) +
                        "-host underlay pool; enlarge host_pool / --nodes");
    return take_random(s.available, rng);
  };

  // Layout: every host and time decided before the timeline runs.
  const sim::Time active_span = p.churn_interval - p.settle_time;
  if (p.batched_joins) {
    for (std::size_t i = 0; i < p.target_members; ++i) {
      const sim::Time batch_start =
          static_cast<double>(i / p.batch_size) * p.churn_interval;
      const net::HostId h = draw_available();
      push(batch_start + rng.uniform(0.001, active_span), EntryKind::kJoin, h);
    }
  } else {
    for (std::size_t i = 0; i < p.target_members; ++i) {
      const net::HostId h = draw_available();
      // Small positive floor keeps the source's activation strictly first.
      push(rng.uniform(0.001, std::max(0.002, p.join_phase)), EntryKind::kJoin,
           h);
    }
    // Slot i starts at the closed form first_slot + i * interval, the
    // measurement grid's own (ScenarioDriver): an accumulating `+=` drifts
    // off the grid over long horizons at intervals like 0.1.
    const sim::Time first_slot = p.join_phase + p.settle_time;
    for (std::size_t i = 0;
         first_slot + static_cast<double>(i + 1) * p.churn_interval <= p.total_time;
         ++i) {
      push(first_slot + static_cast<double>(i) * p.churn_interval,
           EntryKind::kSlotStart, net::kInvalidHost);
    }
  }
  // The flash crowd joins at one instant: one drain batch under the
  // concurrent pipeline.
  for (std::size_t i = 0; i < p.flash_count; ++i) {
    push(p.flash_at, EntryKind::kJoin, draw_available());
  }

  // Run: pop in firing order until past the horizon (nothing later fires,
  // so none of its draws happen).
  const auto churn_count = static_cast<std::size_t>(
      std::llround(p.churn_rate * static_cast<double>(p.target_members)));
  while (!s.heap.empty() && s.heap.front().at <= p.total_time) {
    const TimelineEntry e = pop_entry(s.heap);
    switch (e.kind) {
      case EntryKind::kJoin:
        s.events.push_back(
            {e.at, WorkloadEvent::Kind::kJoin, e.host, p.degrees.sample(rng)});
        s.in_overlay.push_back(e.host);
        break;
      case EntryKind::kLeave:
      case EntryKind::kCrash: {
        s.events.push_back(
            {e.at, static_cast<WorkloadEvent::Kind>(e.kind), e.host, 4});
        // Victims are drawn by index into the member list, so its order
        // (append on join, swap-with-back on departure) is part of the
        // draw sequence.
        const auto it =
            std::find(s.in_overlay.begin(), s.in_overlay.end(), e.host);
        *it = s.in_overlay.back();
        s.in_overlay.pop_back();
        if (s.pending_leave[e.host]) {
          s.pending_leave[e.host] = 0;
          --pending;
        }
        s.available.push_back(e.host);
        break;
      }
      case EntryKind::kSlotStart:
        // Victims are decided at slot start (so they are alive then); the
        // leave/join pairs spread over the active part of the slot.
        for (std::size_t j = 0; j < churn_count; ++j) {
          VDM_REQUIRE(!s.in_overlay.empty());
          // Slot churn >= membership: skip the whole replacement pair, or
          // membership would creep above target_members.
          if (pending >= s.in_overlay.size()) continue;
          // A non-pending member exists, so rejection sampling terminates.
          const auto last = static_cast<std::int64_t>(s.in_overlay.size()) - 1;
          net::HostId victim = net::kInvalidHost;
          while (victim == net::kInvalidHost) {
            const net::HostId h =
                s.in_overlay[static_cast<std::size_t>(rng.uniform_int(0, last))];
            if (!s.pending_leave[h]) victim = h;
          }
          s.pending_leave[victim] = 1;
          ++pending;
          // crash_fraction == 0 short-circuits before chance(), leaving the
          // rng stream of all-graceful runs untouched.
          const bool crash =
              p.crash_fraction > 0.0 && rng.chance(p.crash_fraction);
          push(e.at + rng.uniform(0.0, active_span),
               crash ? EntryKind::kCrash : EntryKind::kLeave, victim);
          const net::HostId joiner = draw_available();
          push(e.at + rng.uniform(0.0, active_span), EntryKind::kJoin, joiner);
        }
        break;
    }
  }
}

/// The synthetic kinds (generate_workload, kPoisson/kDiurnal/kPareto).
void synthesize(const ScenarioParams& scenario, const WorkloadParams& workload,
                std::size_t num_hosts, net::HostId source, util::Rng& rng,
                ScenarioScratch& s) {
  const WorkloadKind kind = workload.kind;
  VDM_REQUIRE(workload.mean_session > 0.0);
  if (kind == WorkloadKind::kPareto) {
    VDM_REQUIRE_MSG(workload.pareto_alpha > 1.0,
                    "Pareto shape must exceed 1 for a finite mean session");
  }
  if (kind == WorkloadKind::kDiurnal) {
    VDM_REQUIRE(workload.diurnal_period > 0.0);
    VDM_REQUIRE(workload.diurnal_amplitude >= 0.0 &&
                workload.diurnal_amplitude <= 1.0);
  }
  fill_pool(s.available, num_hosts, source);
  s.heap.clear();

  // Pareto scale chosen so the mean session matches the exponential kinds:
  // E[Pareto(xm, a)] = xm * a / (a - 1).
  const double pareto_xm =
      workload.mean_session * (workload.pareto_alpha - 1.0) /
      workload.pareto_alpha;
  auto session_length = [&]() -> double {
    if (kind == WorkloadKind::kPareto) {
      return rng.pareto(pareto_xm, workload.pareto_alpha);
    }
    return rng.exponential(workload.mean_session);
  };

  // Pre-drawn arrival instants: the staggered initial joins (the slot
  // timeline's window) plus the flash burst.
  std::vector<double>& seeded = s.seeded;
  seeded.clear();
  seeded.reserve(scenario.target_members + scenario.flash_count);
  for (std::size_t i = 0; i < scenario.target_members; ++i) {
    seeded.push_back(
        rng.uniform(0.001, std::max(0.002, scenario.join_phase)));
  }
  std::sort(seeded.begin(), seeded.end());
  if (scenario.flash_count > 0) {
    const auto pos =
        std::upper_bound(seeded.begin(), seeded.end(), scenario.flash_at);
    seeded.insert(pos, scenario.flash_count, scenario.flash_at);
  }

  // Little's law: this arrival rate balances mean_session departures at the
  // target membership.
  const double lambda =
      static_cast<double>(scenario.target_members) / workload.mean_session;
  const double lambda_max =
      kind == WorkloadKind::kDiurnal
          ? lambda * (1.0 + workload.diurnal_amplitude)
          : lambda;
  // Ongoing arrivals start when the join phase ends; diurnal modulation is
  // realized by thinning a homogeneous lambda_max stream.
  auto next_arrival_after = [&](double t) -> double {
    for (;;) {
      t += rng.exponential(1.0 / lambda_max);
      if (kind != WorkloadKind::kDiurnal) return t;
      const double phase = 2.0 * std::numbers::pi *
                           (t - scenario.join_phase) / workload.diurnal_period;
      const double rate =
          lambda * (1.0 + workload.diurnal_amplitude * std::sin(phase));
      if (rng.chance(rate / lambda_max)) return t;
      if (t > scenario.total_time) return t;  // past the horizon; stop thinning
    }
  };

  // Scheduled departures wait on the (time, seq) heap; `seq` breaks time
  // ties by join order.
  std::uint64_t seq = 0;
  auto emit_arrival = [&](double at) {
    // A saturated pool (membership fluctuated up to the host count) simply
    // drops the arrival; the driver-side pool can therefore never exhaust.
    if (s.available.empty()) return;
    const net::HostId h = take_random(s.available, rng);
    const int degree = scenario.degrees.sample(rng);
    s.events.push_back({at, WorkloadEvent::Kind::kJoin, h, degree});
    const double leaves_at = at + session_length();
    // crash_fraction == 0 short-circuits before chance(), as in the slots.
    const bool crash = scenario.crash_fraction > 0.0 &&
                       rng.chance(scenario.crash_fraction);
    if (leaves_at <= scenario.total_time) {
      push_entry(s.heap, {leaves_at, seq++,
                          crash ? EntryKind::kCrash : EntryKind::kLeave, h});
    }
    // else: the member outlives the run; its host never returns to the pool.
  };

  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::size_t next_seeded = 0;
  double next_generated = next_arrival_after(scenario.join_phase);
  for (;;) {
    const double seeded_at =
        next_seeded < seeded.size() ? seeded[next_seeded] : kNever;
    const double arrival_at = std::min(seeded_at, next_generated);
    const double departure_at = s.heap.empty() ? kNever : s.heap.front().at;
    if (std::min(arrival_at, departure_at) > scenario.total_time) break;
    if (arrival_at <= departure_at) {
      emit_arrival(arrival_at);
      if (seeded_at <= next_generated) {
        ++next_seeded;
      } else {
        next_generated = next_arrival_after(next_generated);
      }
    } else {
      const TimelineEntry d = pop_entry(s.heap);
      s.events.push_back(
          {d.at, static_cast<WorkloadEvent::Kind>(d.kind), d.host, 4});
      s.available.push_back(d.host);
    }
  }
}

}  // namespace

bool parse_workload_kind(std::string_view text, WorkloadParams& out) {
  if (text == "slots") {
    out.kind = WorkloadKind::kSlots;
  } else if (text == "poisson") {
    out.kind = WorkloadKind::kPoisson;
  } else if (text == "diurnal") {
    out.kind = WorkloadKind::kDiurnal;
  } else if (text == "pareto") {
    out.kind = WorkloadKind::kPareto;
  } else if (text.starts_with("trace:") && text.size() > 6) {
    out.kind = WorkloadKind::kTrace;
    out.trace_path = std::string(text.substr(6));
  } else {
    return false;
  }
  return true;
}

std::string_view workload_kind_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSlots: return "slots";
    case WorkloadKind::kPoisson: return "poisson";
    case WorkloadKind::kDiurnal: return "diurnal";
    case WorkloadKind::kPareto: return "pareto";
    case WorkloadKind::kTrace: return "trace";
  }
  return "?";
}

void generate_workload(const ScenarioParams& scenario,
                       const WorkloadParams& workload, std::size_t num_hosts,
                       net::HostId source, util::Rng& rng,
                       ScenarioScratch& scratch) {
  VDM_REQUIRE_MSG(workload.kind != WorkloadKind::kTrace,
                  "a trace is loaded (load_trace_file), not generated");
  check_scenario(scenario, num_hosts);
  scratch.events.clear();
  if (workload.kind == WorkloadKind::kSlots) {
    compile_slots(scenario, num_hosts, source, rng, scratch);
  } else {
    synthesize(scenario, workload, num_hosts, source, rng, scratch);
  }
}

void generate_workload(const ScenarioParams& scenario,
                       const WorkloadParams& workload, std::size_t num_hosts,
                       net::HostId source, util::Rng& rng,
                       std::vector<WorkloadEvent>& out) {
  ScenarioScratch scratch;
  scratch.events = std::move(out);
  generate_workload(scenario, workload, num_hosts, source, rng, scratch);
  out = std::move(scratch.events);
}

void assign_flash_hosts(std::span<WorkloadEvent> events) {
  std::vector<net::HostId> named;
  for (const WorkloadEvent& e : events) {
    if (e.host != net::kInvalidHost) named.push_back(e.host);
  }
  std::sort(named.begin(), named.end());
  auto taken = named.begin();
  net::HostId next = 1;
  for (WorkloadEvent& e : events) {
    if (e.host != net::kInvalidHost) continue;
    for (;; ++next) {  // skip every id another event names
      taken = std::lower_bound(taken, named.end(), next);
      if (taken == named.end() || *taken != next) break;
    }
    VDM_REQUIRE_MSG(next != net::kInvalidHost,
                    "flash bursts exhaust the host id space");
    e.host = next++;
  }
}

void write_trace(std::ostream& os, std::span<const WorkloadEvent> events,
                 sim::Time end_time) {
  VDM_REQUIRE_MSG(events.empty() || end_time >= events.back().at,
                  "a trace's terminate time must not precede its last event");
  // Full double precision so a written trace replays bit-identically.
  os.precision(17);
  os << "# vdm membership events: t,join|leave|crash,host[,degree]; "
        "t,terminate\n";
  for (const WorkloadEvent& e : events) {
    os << e.at << ',' << event_verb(e.kind) << ',' << e.host;
    if (e.kind == WorkloadEvent::Kind::kJoin) os << ',' << e.degree;
    os << '\n';
  }
  os << end_time << ",terminate\n";
}

void write_trace_file(const std::string& path,
                      std::span<const WorkloadEvent> events, sim::Time end_time) {
  std::ofstream os(path);
  VDM_REQUIRE_MSG(os.is_open(), "cannot open trace file for writing: " + path);
  write_trace(os, events, end_time);
  VDM_REQUIRE_MSG(static_cast<bool>(os), "error writing trace file: " + path);
}

sim::Time parse_trace(std::istream& is, std::vector<WorkloadEvent>& out) {
  // Flash lines expand before any underlay bounds the hosts: cap the joins
  // they add, so a typo'd count cannot allocate gigabytes.
  constexpr std::size_t kMaxFlashJoins = std::size_t{1} << 20;
  out.clear();
  bool terminated = false;
  std::size_t flash_joins = 0;
  sim::Time horizon = 0.0;
  std::string line;
  for (std::size_t line_no = 1; std::getline(is, line); ++line_no) {
    const auto fail = [line_no](const std::string& why) {
      throw util::InvariantError("trace line " + std::to_string(line_no) + ": " + why);
    };
    line.erase(std::min(line.find('#'), line.size()));
    std::replace(line.begin(), line.end(), ',', ' ');  // CSV or whitespace
    std::istringstream fields(line);
    const std::vector<std::string> f{std::istream_iterator<std::string>(fields), {}};
    if (f.empty()) continue;  // blank / comment-only line
    if (terminated) fail("event after terminate");
    sim::Time at = 0.0;
    if (!util::parse_whole(f[0], at) || !std::isfinite(at) || at < 0.0) {
      fail("time '" + f[0] + "' is not a finite number >= 0");
    }
    if (at < horizon) fail("time " + f[0] + " is below the previous line's");
    horizon = at;
    const std::string kind = f.size() > 1 ? f[1] : "";
    const bool flash = kind == "flash";
    const bool departure = kind == "leave" || kind == "crash";
    if (kind == "terminate") {
      if (f.size() > 2) fail("extra field '" + f[2] + "'");
      terminated = true;
      continue;
    }
    if (kind != "join" && !departure && !flash) {
      fail(kind.empty() ? "missing the event kind" : "unknown event kind '" + kind + "'");
    }
    const std::string what = flash ? "count" : "host";
    if (f.size() < 3) fail(kind + " needs a " + what);
    if (f.size() > (departure ? 3u : 4u)) fail("extra field '" + f.back() + "'");
    // Field 2 is a host id, or a flash burst's size (>= 1).
    net::HostId h = 0;
    if (!util::parse_whole(f[2], h) || h == net::kInvalidHost || (flash && h == 0)) {
      fail(what + " '" + f[2] + "' is not a whole number in [" +
           (flash ? "1" : "0") + ", 2^32 - 2]");
    }
    int degree = 4;
    if (f.size() == 4 && (!util::parse_whole(f[3], degree) || degree < 1)) {
      fail("degree '" + f[3] + "' is not a whole number >= 1");
    }
    if (departure) {
      out.push_back({at, kind == "leave" ? WorkloadEvent::Kind::kLeave
                                         : WorkloadEvent::Kind::kCrash,
                     h, 4});
    } else if (!flash) {
      out.push_back({at, WorkloadEvent::Kind::kJoin, h, degree});
    } else {
      flash_joins += h;
      if (flash_joins > kMaxFlashJoins) {
        fail("flash lines add more than " + std::to_string(kMaxFlashJoins) +
             " joins");
      }
      // Placeholder hosts, named once every line is read.
      out.insert(out.end(), h,
                 {at, WorkloadEvent::Kind::kJoin, net::kInvalidHost, degree});
    }
  }
  if (flash_joins > 0) assign_flash_hosts(out);
  return horizon;
}

sim::Time parse_trace(const std::string& text, std::vector<WorkloadEvent>& out) {
  std::istringstream is(text);
  return parse_trace(is, out);
}

sim::Time load_trace_file(const std::string& path,
                          std::vector<WorkloadEvent>& out) {
  std::ifstream is(path);
  VDM_REQUIRE_MSG(is.is_open(), "cannot open trace file: " + path);
  return parse_trace(is, out);
}

}  // namespace vdm::overlay
