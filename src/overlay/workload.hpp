#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "overlay/scenario.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {

/// Membership process driving a run. Every kind becomes an explicit
/// WorkloadEvent list before the reactor runs, executed by
/// ScenarioDriver::run_trace.
enum class WorkloadKind : std::uint8_t {
  kSlots,    ///< §3.6.2 churn slots (or the Chapter-4 batched timeline)
  kPoisson,  ///< Poisson arrivals, exponential session lengths
  kDiurnal,  ///< sinusoidally modulated Poisson arrivals (thinning)
  kPareto,   ///< Poisson arrivals, heavy-tailed Pareto session lengths
  kTrace,    ///< replay an event list loaded from a trace file
};

/// Parameters of the synthetic workload generators. Arrival rate follows
/// Little's law — lambda = target_members / mean_session — so membership
/// hovers around the scenario's target under every generated kind.
struct WorkloadParams {
  WorkloadKind kind = WorkloadKind::kSlots;
  /// Mean member session length (simulated time units). Exponential mean
  /// for kPoisson/kDiurnal; the Pareto scale is derived so kPareto keeps
  /// the same mean with a heavy tail.
  double mean_session = 2000.0;
  /// Pareto shape; must exceed 1 so the mean session length exists.
  double pareto_alpha = 1.5;
  /// Period of the diurnal arrival-rate wave.
  double diurnal_period = 4000.0;
  /// Relative swing of the diurnal wave, in [0, 1]:
  /// lambda(t) = lambda * (1 + amplitude * sin(2*pi*(t - join_phase)/period)).
  double diurnal_amplitude = 0.8;
  /// Trace file to replay (kTrace only).
  std::string trace_path;
};

/// Parses a --workload argument: "slots", "poisson", "diurnal", "pareto" or
/// "trace:<file>" (which also fills trace_path). Returns false on anything
/// else, leaving `out` untouched.
bool parse_workload_kind(std::string_view text, WorkloadParams& out);

/// Short name of a kind ("slots", "poisson", ...), for tables and labels.
std::string_view workload_kind_name(WorkloadKind kind);

/// Builds the time-ordered event list of a generated kind (any but kTrace)
/// into `scratch.events`, reusing the scratch buffers. Hosts come from
/// [0, num_hosts) minus `source`; all randomness comes from `rng`, so a seed
/// fully determines the list. Every kind starts with staggered joins over
/// the join phase (kSlots with batched_joins: the batches) plus the flash
/// crowd at `scenario.flash_at`. kSlots then compiles the churn slots,
/// replaying the draws in the order a reactor-scheduled timeline makes them
/// (DESIGN.md §11); the synthetic kinds run their arrival process from the
/// end of the join phase, drawing each member's departure (leave, or crash
/// with `scenario.crash_fraction`) at join time, and skip arrivals that
/// find the pool empty.
void generate_workload(const ScenarioParams& scenario,
                       const WorkloadParams& workload, std::size_t num_hosts,
                       net::HostId source, util::Rng& rng,
                       ScenarioScratch& scratch);

/// Same, into `out` (cleared first), on fresh buffers.
void generate_workload(const ScenarioParams& scenario,
                       const WorkloadParams& workload, std::size_t num_hosts,
                       net::HostId source, util::Rng& rng,
                       std::vector<WorkloadEvent>& out);

/// Gives each flash-burst join — a join whose host is kInvalidHost — in
/// list order the lowest host id >= 1 that no other event names and no
/// earlier burst join took (host 0 is the source in every runner). This is
/// how `flash` lines become concrete joins when a list is built.
void assign_flash_hosts(std::span<WorkloadEvent> events);

/// Writes events as CSV trace lines (`t,join,host,degree`, `t,leave,host`,
/// `t,crash,host`) closed by `t,terminate` at `end_time`, which must not
/// precede the last event. Full double precision: parse_trace gives back
/// `events` and `end_time` exactly, so a replay is bit-identical.
void write_trace(std::ostream& os, std::span<const WorkloadEvent> events,
                 sim::Time end_time);
void write_trace_file(const std::string& path,
                      std::span<const WorkloadEvent> events, sim::Time end_time);

/// Parses the one membership grammar of traces and scenario files (README):
/// one `<t> join <host> [degree]`, `<t> leave|crash <host>`,
/// `<t> flash <count> [degree]` or `<t> terminate` line per event, fields
/// split on commas or whitespace, '#' comments. Times are finite, >= 0 and
/// non-decreasing, nothing follows terminate, and hosts, counts and degrees
/// are whole numbers in range; anything else fails naming its line. Flash
/// lines (at most 2^20 joins per file) expand via assign_flash_hosts. Fills
/// `out` (cleared first) and returns the horizon: the terminate time, else
/// the last event's (or 0).
sim::Time parse_trace(std::istream& is, std::vector<WorkloadEvent>& out);
sim::Time parse_trace(const std::string& text, std::vector<WorkloadEvent>& out);
sim::Time load_trace_file(const std::string& path,
                          std::vector<WorkloadEvent>& out);

}  // namespace vdm::overlay
