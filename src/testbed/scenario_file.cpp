#include "testbed/scenario_file.hpp"

#include <algorithm>
#include <cmath>

#include "overlay/workload.hpp"
#include "util/require.hpp"

namespace vdm::testbed {

Scenario generate_scenario(const ScenarioSpec& spec, util::Rng& rng) {
  VDM_REQUIRE(spec.members >= 1);
  VDM_REQUIRE_MSG(spec.nodes.size() >= spec.members,
                  "not enough usable nodes for the requested membership");
  VDM_REQUIRE(spec.degree_min >= 1 && spec.degree_max >= spec.degree_min);
  using Kind = overlay::WorkloadEvent::Kind;

  Scenario sc;
  std::vector<net::HostId> available = spec.nodes;
  rng.shuffle(available);
  std::vector<net::HostId> in_overlay;

  auto draw_degree = [&] {
    return static_cast<int>(rng.uniform_int(spec.degree_min, spec.degree_max));
  };

  // Warmup joins, staggered over the join phase.
  for (std::size_t i = 0; i < spec.members; ++i) {
    const net::HostId h = available.back();
    available.pop_back();
    in_overlay.push_back(h);
    sc.events.push_back(
        {rng.uniform(0.001, spec.join_phase), Kind::kJoin, h, draw_degree()});
  }

  // Churn slots for the remainder. Victims are drawn from the membership
  // snapshot at slot start and joiners from the pool snapshot; bookkeeping
  // is applied only after the whole slot is laid out, so a node never
  // leaves before the join that (re-)admitted it: re-use is deferred to the
  // next slot, which starts after every event time of this one
  // (events land in [slot, slot + 0.75 * interval]).
  const auto churn_count = static_cast<std::size_t>(
      std::llround(spec.churn_rate * static_cast<double>(spec.members)));
  for (sim::Time slot = spec.join_phase; slot + spec.churn_interval <= spec.total_time;
       slot += spec.churn_interval) {
    std::vector<net::HostId> slot_victims;
    std::vector<net::HostId> slot_joiners;
    for (std::size_t i = 0; i < churn_count; ++i) {
      if (in_overlay.empty() || available.empty()) break;
      const auto vi = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(in_overlay.size()) - 1));
      const net::HostId victim = in_overlay[vi];
      in_overlay[vi] = in_overlay.back();
      in_overlay.pop_back();
      slot_victims.push_back(victim);
      // crash_fraction == 0 short-circuits before chance(): the generated
      // stream (and rng state) matches the all-graceful spec exactly.
      const bool crash =
          spec.crash_fraction > 0.0 && rng.chance(spec.crash_fraction);
      sc.events.push_back({slot + rng.uniform(0.0, spec.churn_interval * 0.75),
                           crash ? Kind::kCrash : Kind::kLeave, victim, 4});

      const net::HostId joiner = available.back();
      available.pop_back();
      slot_joiners.push_back(joiner);
      sc.events.push_back({slot + rng.uniform(0.0, spec.churn_interval * 0.75),
                           Kind::kJoin, joiner, draw_degree()});
    }
    in_overlay.insert(in_overlay.end(), slot_joiners.begin(), slot_joiners.end());
    available.insert(available.begin(), slot_victims.begin(), slot_victims.end());
  }

  // Flash crowd: burst joins whose hosts are named once the list is sorted
  // (ids unused elsewhere in the scenario), so the generated stream stays
  // identical to the flash-free one apart from the burst itself.
  if (spec.flash_count > 0) {
    sc.events.insert(sc.events.end(), spec.flash_count,
                     {spec.flash_at, Kind::kJoin, net::kInvalidHost, draw_degree()});
  }

  // A slot's leaves and joins interleave in time: sort (stably, so equal
  // times keep their generation order) before naming the burst hosts.
  std::stable_sort(sc.events.begin(), sc.events.end(),
                   [](const overlay::WorkloadEvent& a,
                      const overlay::WorkloadEvent& b) { return a.at < b.at; });
  overlay::assign_flash_hosts(sc.events);
  sc.end_time = std::max(spec.total_time,
                         sc.events.empty() ? 0.0 : sc.events.back().at);
  return sc;
}

}  // namespace vdm::testbed
