#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace vdm::overlay {

// The sampled heartbeat failure detector's two halves: the probe clock and
// the miss sampler. A member probes its parent one period after its detector
// is armed and then once per period, and Session never schedules those
// probes: it counts them from the clock, draws the miss streaks among them
// ahead of time, and schedules only the verdict or the miss that starts the
// next batch of streaks (DESIGN.md §6).

/// The probe clock. A detector armed at `a` probes at a + period, then one
/// period after each probe, each deadline the double sum of the previous one
/// and `period` — the deadlines a timer re-armed every period reaches. These
/// return those exact sums without one addition per probe: within one binade
/// every sum rounds to the same multiple of the binade's ulp, so a run of
/// probes there is integer arithmetic, and only the sum that crosses into the
/// next binade is taken on its own. Requires period > 0 and t >= 0, and a
/// period that moves the clock (one above half the ulp of every deadline).

/// The deadline `n` probes after the probe due at `t` (`t` itself for 0).
sim::Time probe_after(sim::Time t, sim::Time period, std::uint64_t n);

/// Counts the probes due at `t`, then one period apart, that fall before
/// `bound` (or at it when `inclusive`), and moves `t` to the first probe not
/// counted.
std::uint64_t probes_until(sim::Time& t, sim::Time period, sim::Time bound,
                           bool inclusive);

/// A probe's miss chance q (a lost probe or a lost ack) with the logarithms
/// the sampler's geometric draws divide by.
struct MissChance {
  double q = 0.0;
  double log_miss = 0.0;    // log(q)
  double log_answer = 0.0;  // log(1 - q)

  MissChance() = default;
  explicit MissChance(double miss);
};

/// The miss sampler. Each probe misses independently with chance.q, and
/// `misses` misses in a row are a verdict. From the first undecided probe,
/// with `streak` misses in a row before it (0 <= streak < misses), one step
/// draws what decides the next event: the first miss of the next streak, or
/// the verdict. Geometric draws, at most two per step whatever `misses` is;
/// q == 0 and q == 1 draw nothing.
struct DetectorStep {
  /// Probes from the first undecided one to the event's probe; +inf when no
  /// probe will miss again (q == 0).
  double offset = 0.0;
  /// The event's probe is the verdict (else it starts a new streak).
  bool verdict = false;
  /// With streak > 0 and no verdict: the offset of the answered probe that
  /// ends the streak. -1 otherwise.
  double answered = -1.0;
};
DetectorStep next_detector_step(util::Rng& rng, const MissChance& chance,
                                int misses, int streak);

}  // namespace vdm::overlay
