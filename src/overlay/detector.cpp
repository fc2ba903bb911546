#include "overlay/detector.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace vdm::overlay {

namespace {

constexpr std::uint64_t kUlpsPerBinade = std::uint64_t{1} << 53;
constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;

/// The probes after `t` that stay in t's binade: the i-th (1 <= i <= length)
/// is due at (base + i * step) ulps of that binade, and t itself is `base`
/// ulps (base in [2^52, 2^53), the significand). A length of 0 means the
/// next sum must be taken on its own: it leaves the binade, or it is a tie
/// the rounding breaks by parity.
struct BinadeRun {
  std::uint64_t base = 0;
  std::uint64_t step = 0;
  std::uint64_t length = 0;
  std::uint64_t biased_exp = 0;  // of t's binade

  sim::Time at(std::uint64_t i) const {
    const std::uint64_t ulps = base + i * step;  // <= 2^53: the next binade's 1.0
    return std::bit_cast<sim::Time>(ulps == kUlpsPerBinade
                                        ? (biased_exp + 1) << 52
                                        : (biased_exp << 52) | (ulps & kFraction));
  }
  /// How many ulps `x` is, as a double (exact: a power-of-two scaling).
  double in_ulps(sim::Time x) const {
    return std::ldexp(x, 1075 - static_cast<int>(biased_exp));
  }
};

BinadeRun binade_run(sim::Time t, sim::Time period) {
  VDM_REQUIRE_MSG(period >= DBL_MIN,
                  "heartbeat_period is below the resolution of the probe times");
  BinadeRun run;
  if (!(t >= DBL_MIN)) return run;  // zero: one sum at a time
  const auto bits = std::bit_cast<std::uint64_t>(t);
  run.biased_exp = bits >> 52;
  run.base = (bits & kFraction) | (kFraction + 1);
  // The period in ulps of t's binade: its significand shifted by the
  // exponent difference, split into whole ulps and the rest.
  const auto pbits = std::bit_cast<std::uint64_t>(period);
  const std::uint64_t psig = (pbits & kFraction) | (kFraction + 1);
  const int shift = static_cast<int>(pbits >> 52) - static_cast<int>(run.biased_exp);
  if (shift > 0) return run;  // a period of 2^53 ulps or more leaves the binade
  const int drop = -shift;
  std::uint64_t whole = 0;
  bool above_half = false;
  if (drop < 64) {
    whole = psig >> drop;
    if (drop > 0) {
      const std::uint64_t rest = psig & ((std::uint64_t{1} << drop) - 1);
      const std::uint64_t half = std::uint64_t{1} << (drop - 1);
      if (rest == half) return run;  // a tie: rounding depends on parity
      above_half = rest > half;
    }
  }
  run.step = whole + (above_half ? 1 : 0);
  VDM_REQUIRE_MSG(run.step > 0,
                  "heartbeat_period is below the resolution of the probe times");
  // Sum i rounds to whole or whole + 1 ulps as long as the exact sum stays
  // below the binade's top: base + (i - 1) * step + ulps < 2^53.
  const std::uint64_t room = kUlpsPerBinade - 1;
  if (run.base + whole <= room) run.length = (room - run.base - whole) / run.step + 1;
  return run;
}

/// One probe later, summed as the timer sums it.
sim::Time next_probe(sim::Time t, sim::Time period) {
  const sim::Time next = t + period;
  VDM_REQUIRE_MSG(next > t,
                  "heartbeat_period is below the resolution of the probe times");
  return next;
}

}  // namespace

sim::Time probe_after(sim::Time t, sim::Time period, std::uint64_t n) {
  while (n > 0) {
    const BinadeRun run = binade_run(t, period);
    if (run.length == 0) {
      t = next_probe(t, period);
      --n;
      continue;
    }
    const std::uint64_t k = std::min(n, run.length);
    t = run.at(k);
    n -= k;
  }
  return t;
}

std::uint64_t probes_until(sim::Time& t, sim::Time period, sim::Time bound,
                           bool inclusive) {
  const auto before = [bound, inclusive](sim::Time x) {
    return inclusive ? x <= bound : x < bound;
  };
  std::uint64_t count = 0;
  while (before(t)) {
    const BinadeRun run = binade_run(t, period);
    if (run.length == 0) {
      ++count;
      t = next_probe(t, period);
      continue;
    }
    // t counts; so do the run's probes before the bound. A double estimate
    // of how many, corrected against the exact deadlines.
    const double estimate =
        std::floor((run.in_ulps(bound) - static_cast<double>(run.base)) /
                   static_cast<double>(run.step));
    std::uint64_t m =
        estimate <= 0.0 ? 0
        : estimate >= static_cast<double>(run.length)
            ? run.length
            : static_cast<std::uint64_t>(estimate);
    while (m < run.length && before(run.at(m + 1))) ++m;
    while (m > 0 && !before(run.at(m))) --m;
    count += 1 + m;
    t = m < run.length ? run.at(m + 1) : next_probe(run.at(m), period);
  }
  return count;
}

MissChance::MissChance(double miss)
    : q(miss), log_miss(std::log(miss)), log_answer(std::log1p(-miss)) {}

DetectorStep next_detector_step(util::Rng& rng, const MissChance& chance,
                                int misses, int streak) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  const double q = chance.q;
  // Geometric run lengths by inversion; 1 - u lies in (0, 1].
  const auto answered_run = [&rng, &chance, q] {
    if (q >= 1.0) return 0.0;
    if (q <= 0.0) return kNever;
    return std::floor(std::log(1.0 - rng.next_double()) / chance.log_answer);
  };
  const auto missed_run = [&rng, &chance, q] {
    if (q <= 0.0) return 0.0;
    if (q >= 1.0) return kNever;
    return std::floor(std::log(1.0 - rng.next_double()) / chance.log_miss);
  };
  DetectorStep step;
  if (streak == 0) {
    step.offset = answered_run();
    step.verdict = misses == 1;
    return step;
  }
  const double more = missed_run();
  const int left = misses - streak;
  if (more >= left) {
    step.offset = left - 1;
    step.verdict = true;
    return step;
  }
  step.answered = more;
  step.offset = more + 1.0 + answered_run();
  return step;
}

}  // namespace vdm::overlay
