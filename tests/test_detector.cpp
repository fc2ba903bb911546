// The sampled heartbeat failure detector (overlay/detector.hpp, Session):
// its probe clock against repeated sums, its miss sampler against a
// detector that ticks every probe, exact counts and timelines where no
// probe can miss, and whole runs against the distribution the ticked
// detector produced.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/vdm_protocol.hpp"
#include "experiments/runner.hpp"
#include "helpers.hpp"
#include "overlay/detector.hpp"
#include "util/stats.hpp"
#include "walk_golden_configs.hpp"

namespace vdm::overlay {
namespace {

// --- the probe clock ----------------------------------------------------

/// Deadlines a timer re-armed every `period` reaches from `t`, one double
/// sum at a time.
std::vector<sim::Time> summed_probes(sim::Time t, sim::Time period, std::size_t n) {
  std::vector<sim::Time> out{t};
  for (std::size_t i = 0; i < n; ++i) out.push_back(t += period);
  return out;
}

TEST(ProbeClock, EqualsTheRepeatedSums) {
  // Periods with and without rounding on every sum, starts in many
  // binades; each run crosses binade boundaries, where the sums round.
  const double periods[] = {1.0, 0.3, 0.1, 2.0, 0.75, 1.0 / 3.0, 1e-3, 7.0, 0.5};
  const double starts[] = {0.0, 0.1, 1.0, 3.999, 100.0, 123.456789, 511.9999, 1e6 + 0.3};
  for (const double p : periods) {
    for (const double t0 : starts) {
      const std::vector<sim::Time> probes = summed_probes(t0, p, 3000);
      for (const std::size_t n : {0u, 1u, 2u, 7u, 64u, 1000u, 2047u, 3000u}) {
        EXPECT_EQ(probe_after(t0, p, n), probes[n])
            << "period " << p << " from " << t0 << " after " << n;
      }
      // Counting up to a bound: on a deadline, between two, before the
      // first one.
      for (const std::size_t k : {0u, 1u, 5u, 999u, 2999u}) {
        for (const bool inclusive : {false, true}) {
          const sim::Time bounds[] = {probes[k], (probes[k] + probes[k + 1]) / 2.0};
          for (const sim::Time bound : bounds) {
            std::size_t expect = 0;
            while (inclusive ? probes[expect] <= bound : probes[expect] < bound) ++expect;
            sim::Time t = t0;
            EXPECT_EQ(probes_until(t, p, bound, inclusive), expect)
                << "period " << p << " from " << t0 << " to " << bound;
            EXPECT_EQ(t, probes[expect]);
          }
        }
      }
      sim::Time t = t0;
      EXPECT_EQ(probes_until(t, p, t0 - 1.0, true), 0u);
      EXPECT_EQ(t, t0);
    }
  }
}

// --- the miss sampler ---------------------------------------------------

/// Probes from the arm to the verdict (1-based), as the detector samples
/// them: each step jumps to the next streak or the verdict.
double sampled_ticks_to_verdict(util::Rng& rng, const MissChance& chance, int misses) {
  double at = 0.0;
  int streak = 0;
  for (;;) {
    const DetectorStep step = next_detector_step(rng, chance, misses, streak);
    at += step.offset;
    if (step.verdict) return at + 1.0;
    at += 1.0;  // the miss that starts the streak
    streak = 1;
  }
}

/// The same, ticking every probe: each misses with probability q.
double ticked_ticks_to_verdict(util::Rng& rng, double q, int misses) {
  int streak = 0;
  for (double tick = 1.0;; tick += 1.0) {
    streak = rng.chance(q) ? streak + 1 : 0;
    if (streak == misses) return tick;
  }
}

/// Mean probes to `misses` misses in a row: (1 - q^k) / ((1 - q) q^k).
double expected_ticks(double q, int misses) {
  const double qk = std::pow(q, misses);
  return (1.0 - qk) / ((1.0 - q) * qk);
}

/// True if `expected` lies in the 99 % CI of the sample mean.
::testing::AssertionResult within_ci99(const util::OnlineStats& s, double expected) {
  const double half = util::student_t_critical(0.99, s.count() - 1) * s.stddev() /
                      std::sqrt(static_cast<double>(s.count()));
  if (std::abs(s.mean() - expected) <= half) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "mean " << s.mean() << " ± " << half
                                       << " misses " << expected;
}

TEST(MissSampler, TickedOracleMatchesTheClosedForm) {
  // The oracle ticks every probe, so it stays affordable only where a
  // verdict needs few probes; it pins down the formula the sampler is held
  // to below.
  util::Rng rng(41);
  for (const auto& [q, misses, samples] :
       {std::tuple{0.3, 1, 100000}, std::tuple{0.3, 3, 100000},
        std::tuple{0.02, 1, 100000}, std::tuple{0.02, 3, 300}}) {
    util::OnlineStats s;
    for (int i = 0; i < samples; ++i) s.add(ticked_ticks_to_verdict(rng, q, misses));
    EXPECT_TRUE(within_ci99(s, expected_ticks(q, misses)))
        << "q " << q << " misses " << misses;
  }
}

TEST(MissSampler, MeanTicksToVerdictMatchesTheTickedDetector) {
  // 10^5 samples a case, but 10^4 at q = 0.02 with 3 misses: there one
  // verdict takes ~2,500 streaks (steps), and 10^4 samples already hold the
  // mean to a 99 % CI of +-3 %.
  util::Rng rng(42);
  for (const double q : {0.02, 0.3}) {
    for (const int misses : {1, 3}) {
      util::OnlineStats s;
      const MissChance chance(q);
      const int samples = q < 0.1 && misses > 1 ? 10000 : 100000;
      for (int i = 0; i < samples; ++i) {
        s.add(sampled_ticks_to_verdict(rng, chance, misses));
      }
      EXPECT_TRUE(within_ci99(s, expected_ticks(q, misses)))
          << "q " << q << " misses " << misses;
    }
  }
}

TEST(MissSampler, CertainOutcomesDrawNothing) {
  // q == 0: no probe ever misses; q == 1: every probe misses, so the next
  // probe starts a streak, and a streak under way runs into the verdict.
  // Neither touches the stream.
  for (const int streak : {0, 1, 2}) {
    util::Rng rng(7);
    const util::Rng before = rng;
    const DetectorStep never = next_detector_step(rng, MissChance(0.0), 3, streak);
    EXPECT_FALSE(never.verdict);
    EXPECT_TRUE(std::isinf(never.offset));
    const DetectorStep always = next_detector_step(rng, MissChance(1.0), 3, streak);
    EXPECT_EQ(always.verdict, streak > 0);
    EXPECT_EQ(always.offset, streak == 0 ? 0.0 : 2.0 - streak);
    util::Rng copy = before;
    EXPECT_EQ(rng.next_u64(), copy.next_u64()) << "streak " << streak;
  }
}

// --- whole sessions -------------------------------------------------------

/// A line of three hosts (source, parent, child) with the given fault knobs.
struct Line {
  sim::Simulator sim;
  net::MatrixUnderlay underlay = testutil::line_underlay({0.0, 0.06, 0.1});
  DelayMetric metric{0.0};
  core::VdmProtocol protocol;
  Session session;

  explicit Line(const FaultParams& faults)
      : session(sim, underlay, protocol, metric, params(faults), util::Rng(3)) {
    session.start();
    session.join(1, 8);
    session.join(2, 8);
  }
  static SessionParams params(const FaultParams& faults) {
    SessionParams sp;
    sp.source_degree_limit = 8;
    sp.chunk_rate = 1.0;
    sp.paranoid_checks = true;
    sp.faults = faults;
    return sp;
  }
};

TEST(SampledHeartbeat, BillionMissVerdictCostsNothingPerMiss) {
  // A streak of 10^9 misses never completes in 1000 s, whatever the loss;
  // neither drawing the streaks nor placing a crash orphan's verdict a
  // billion probes out may cost a step per miss.
  FaultParams f;
  f.heartbeat_period = 1.0;
  f.heartbeat_misses = 1'000'000'000;
  f.lossy_control = true;
  f.control_loss_extra = 0.3;
  const auto t0 = std::chrono::steady_clock::now();
  Line line(f);
  line.sim.schedule_at(500.25, [&line] { line.session.crash(1); });
  line.sim.run_until(1000.0);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(secs, 0.5);
  const Session::Counters t = line.session.totals();
  EXPECT_EQ(t.verdicts_true + t.verdicts_false, 0u);
  EXPECT_EQ(t.heartbeat_ticks, 500u + 1000u);  // the crashed parent's, the orphan's
  EXPECT_EQ(line.session.tree().member(2).parent, net::kInvalidHost);
}

TEST(SampledHeartbeat, CountsProbesExactlyWheneverRead) {
  // Probes fall at 1, 2, 3, ... for both members (armed at 0), 2 messages
  // each. Read from outside a callback, the probes due now have fired; read
  // from a callback scheduled before them, they have not.
  FaultParams f;
  f.heartbeat_period = 1.0;
  Line line(f);
  std::uint64_t inside = 0;
  line.sim.schedule_at(10.0, [&] { inside = line.session.totals().heartbeat_ticks; });
  line.sim.run_until(10.0);
  EXPECT_EQ(inside, 2u * 9u);
  EXPECT_EQ(line.session.totals().heartbeat_ticks, 2u * 10u);
  const std::uint64_t messages = line.session.totals().control_messages;
  line.sim.run_until(12.0);
  EXPECT_EQ(line.session.totals().control_messages, messages + 2u * 2u * 2u);
}

TEST(SampledHeartbeat, CrashAtAProbeInstantCountsItAsTheTimerWould) {
  // The parent crashes exactly at t = 12, when both members probe. From a
  // callback scheduled up front, that probe comes after the crash and is
  // the orphan's first miss (verdict at 14); called between run_until
  // calls, it was already answered (misses at 13, 14, 15).
  FaultParams f;
  f.heartbeat_period = 1.0;
  f.heartbeat_misses = 3;
  f.heartbeat_timeout = 0.5;
  for (const bool in_callback : {true, false}) {
    Line line(f);
    if (in_callback) {
      line.sim.schedule_at(12.0, [&line] { line.session.crash(1); });
    }
    line.sim.run_until(12.0);
    if (!in_callback) line.session.crash(1);
    const sim::Time verdict = in_callback ? 14.0 : 15.0;
    line.sim.run_until(verdict);
    const Session::Counters t = line.session.totals();
    // The parent probed 1..11 (in the callback) or 1..12; the orphan every
    // second through its verdict, one message each from the crash on.
    const std::uint64_t parent_probes = in_callback ? 11u : 12u;
    EXPECT_EQ(t.heartbeat_ticks, parent_probes + static_cast<std::uint64_t>(verdict));
    line.sim.run_until(verdict + 1.0);
    std::vector<TimingRecord> recs;
    line.session.drain_reconnect_records(recs);
    ASSERT_EQ(recs.size(), 1u) << "in callback " << in_callback;
    EXPECT_EQ(recs[0].at, verdict + 0.5);
    EXPECT_EQ(recs[0].detection, verdict + 0.5 - 12.0);
  }
}

// --- lossless control: exact -----------------------------------------------

/// Three crash-churn runs over a lossless control plane, pinned from the
/// detector that ticked every probe: every RunResult scalar, and the probe
/// and message counts, must come out bit for bit. The two transit-stub
/// runs' delay-derived scalars were re-recorded when link delays moved
/// onto the 2^-30 s grid; their counts did not move.
struct LosslessPin {
  const char* name;
  std::vector<double> scalars;
  std::uint64_t heartbeat_ticks, control_messages, verdicts_true, verdicts_false;
};

experiments::RunConfig lossless_config(const std::string& name) {
  experiments::RunConfig cfg;
  if (name == "crash-vdm") cfg = testutil::crash_churn_config(experiments::Proto::kVdm, 7);
  if (name == "crash-hmtp") {
    cfg = testutil::crash_churn_config(experiments::Proto::kHmtp, 7);
    cfg.hmtp_refinement = true;
  }
  if (name == "flash-crash") {
    cfg = testutil::flash_heartbeat_config(7);
    cfg.scenario.crash_fraction = 0.5;
  }
  cfg.session.faults.lossy_control = false;
  return cfg;
}

TEST(SampledHeartbeat, LosslessCrashChurnMatchesTheTickedDetector) {
  const LosslessPin pins[] = {
      {"crash-vdm",
       {0x1.e95eaba5755fbp+0, 0x1.ca1af286bca1bp+2, 0x1.bff28d60fe3d3p+0,
        0x1.f882f7f430151p+0, 0x1.004f5ced259cap+2, 0x1p+0,
        0x1.e8p+1, 0x1.166990c403b82p+2, 0x1.ebca1af286bcap+2,
        0x1.02ef9dd324d07p-8, 0x1.0255b9fefb224p+0, 0x1.81652ff76078cp+5,
        0x1.ac70cb6cf286cp+1, 0x1.8fd7162ec4ec5p+0, 0x1.b301512cp+1,
        0x1.a08a420b2aaabp-1, 0x1.79ebc6bcp+1, 0x1.840904e0144ebp+1,
        0x1.bc28bbc62d8p+1, 0x1.ec2b9562def95p+1, 0x1.8c77d2e7c9cp+2,
        0x1.dceeb90f71a89p+0, 0x1.88p+5},
       443102, 891475, 96, 0},
      {"crash-hmtp",
       {0x1.c1cefb5cc30b4p+0, 0x1.7ca1af286bca2p+2, 0x1.9ee2f241b3f17p+0,
        0x1.b6b56df736a5bp+0, 0x1.7f6cd3c8e3665p+1, 0x1p+0,
        0x1.c9435e50d7943p+1, 0x1.03d838e9a0797p+2, 0x1.bca1af286bca2p+2,
        0x1.b06566824c2afp-9, 0x1.403872480dd5p+0, 0x1.de07241c06779p+5,
        0x1.2579407p+1, 0x1.a55c96c45d174p+0, 0x1.d6d50808p+1,
        0x1.b6dd4a00e61ccp-1, 0x1.4617183cp+1, 0x1.8290605d49cfdp+1,
        0x1.bf1398763cp+1, 0x1.f047b2dd8357p+1, 0x1.7b9b482ee48p+2,
        0x1.2822bbeba2eacp+0, 0x1.88p+5},
       443106, 1102192, 89, 0},
      {"flash-crash",
       {0x0p+0, 0x0p+0, 0x1.67db96be199efp+1,
        0x1.86d89fadb6759p+1, 0x1.1bdb0ff22107ap+4, 0x1p+0,
        0x1.d91109e32b0ap+3, 0x1.de950b32950b3p+3, 0x1.b555555555555p+4,
        0x1.b737b5ccf54p-6, 0x1.4a36fd634631cp+4, 0x1.02ec444444444p+12,
        0x1.9eda891aef82fp-2, 0x1.39044f47d5341p-4, 0x1.3c8728a64d9cp-2,
        0x1.e540827b6ba66p-6, 0x1.22373524c8c61p-2, 0x1.8541316a34555p+1,
        0x1.be5a2f06abcp+1, 0x1.88fd532b45fc6p+1, 0x1.d3d7266c78635p+1,
        0x1p+0, 0x1.f4p+6},
       170811, 349824, 136, 0},
  };
  for (const LosslessPin& pin : pins) {
    const experiments::RunResult r = experiments::run_once(lossless_config(pin.name));
    const std::vector<double> got = testutil::run_result_scalars(r);
    ASSERT_EQ(got.size(), pin.scalars.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], pin.scalars[i]) << pin.name << " scalar " << i;
    }
    EXPECT_EQ(r.totals.heartbeat_ticks, pin.heartbeat_ticks) << pin.name;
    EXPECT_EQ(r.totals.control_messages, pin.control_messages) << pin.name;
    EXPECT_EQ(r.totals.verdicts_true, pin.verdicts_true) << pin.name;
    EXPECT_EQ(r.totals.verdicts_false, pin.verdicts_false) << pin.name;
  }
}

// --- lossy control: in distribution ------------------------------------------

/// A 40-seed mean and standard deviation recorded from the detector that
/// ticked every probe.
struct Recorded {
  double mean, sd;
};

/// The per-run values compared: true and false verdicts, mean detection and
/// outage, overhead.
constexpr int kMetrics = 5;
constexpr const char* kMetricNames[kMetrics] = {"verdicts_true", "verdicts_false",
                                                "detection_avg", "outage_avg",
                                                "overhead"};

struct DistributionShape {
  const char* name;
  experiments::RunConfig (*config)(std::uint64_t seed);
  Recorded recorded[kMetrics];
};

experiments::RunConfig hmtp_lossy_links(std::uint64_t seed) {
  experiments::RunConfig cfg = testutil::crash_churn_config(experiments::Proto::kHmtp, seed);
  cfg.link_loss_max = 0.02;
  return cfg;
}

experiments::RunConfig crash_vdm(std::uint64_t seed) {
  return testutil::crash_churn_config(experiments::Proto::kVdm, seed);
}

/// Two-sided Welch test at 99 % of a 40-seed sample against `rec`; where
/// the recorded spread is nil next to the mean (a constant such as the
/// 2.5 s false-positive detection), the means must agree to 1e-9.
::testing::AssertionResult agrees(const util::OnlineStats& s, const Recorded& rec) {
  const double n = static_cast<double>(s.count());
  if (rec.sd <= 1e-9 * std::abs(rec.mean)) {
    if (std::abs(s.mean() - rec.mean) <= 1e-9 * std::abs(rec.mean)) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "mean " << s.mean() << " vs the constant " << rec.mean;
  }
  const double va = s.variance() / n;
  const double vb = rec.sd * rec.sd / n;
  const double t = std::abs(s.mean() - rec.mean) / std::sqrt(va + vb);
  const double df = (va + vb) * (va + vb) / (va * va / (n - 1) + vb * vb / (n - 1));
  const double critical =
      util::student_t_critical(0.99, static_cast<std::size_t>(std::floor(df)));
  if (t <= critical) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "mean " << s.mean() << " (sd " << s.stddev() << ") vs " << rec.mean
         << " (sd " << rec.sd << "): |t| " << t << " > " << critical;
}

TEST(SampledHeartbeat, LossyRunsMatchTheTickedDetectorInDistribution) {
  // Seeds 1-40 of three shapes, fixed before either detector ran them: the
  // flash-heartbeat shape, the crash-vdm corner, and HMTP on the same crash
  // shape over links losing up to 2 %.
  const DistributionShape shapes[] = {
      {"flash-heartbeat", &testutil::flash_heartbeat_config,
       {{0x0p+0, 0x0p+0},
        {0x1.cccccccccccccp+0, 0x1.48f736fe44a9cp+0},
        {0x1.cffffffffffffp+0, 0x1.2168df2f6d537p+0},
        {0x1.057e6cce0d643p+1, 0x1.4a9b26df075b9p+0},
        {0x1.425d5c6c4a49p+4, 0x1.7cedda624282cp-5}}},
      {"crash-vdm", &crash_vdm,
       {{0x1.7afffffffffffp+6, 0x1.769163565f658p+3},
        {0x1.9999999999999p+1, 0x1.c1cd2f80a0f2ap+0},
        {0x1.7ad86830a423dp+1, 0x1.fbb7b6ac4c2adp-6},
        {0x1.e8ab5e8c9c579p+1, 0x1.f352240d97f61p-4},
        {0x1.0322148d28f2ap+0, 0x1.64eac06d0d05cp-9}}},
      {"crash-hmtp-lossy-links", &hmtp_lossy_links,
       {{0x1.6de6666666666p+6, 0x1.2b7c264feee83p+3},
        {0x1.6e53333333333p+9, 0x1.d731746b33ea7p+6},
        {0x1.4592eb8db9898p+1, 0x1.04c2066168964p-7},
        {0x1.728fee8beb735p+2, 0x1.88397f315af92p-1},
        {0x1.d3284cedaa0fep+0, 0x1.a8b88420a5746p-3}}},
  };
  for (const DistributionShape& shape : shapes) {
    util::OnlineStats stats[kMetrics];
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const experiments::RunResult r = experiments::run_once(shape.config(seed));
      const double values[kMetrics] = {static_cast<double>(r.totals.verdicts_true),
                                       static_cast<double>(r.totals.verdicts_false),
                                       r.detection_avg, r.outage_avg, r.overhead};
      for (int i = 0; i < kMetrics; ++i) stats[i].add(values[i]);
    }
    for (int i = 0; i < kMetrics; ++i) {
      EXPECT_TRUE(agrees(stats[i], shape.recorded[i]))
          << shape.name << " " << kMetricNames[i];
    }
  }
}

}  // namespace
}  // namespace vdm::overlay
