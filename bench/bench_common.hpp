#pragma once

// Shared plumbing for the figure-reproduction benches: banner printing,
// CI-formatted cells, and a Chapter-5-style testbed sweep helper that runs
// the full MainController / scenario-file / node-pool pipeline per seed.

#include <cstdio>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/hmtp_protocol.hpp"
#include "core/vdm_protocol.hpp"
#include "experiments/runner.hpp"
#include "experiments/sweep.hpp"
#include "testbed/controller.hpp"
#include "testbed/node_pool.hpp"
#include "testbed/scenario_file.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/task_pool.hpp"

namespace vdm::bench {

inline void banner(const std::string& title, const std::string& setup) {
  std::cout << "\n=== " << title << " ===\n" << setup << "\n\n";
}

/// "mean ±ci" cell.
inline std::string ci_cell(const util::Summary& s, int precision = 3) {
  return util::Table::fmt(s.mean, precision) + " ±" +
         util::Table::fmt(s.ci_halfwidth, precision);
}

inline std::string note_expectation(const std::string& text) {
  return "paper expectation: " + text;
}

// ------------------------------------------------------------ testbed sweep

/// One Chapter-5 testbed configuration (a synthetic PlanetLab deployment).
struct TestbedConfig {
  std::size_t pool_size = 170;  // filters down to ~140 usable, the paper's pool
  bool world = false;           // us_regions() vs world_regions()
  std::size_t members = 100;
  double churn_rate = 0.05;
  sim::Time join_phase = 2000.0;
  sim::Time total_time = 5000.0;
  sim::Time churn_interval = 400.0;
  int degree = 4;
  int source_degree = 4;
  double chunk_rate = 10.0;
  double probe_noise = 0.05;
  enum class Proto { kVdm, kVdmRefine, kHmtp } proto = Proto::kVdm;
  std::uint64_t seed = 1;
};

/// Builds a pool, filters it, generates a scenario file, and drives the
/// MainController — the whole §5.2 pipeline — returning the session report.
inline testbed::SessionReport run_testbed_once(const TestbedConfig& cfg) {
  util::Rng root(cfg.seed);
  util::Rng pool_rng = root.split(1);
  util::Rng scenario_rng = root.split(2);
  util::Rng session_rng = root.split(3);

  testbed::PoolParams pp;
  pp.num_nodes = cfg.pool_size;
  const testbed::NodePool pool = testbed::make_pool(
      pp, cfg.world ? topo::world_regions() : topo::us_regions(), pool_rng);

  testbed::ScenarioSpec spec;
  for (const net::HostId h : pool.usable_nodes()) {
    if (h != 0) spec.nodes.push_back(h);
  }
  spec.members = cfg.members;
  spec.join_phase = cfg.join_phase;
  spec.total_time = cfg.total_time;
  spec.churn_interval = cfg.churn_interval;
  spec.churn_rate = cfg.churn_rate;
  spec.degree_min = spec.degree_max = cfg.degree;
  const testbed::Scenario scenario = testbed::generate_scenario(spec, scenario_rng);

  std::unique_ptr<overlay::Protocol> protocol;
  switch (cfg.proto) {
    case TestbedConfig::Proto::kVdm:
      protocol = std::make_unique<core::VdmProtocol>();
      break;
    case TestbedConfig::Proto::kVdmRefine: {
      core::VdmConfig vc;
      vc.refinement = true;
      vc.refinement_period = sim::minutes(5);  // the paper's §5.4.5 period
      protocol = std::make_unique<core::VdmProtocol>(vc);
      break;
    }
    case TestbedConfig::Proto::kHmtp:
      protocol = std::make_unique<baselines::HmtpProtocol>();
      break;
  }

  std::vector<double> slowness;
  slowness.reserve(pool.health.size());
  for (const testbed::NodeHealth& h : pool.health) slowness.push_back(h.slowness);
  const testbed::FlakyMetric metric(std::make_unique<overlay::DelayMetric>(),
                                    std::move(slowness), cfg.probe_noise);

  sim::Simulator simulator;
  testbed::ControllerParams cp;
  cp.source_degree = cfg.source_degree;
  cp.chunk_rate = cfg.chunk_rate;
  testbed::MainController controller(simulator, pool.topology.underlay,
                                     *protocol, metric, cp, session_rng);
  return controller.run(scenario);
}

/// Aggregate of one testbed configuration over several seeds.
struct TestbedAggregate {
  util::Summary startup_avg, startup_max, reconnect_avg, reconnect_max,
      stretch, stretch_min, stretch_leaf, stretch_max, hop, hop_leaf, hop_max,
      usage, loss, overhead, mst_ratio;
};

/// Folds one configuration's per-seed reports (in seed order) into the
/// aggregate. Separated from the sweep so the serial and parallel paths
/// share one accumulation, bit for bit.
inline TestbedAggregate aggregate_testbed(const TestbedConfig& cfg,
                                          std::span<const testbed::SessionReport> reports) {
  std::vector<double> su, su_mx, rc, rc_mx, st, st_min, st_leaf, st_max, hp,
      hp_leaf, hp_max, us, lo, ov, mr;
  for (const testbed::SessionReport& r : reports) {
    const util::Summary s_start = util::summarize(r.startup_times);
    su.push_back(s_start.mean);
    su_mx.push_back(s_start.max);
    if (!r.reconnect_times.empty()) {
      const util::Summary s_rec = util::summarize(r.reconnect_times);
      rc.push_back(s_rec.mean);
      rc_mx.push_back(s_rec.max);
    }
    // Tree metrics: average across the post-warmup snapshots (one final
    // snapshot alone is too noisy for 90% CIs over a handful of runs).
    util::OnlineStats a_st, a_min, a_leaf, a_max, a_hp, a_hpl, a_hpm, a_us;
    for (const metrics::EpochSample& e : r.epochs) {
      if (e.at < cfg.join_phase) continue;
      a_st.add(e.tree.stretch_avg);
      a_min.add(e.tree.stretch_min);
      a_leaf.add(e.tree.stretch_leaf_avg);
      a_max.add(e.tree.stretch_max);
      a_hp.add(e.tree.hop_avg);
      a_hpl.add(e.tree.hop_leaf_avg);
      a_hpm.add(e.tree.hop_max);
      a_us.add(e.tree.network_usage);
    }
    st.push_back(a_st.mean());
    st_min.push_back(a_min.mean());
    st_leaf.push_back(a_leaf.mean());
    st_max.push_back(a_max.mean());
    hp.push_back(a_hp.mean());
    hp_leaf.push_back(a_hpl.mean());
    hp_max.push_back(a_hpm.mean());
    us.push_back(a_us.mean());
    lo.push_back(r.loss_rate);
    ov.push_back(r.overhead_per_chunk);
    mr.push_back(r.mst_ratio);
  }
  TestbedAggregate agg;
  agg.startup_avg = util::summarize(su);
  agg.startup_max = util::summarize(su_mx);
  agg.reconnect_avg = util::summarize(rc);
  agg.reconnect_max = util::summarize(rc_mx);
  agg.stretch = util::summarize(st);
  agg.stretch_min = util::summarize(st_min);
  agg.stretch_leaf = util::summarize(st_leaf);
  agg.stretch_max = util::summarize(st_max);
  agg.hop = util::summarize(hp);
  agg.hop_leaf = util::summarize(hp_leaf);
  agg.hop_max = util::summarize(hp_max);
  agg.usage = util::summarize(us);
  agg.loss = util::summarize(lo);
  agg.overhead = util::summarize(ov);
  agg.mst_ratio = util::summarize(mr);
  return agg;
}

/// Runs every (config, seed) combination as one flat task set on the shared
/// TaskPool and aggregates per config, in config order. Seeding matches the
/// classic serial loop (seed = 1 + i per config) and each report lands in a
/// slot addressed by its flattened index, so the output is bit-identical to
/// run_testbed_many over each config for every thread count.
inline std::vector<TestbedAggregate> run_testbed_grid(
    const std::vector<TestbedConfig>& configs, std::size_t seeds,
    std::size_t threads = 0) {
  if (configs.empty() || seeds == 0) return {};
  std::vector<testbed::SessionReport> reports(configs.size() * seeds);
  util::TaskPool::global().for_n(
      reports.size(), threads, [&](const util::TaskPool::Context& ctx) {
        TestbedConfig cfg = configs[ctx.index / seeds];
        cfg.seed = 1 + ctx.index % seeds;
        reports[ctx.index] = run_testbed_once(cfg);
      });
  std::vector<TestbedAggregate> out;
  out.reserve(configs.size());
  const std::span<const testbed::SessionReport> all(reports);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    out.push_back(aggregate_testbed(configs[c], all.subspan(c * seeds, seeds)));
  }
  return out;
}

inline TestbedAggregate run_testbed_many(TestbedConfig cfg, std::size_t seeds,
                                         std::size_t threads = 0) {
  return run_testbed_grid({cfg}, seeds, threads).front();
}

}  // namespace vdm::bench
