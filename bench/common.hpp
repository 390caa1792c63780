// Shared helpers for the figure-reproduction benches.
//
// Scaling: every harness honours DIMMER_BENCH_SCALE (a positive number;
// default 1.0, anything else fails loudly). Values below 1 shrink run
// lengths / model counts proportionally for quick smoke runs (e.g.
// DIMMER_BENCH_SCALE=0.25); values above 1 extend them toward the paper's
// full durations.
//
// The trained policy is cached in ./dimmer_dqn.mlp (or $DIMMER_POLICY): the
// first bench that needs it trains once, subsequent benches reuse it — the
// same frozen-network deployment model as the paper.
#pragma once

#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/pid.hpp"
#include "core/controller.hpp"
#include "core/pretrained.hpp"
#include "exp/campaign.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "phy/topology.hpp"
#include "rl/quantized.hpp"
#include "util/check.hpp"
#include "util/wallclock.hpp"

namespace dimmer::bench {

/// DIMMER_BENCH_SCALE, strictly parsed (exp::env_positive_double): the old
/// std::atof read "0.1x" as 0.1 and silently ran "0" or "abc" at full scale.
inline double scale() {
  return exp::env_positive_double("DIMMER_BENCH_SCALE").value_or(1.0);
}

/// A bench's exit status: `body()`'s, or 2 when an exception escapes it. The
/// exception (a malformed knob's util::RequireError, say) is printed as
/// `error: <what>` on stderr instead of aborting through std::terminate.
/// DIMMER_BENCH_SCALE and DIMMER_JOBS are parsed and the DIMMER_BENCH_OUT
/// directory checked first, so a bad knob fails the bench at once rather
/// than after minutes of training or a whole sweep. Every bench's main is
/// `return bench::run_main(bench_main);`.
inline int run_main(int (*body)()) {
  try {
    static_cast<void>(scale());
    static_cast<void>(exp::jobs_from_env());
    exp::require_output_dir();
    return body();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

/// Federation worker threads for the city-scale bench: DIMMER_FED_WORKERS
/// if set (exp::env_count, at most 999), else 1. The old std::atoi read
/// "2x" as 2 and silently ran "0" or "-1" on one worker.
inline int fed_workers() {
  const std::optional<long> v = exp::env_count("DIMMER_FED_WORKERS");
  if (!v) return 1;
  DIMMER_REQUIRE(*v <= 999, "DIMMER_FED_WORKERS out of [1, 999]");
  return static_cast<int>(*v);
}

/// max(lo, round(x * scale)). A rounded count outside int throws: casting
/// it would be undefined behaviour, which in Release silently read as `lo`
/// (DIMMER_BENCH_SCALE=20000 trained bench_ablation_tabular for one step).
inline int scaled(int x, int lo = 1) {
  const double v = static_cast<double>(x) * scale() + 0.5;
  DIMMER_REQUIRE(
      v > static_cast<double>(std::numeric_limits<int>::min()) - 1.0 &&
          v < static_cast<double>(std::numeric_limits<int>::max()) + 1.0,
      "DIMMER_BENCH_SCALE makes a count outside int");
  const auto n = static_cast<int>(v);
  return n < lo ? lo : n;
}

inline std::string policy_cache_path() {
  const char* p = std::getenv("DIMMER_POLICY");
  return p != nullptr && *p != '\0' ? p : "dimmer_dqn.mlp";
}

/// The deployed policy, loaded from policy_cache_path() or trained there.
inline rl::Mlp shared_policy() {
  core::PretrainedOptions opt;
  return core::load_or_train_policy(policy_cache_path(), opt, &std::cerr);
}

/// The three adaptivity controllers the figure benches compare: "dimmer"
/// (the trained DQN), "pid" (the baseline), anything else = static LWB at
/// N_TX = 3. Safe to call from parallel trials: `policy` is only read.
inline std::unique_ptr<core::AdaptivityController> make_controller(
    const std::string& name, const rl::Mlp& policy,
    const core::FeatureConfig& features) {
  if (name == "dimmer")
    return std::make_unique<core::DqnController>(rl::QuantizedMlp(policy),
                                                 features);
  if (name == "pid") return std::make_unique<baselines::PidController>();
  return std::make_unique<core::StaticController>(3);
}

/// Runs a spec matrix through exp::Runner — or, when DIMMER_CAMPAIGN_DIR is
/// set, through the sharded, checkpointed campaign engine (exp/campaign.hpp):
/// DIMMER_CAMPAIGN_SHARDS worker processes stream results into per-shard
/// journals under that directory, and a killed sweep re-run with the same
/// environment resumes, re-running only the missing trials. The merged
/// trials are byte-identical between the two engines and across any shard
/// count or kill/resume history, so the BENCH json is invariant to how the
/// sweep was executed. Returns the trials in spec order; the trial count,
/// the worker or shard count and the wall time go to stderr only.
inline std::vector<exp::Trial> run_sweep(std::vector<exp::TrialSpec> specs,
                                         const exp::TrialFn& fn) {
  util::Stopwatch sw;
  std::vector<exp::Trial> trials;
  std::string ran_on;
  const char* dir = std::getenv("DIMMER_CAMPAIGN_DIR");
  if (dir != nullptr && *dir != '\0') {
    exp::CampaignOptions opt;
    opt.dir = dir;
    opt.shards = exp::campaign_shards_from_env();
    exp::CampaignReport report = exp::Campaign(opt).run(specs, fn);
    const auto& c = report.counters.counters();
    auto count = [&](const char* k) {
      auto it = c.find(k);
      return it == c.end() ? std::uint64_t{0} : it->second;
    };
    std::cerr << "[bench] campaign '" << dir << "' ("
              << (report.resumed ? "resumed" : "fresh") << "): "
              << count("campaign.trials_run") << " trials run, "
              << count("campaign.resumed_trials") << " replayed, "
              << count("campaign.worker_deaths") << " worker deaths, "
              << count("campaign.trials_failed") << " failed\n";
    trials = std::move(report.trials);
    ran_on = std::to_string(opt.shards) + " shard(s)";
  } else {
    exp::Runner runner;
    trials = runner.run(std::move(specs), fn);
    ran_on = std::to_string(runner.jobs()) + " worker(s)";
  }
  std::cerr << "[bench] " << trials.size() << " trials on " << ran_on
            << " in " << sw.seconds() << " s\n";
  return trials;
}

/// Abort the bench if any trial of a sweep failed, with the error on stderr.
inline void require_all_ok(const std::vector<exp::Trial>& trials) {
  bool ok = true;
  for (const exp::Trial& t : trials)
    if (!t.result.ok) {
      std::cerr << "trial '" << t.spec.scenario << "' failed: " << t.result.error
                << "\n";
      ok = false;
    }
  if (!ok) std::exit(1);
}

/// All 18 nodes broadcast every round (paper §V-A: periodic 4 s traffic).
inline std::vector<phy::NodeId> all_to_all_sources(const phy::Topology& topo) {
  std::vector<phy::NodeId> sources;
  for (phy::NodeId i = 1; i < topo.size(); ++i) sources.push_back(i);
  sources.push_back(0);
  return sources;
}

}  // namespace dimmer::bench
