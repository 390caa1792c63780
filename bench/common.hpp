// Shared helpers for the figure-reproduction benches, and the one place
// that reads the process environment.
//
// bench::run_main walks the environment once (parse_env) and hands the
// parsed knobs to the bench body as a bench::Env; the library under src/
// takes each of them as an explicit option. A knob that does not parse, a
// path knob whose directory is unusable, and any other DIMMER_* name fail
// the bench with `error: <what>` and exit status 2 before the body runs, so
// a bad knob never costs minutes of training or a whole sweep.
//
// Scaling: DIMMER_BENCH_SCALE (a positive number; default 1.0) multiplies
// run lengths / model counts through Env::scaled. Values below 1 shrink them
// for quick smoke runs (e.g. DIMMER_BENCH_SCALE=0.25); values above 1 extend
// them toward the paper's full durations.
//
// The trained policy is cached in ./dimmer_dqn.mlp (or $DIMMER_POLICY): the
// first bench that needs it trains once, subsequent benches reuse it — the
// same frozen-network deployment model as the paper.
#pragma once

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
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
#include "util/cli.hpp"
#include "util/wallclock.hpp"

namespace dimmer::bench {

/// Every bench knob, as parse_env read it. Each default is the value of an
/// unset knob.
struct Env {
  double scale = 1.0;             ///< DIMMER_BENCH_SCALE: positive, finite
  int jobs = 0;                   ///< DIMMER_JOBS; 0 = hardware concurrency
  double trial_timeout_s = 0.0;   ///< DIMMER_TRIAL_TIMEOUT_S; 0 = off
  int fed_workers = 1;            ///< DIMMER_FED_WORKERS, in [1, 999]
  std::string policy = "dimmer_dqn.mlp";  ///< DIMMER_POLICY
  std::string out = ".";          ///< DIMMER_BENCH_OUT
  std::string campaign_dir;       ///< DIMMER_CAMPAIGN_DIR; empty = Runner
  int campaign_shards = 1;        ///< DIMMER_CAMPAIGN_SHARDS, in [1, 999]
  long campaign_abort_after = 0;  ///< DIMMER_CAMPAIGN_ABORT_AFTER; 0 = off
  std::string trace;              ///< DIMMER_TRACE; empty = no trace

  /// max(lo, round(x * scale)). A rounded count outside int throws: casting
  /// it would be undefined behaviour, which in Release silently read as
  /// `lo` (DIMMER_BENCH_SCALE=20000 trained bench_ablation_tabular for one
  /// step).
  int scaled(int x, int lo = 1) const {
    const double v = static_cast<double>(x) * scale + 0.5;
    if (!(v > static_cast<double>(std::numeric_limits<int>::min()) - 1.0 &&
          v < static_cast<double>(std::numeric_limits<int>::max()) + 1.0))
      throw util::RequireError("DIMMER_BENCH_SCALE makes a count outside int");
    const auto n = static_cast<int>(v);
    return n < lo ? lo : n;
  }
};

namespace detail {

inline void env_require(bool ok, const std::string& what) {
  if (!ok) throw util::RequireError(what);
}

/// A count knob: one base-10 integer (util::parse_long: no whitespace, no
/// trailing characters, no overflow) in [1, max], so a mistyped "8x" or
/// "0x10" fails instead of running at some other count.
inline long parse_count(const std::string& name, const std::string& value,
                        long max) {
  const std::optional<long> v = util::parse_long(value);
  env_require(v.has_value(), name + " is not a valid integer");
  env_require(*v >= 1, name + " must be >= 1");
  env_require(*v <= max, name + " out of [1, " + std::to_string(max) + "]");
  return *v;
}

/// A positive finite number, with the same full-string discipline
/// (util::parse_double).
inline double parse_positive(const std::string& name,
                             const std::string& value) {
  const std::optional<double> v = util::parse_double(value);
  env_require(v.has_value(), name + " is not a valid number");
  env_require(std::isfinite(*v) && *v > 0.0,
              name + " must be a positive finite number");
  return *v;
}

/// Throws naming `name` unless `dir` is an existing directory this process
/// can create files in.
inline void require_writable_dir(const std::string& name,
                                 const std::string& dir) {
  std::error_code ec;
  env_require(std::filesystem::is_directory(dir, ec) &&
                  ::access(dir.c_str(), W_OK | X_OK) == 0,
              name + ": " + dir + " is not a writable directory");
}

/// The directory `path` names an entry of: "." for a bare name.
inline std::string parent_dir(std::string path) {
  while (path.size() > 1 && path.back() == '/') path.pop_back();
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace detail

/// Reads every DIMMER_* entry of `envp` (a null-terminated "NAME=value"
/// array, as `environ`) and ignores all other names. Numeric knobs parse
/// strictly; an empty path knob counts as unset. DIMMER_BENCH_OUT must be
/// an existing writable directory, and so must the parent directory of
/// DIMMER_TRACE and of DIMMER_CAMPAIGN_DIR. Any other DIMMER_* name, such
/// as the misspelt DIMMER_JOB, is rejected. Every failure throws
/// util::RequireError naming the variable.
inline Env parse_env(const char* const* envp) {
  using detail::parse_count;
  using detail::parse_positive;
  Env env;
  for (; envp != nullptr && *envp != nullptr; ++envp) {
    const std::string entry = *envp;
    if (entry.rfind("DIMMER_", 0) != 0) continue;
    const std::size_t eq = entry.find('=');
    const std::string name = entry.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : entry.substr(eq + 1);
    if (name == "DIMMER_BENCH_SCALE") {
      env.scale = parse_positive(name, value);
    } else if (name == "DIMMER_JOBS") {
      env.jobs = static_cast<int>(
          parse_count(name, value, std::numeric_limits<int>::max()));
    } else if (name == "DIMMER_TRIAL_TIMEOUT_S") {
      env.trial_timeout_s = parse_positive(name, value);
    } else if (name == "DIMMER_FED_WORKERS") {
      env.fed_workers = static_cast<int>(parse_count(name, value, 999));
    } else if (name == "DIMMER_POLICY") {
      if (!value.empty()) env.policy = value;
    } else if (name == "DIMMER_BENCH_OUT") {
      if (!value.empty()) env.out = value;
    } else if (name == "DIMMER_CAMPAIGN_DIR") {
      env.campaign_dir = value;
    } else if (name == "DIMMER_CAMPAIGN_SHARDS") {
      env.campaign_shards = static_cast<int>(parse_count(name, value, 999));
    } else if (name == "DIMMER_CAMPAIGN_ABORT_AFTER") {
      env.campaign_abort_after =
          parse_count(name, value, std::numeric_limits<long>::max());
    } else if (name == "DIMMER_TRACE") {
      env.trace = value;
    } else {
      throw util::RequireError("unknown environment variable " + name);
    }
  }
  detail::require_writable_dir("DIMMER_BENCH_OUT", env.out);
  if (!env.trace.empty())
    detail::require_writable_dir("DIMMER_TRACE",
                                 detail::parent_dir(env.trace));
  if (!env.campaign_dir.empty())
    detail::require_writable_dir("DIMMER_CAMPAIGN_DIR",
                                 detail::parent_dir(env.campaign_dir));
  return env;
}

/// A bench's exit status: `body(env)`'s, or 2 when parse_env rejects the
/// environment or an exception escapes the body. The exception (a malformed
/// knob's util::RequireError, say) is printed as `error: <what>` on stderr
/// instead of aborting through std::terminate. Every bench's main is
/// `return bench::run_main(bench_main);`.
inline int run_main(int (*body)(const Env&)) {
  try {
    return body(parse_env(environ));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

/// The deployed policy, loaded from env.policy or trained and cached there.
inline rl::Mlp shared_policy(const Env& env) {
  core::PretrainedOptions opt;
  return core::load_or_train_policy(env.policy, opt, &std::cerr);
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
inline std::vector<exp::Trial> run_sweep(const Env& env,
                                         std::vector<exp::TrialSpec> specs,
                                         const exp::TrialFn& fn) {
  util::Stopwatch sw;
  std::vector<exp::Trial> trials;
  std::string ran_on;
  if (!env.campaign_dir.empty()) {
    exp::CampaignOptions opt;
    opt.dir = env.campaign_dir;
    opt.shards = env.campaign_shards;
    opt.trial_timeout_s = env.trial_timeout_s;
    opt.abort_after = env.campaign_abort_after;
    exp::CampaignReport report = exp::Campaign(opt).run(specs, fn);
    const auto& c = report.counters.counters();
    auto count = [&](const char* k) {
      auto it = c.find(k);
      return it == c.end() ? std::uint64_t{0} : it->second;
    };
    std::cerr << "[bench] campaign '" << env.campaign_dir << "' ("
              << (report.resumed ? "resumed" : "fresh") << "): "
              << count("campaign.trials_run") << " trials run, "
              << count("campaign.resumed_trials") << " replayed, "
              << count("campaign.worker_deaths") << " worker deaths, "
              << count("campaign.trials_failed") << " failed\n";
    trials = std::move(report.trials);
    ran_on = std::to_string(opt.shards) + " shard(s)";
  } else {
    const exp::Runner runner(
        {.jobs = env.jobs, .trial_timeout_s = env.trial_timeout_s});
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
