#include "exp/runner.hpp"

#include <atomic>
#include <string>
#include <thread>

#include "exp/watchdog.hpp"
#include "util/check.hpp"
#include "util/wallclock.hpp"

namespace dimmer::exp {

TrialResult execute_trial(const TrialFn& fn, const TrialSpec& spec,
                          std::size_t index, util::Pcg32& rng,
                          TrialWatchdog& watchdog) {
  std::string label;
  if (watchdog.enabled()) label = spec.scenario + "#" + std::to_string(index);
  util::Stopwatch sw;
  TrialResult r;
  {
    TrialWatchdog::Scope deadline = watchdog.watch(std::move(label));
    try {
      r = fn(spec, rng);
    } catch (const std::exception& e) {
      r = TrialResult{};
      r.ok = false;
      r.error = e.what();
    } catch (...) {  // NOLINT-DIMMER(err-swallow): recorded, not swallowed —
                     // ok=false reaches require_all_ok and the journal.
      r = TrialResult{};
      r.ok = false;
      r.error = "unknown exception";
    }
  }
  r.wall_seconds = sw.seconds();
  return r;
}

std::vector<util::Pcg32> fork_trial_rngs(const std::vector<TrialSpec>& specs) {
  util::Pcg32 root(kMasterSeed);
  std::vector<util::Pcg32> rngs;
  rngs.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    rngs.push_back(root.fork(util::hash_u64(specs[i].seed, i)));
  return rngs;
}

namespace {
int hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}
}  // namespace

Runner::Runner(Options opt)
    : jobs_(opt.jobs > 0 ? opt.jobs : hardware_jobs()),
      trial_timeout_s_(opt.trial_timeout_s) {
  DIMMER_REQUIRE(opt.jobs >= 0, "Runner: jobs must be >= 0");
  DIMMER_REQUIRE(opt.trial_timeout_s >= 0.0,
                 "Runner: trial_timeout_s must be >= 0 (0 = off)");
}

std::vector<Trial> Runner::run(std::vector<TrialSpec> specs,
                               const TrialFn& fn) const {
  // Fork every trial's generator *before* dispatch (see fork_trial_rngs).
  std::vector<util::Pcg32> rngs = fork_trial_rngs(specs);

  std::vector<Trial> out(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    out[i].spec = std::move(specs[i]);

  // One watchdog for the whole sweep; armed per trial. Disabled (no thread
  // at all) unless a deadline was configured.
  TrialWatchdog watchdog(trial_timeout_s_);

  auto run_one = [&](std::size_t i) {
    out[i].result = execute_trial(fn, out[i].spec, i, rngs[i], watchdog);
  };

  std::size_t n_workers = static_cast<std::size_t>(jobs_);
  if (n_workers > out.size()) n_workers = out.size();
  if (n_workers <= 1) {
    // Inline execution: no threads at jobs=1, so single-job runs are
    // debuggable with plain gdb/asan and trivially schedule-free.
    for (std::size_t i = 0; i < out.size(); ++i) run_one(i);
    return out;
  }

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= out.size()) return;
      run_one(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return out;
}

namespace {
template <typename Fn>
void for_scenario(const std::vector<Trial>& trials, const std::string& scenario,
                  Fn&& fn) {
  for (const Trial& t : trials) {
    if (!t.result.ok) continue;
    if (!scenario.empty() && t.spec.scenario != scenario) continue;
    fn(t);
  }
}
}  // namespace

util::RunningStats merged_stat(const std::vector<Trial>& trials,
                               const std::string& scenario,
                               const std::string& key) {
  util::RunningStats acc;
  for_scenario(trials, scenario, [&](const Trial& t) {
    auto it = t.result.stats.find(key);
    if (it != t.result.stats.end()) acc.merge(it->second);
  });
  return acc;
}

util::RunningStats metric_stats(const std::vector<Trial>& trials,
                                const std::string& scenario,
                                const std::string& metric) {
  util::RunningStats acc;
  for_scenario(trials, scenario, [&](const Trial& t) {
    auto it = t.result.metrics.find(metric);
    if (it != t.result.metrics.end()) acc.add(it->second);
  });
  return acc;
}

obs::MetricsRegistry merged_metrics(const std::vector<Trial>& trials) {
  obs::MetricsRegistry merged;
  for (const Trial& t : trials)
    if (t.result.ok) merged.merge(t.result.registry);
  return merged;
}

}  // namespace dimmer::exp
