// Deterministic parallel experiment runner.
//
// The paper's evaluation is a pile of embarrassingly parallel trials: every
// (scenario, seed, config) cell builds its own Topology / DimmerNetwork /
// Pcg32 and never touches another trial's state. The Runner executes a
// vector of TrialSpecs on a fixed-size std::thread pool (an atomic index is
// the work queue) and returns results in spec order.
//
// Determinism contract: results are bit-identical for every job count and
// any thread schedule, because
//  (a) each trial derives its RNG by Pcg32::fork *before* dispatch, in spec
//      order, so the stream a trial sees depends only on its index;
//  (b) trials share nothing mutable (shared inputs — a trained policy, a
//      trace dataset, a Topology — are const and their queries are pure);
//  (c) aggregation (RunningStats::merge and friends) happens after the pool
//      drains, walking trials in spec order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dimmer::exp {

/// One cell of a sweep: which scenario, which seed, which config overrides.
struct TrialSpec {
  /// Grouping key for aggregation and the JSON `aggregates` section
  /// (e.g. "dimmer@15%"). Trials sharing a scenario are summarised together.
  std::string scenario;
  /// Base seed the trial function should use for its simulation components.
  std::uint64_t seed = 0;
  /// Numeric config overrides (interference level, reward constant, ...).
  std::map<std::string, double> params;
  /// Non-numeric overrides (protocol name, episode label, ...).
  std::map<std::string, std::string> tags;
  /// Scripted faults for this trial (see src/fault). Empty = fault-free, and
  /// guaranteed bit-identical to a spec without a plan at all.
  fault::FaultPlan fault_plan;
};

/// What one trial produced. All fields are written by the trial function
/// except `wall_seconds` / `ok` / `error`, which the Runner fills in.
/// [[nodiscard]] (enforced by dimmer-lint's nodiscard-result rule): a
/// silently dropped result is how a bench diverges from what it reports.
struct [[nodiscard]] TrialResult {
  /// Scalar headline metrics (reliability, radio_on_ms, latency_ms, ...).
  std::map<std::string, double> metrics;
  /// Per-trial sample distributions (e.g. per-round reliability); scenarios
  /// are summarised across trials with RunningStats::merge.
  std::map<std::string, util::RunningStats> stats;
  /// Named trajectories (e.g. the N_TX time series).
  std::map<std::string, std::vector<double>> series;
  /// Structured counters/gauges/histograms (see obs/metrics.hpp). Each trial
  /// fills its own registry (point an obs::Instrumentation at it), and
  /// merged_metrics() combines them in spec order after the pool drains, so
  /// the merged registry is bit-identical for any job count.
  obs::MetricsRegistry registry;
  double wall_seconds = 0.0;
  bool ok = true;
  std::string error;
};

struct Trial {
  TrialSpec spec;
  TrialResult result;
};

/// A trial receives its spec plus a private, pre-forked generator. It must
/// not touch global mutable state; it may read shared const inputs.
using TrialFn = std::function<TrialResult(const TrialSpec&, util::Pcg32&)>;

class TrialWatchdog;  // exp/watchdog.hpp

/// Executes trial `index` of a sweep: `fn(spec, rng)` under a `watchdog`
/// deadline labelled "<scenario>#<index>", timed into wall_seconds, with any
/// exception recorded into ok/error instead of propagated. The one trial
/// executor behind Runner::run and the campaign shard workers.
TrialResult execute_trial(const TrialFn& fn, const TrialSpec& spec,
                          std::size_t index, util::Pcg32& rng,
                          TrialWatchdog& watchdog);

/// Root of every sweep's per-trial RNG fork tree. Fixed, so a sweep's RNG
/// streams are reproducible across runs, machines and the two engines
/// (Runner and Campaign).
inline constexpr std::uint64_t kMasterSeed = 0xD133E201ULL;

/// Fork every trial's generator from one root in spec order: the stream a
/// trial sees is a function of (kMasterSeed, its index, its seed) only,
/// never of which worker picks it up or when. Shared by Runner::run and the
/// campaign shard workers — a worker forks *all* trials' generators and
/// uses only its shard's, so sharding cannot shift anyone's stream.
std::vector<util::Pcg32> fork_trial_rngs(const std::vector<TrialSpec>& specs);

class Runner {
 public:
  struct Options {
    /// Worker threads; 0 = std::thread::hardware_concurrency() (at least 1).
    int jobs = 0;
    /// Per-trial wall-clock deadline in seconds; a trial that exceeds it
    /// kills the whole process (exit kTrialTimeoutExit — see
    /// exp/watchdog.hpp). 0 = off; negative or NaN is rejected.
    double trial_timeout_s = 0.0;
  };

  explicit Runner(Options opt);

  int jobs() const { return jobs_; }
  double trial_timeout_s() const { return trial_timeout_s_; }

  /// Run every spec through `fn`. Trial exceptions are captured into
  /// TrialResult::ok/error; they do not abort the sweep.
  std::vector<Trial> run(std::vector<TrialSpec> specs, const TrialFn& fn) const;

 private:
  int jobs_;
  double trial_timeout_s_;
};

/// Merge the named per-trial distribution across all ok trials of
/// `scenario` (empty scenario = every trial), via RunningStats::merge.
util::RunningStats merged_stat(const std::vector<Trial>& trials,
                               const std::string& scenario,
                               const std::string& key);

/// RunningStats over a scalar metric across ok trials of `scenario`
/// (empty scenario = every trial). Trials lacking the metric are skipped.
util::RunningStats metric_stats(const std::vector<Trial>& trials,
                                const std::string& scenario,
                                const std::string& metric);

/// Merge every ok trial's metrics registry, walking trials in spec order
/// (deterministic regardless of how many workers ran the sweep).
obs::MetricsRegistry merged_metrics(const std::vector<Trial>& trials);

}  // namespace dimmer::exp
