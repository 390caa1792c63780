#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "util/check.hpp"

namespace dimmer::exp {
namespace {

// A deterministic but seed- and RNG-sensitive fake workload: any divergence
// in spec routing or RNG forking shows up in the metrics.
TrialResult fake_trial(const TrialSpec& spec, util::Pcg32& rng) {
  TrialResult r;
  util::RunningStats per_round;
  double acc = 0.0;
  int rounds = 50 + static_cast<int>(spec.seed % 17);
  for (int i = 0; i < rounds; ++i) {
    double x = rng.uniform() + 0.01 * static_cast<double>(spec.seed);
    acc += x;
    per_round.add(x);
  }
  r.metrics["acc"] = acc;
  r.metrics["rounds"] = rounds;
  r.stats["x"] = per_round;
  r.series["x_head"] = {acc / rounds, per_round.min(), per_round.max()};
  return r;
}

std::vector<TrialSpec> small_sweep() {
  std::vector<TrialSpec> specs;
  for (int s = 0; s < 24; ++s) {
    TrialSpec spec;
    // Indexed instead of a ternary chain: GCC 12's -Wrestrict misfires on
    // const char* ternaries assigned to std::string under -O2 inlining.
    static const char* const kScenarios[3] = {"a", "b", "c"};
    spec.scenario = kScenarios[s % 3];
    spec.seed = static_cast<std::uint64_t>(1000 + s * 7);
    spec.params["s"] = s;
    specs.push_back(spec);
  }
  return specs;
}

TEST(Runner, PreservesSpecOrder) {
  Runner runner({.jobs = 4});
  auto trials = runner.run(small_sweep(), fake_trial);
  ASSERT_EQ(trials.size(), 24u);
  for (int s = 0; s < 24; ++s) {
    EXPECT_EQ(trials[s].spec.seed, static_cast<std::uint64_t>(1000 + s * 7));
    EXPECT_TRUE(trials[s].result.ok);
  }
}

TEST(Runner, BitIdenticalAcrossJobCounts) {
  auto one = Runner({.jobs = 1}).run(small_sweep(), fake_trial);
  auto eight = Runner({.jobs = 8}).run(small_sweep(), fake_trial);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    // Exact equality, not near: the parallel schedule must not perturb a
    // single bit of any trial's arithmetic.
    EXPECT_EQ(one[i].result.metrics, eight[i].result.metrics);
    EXPECT_EQ(one[i].result.series, eight[i].result.series);
    EXPECT_EQ(one[i].result.stats.at("x").mean(),
              eight[i].result.stats.at("x").mean());
    EXPECT_EQ(one[i].result.stats.at("x").variance(),
              eight[i].result.stats.at("x").variance());
  }
  // And the serialized artifact (minus timing) is byte-identical.
  JsonOptions no_timing{.include_timing = false};
  EXPECT_EQ(to_json("sweep", one, no_timing), to_json("sweep", eight, no_timing));
}

TEST(Runner, MoreWorkersThanTrialsIsFine) {
  std::vector<TrialSpec> specs(2);
  specs[0].seed = 1;
  specs[1].seed = 2;
  auto trials = Runner({.jobs = 16}).run(specs, fake_trial);
  ASSERT_EQ(trials.size(), 2u);
  EXPECT_TRUE(trials[0].result.ok);
  EXPECT_TRUE(trials[1].result.ok);
}

TEST(Runner, WorkersRunConcurrently) {
  // 4 trials that all wait for each other: only completes if the pool
  // actually runs them in parallel.
  std::atomic<int> arrived{0};
  auto fn = [&](const TrialSpec&, util::Pcg32&) {
    arrived.fetch_add(1);
    while (arrived.load() < 4) std::this_thread::yield();
    return TrialResult{};
  };
  auto trials = Runner({.jobs = 4}).run(std::vector<TrialSpec>(4), fn);
  for (const Trial& t : trials) EXPECT_TRUE(t.result.ok);
}

TEST(Runner, CapturesTrialExceptions) {
  std::vector<TrialSpec> specs = small_sweep();
  auto fn = [](const TrialSpec& spec, util::Pcg32& rng) {
    if (spec.seed == 1007) throw std::runtime_error("boom in trial");
    return fake_trial(spec, rng);
  };
  auto trials = Runner({.jobs = 8}).run(specs, fn);
  int failed = 0;
  for (const Trial& t : trials) {
    if (t.result.ok) continue;
    ++failed;
    EXPECT_EQ(t.spec.seed, 1007u);
    EXPECT_NE(t.result.error.find("boom in trial"), std::string::npos);
  }
  EXPECT_EQ(failed, 1);
}

TEST(Runner, ZeroJobsAndTimeoutAreDefaultsAndNegativesAreRejected) {
  // jobs 0 is hardware concurrency and a timeout of 0 is off; neither
  // option reads a value from anywhere else.
  const Runner runner(Runner::Options{});
  EXPECT_GE(runner.jobs(), 1);
  EXPECT_EQ(runner.trial_timeout_s(), 0.0);
  EXPECT_EQ(Runner({.jobs = 3}).jobs(), 3);
  EXPECT_THROW(Runner({.jobs = -1}), util::RequireError);
  for (double bad : {-1.0, std::nan("")})
    EXPECT_THROW(Runner({.trial_timeout_s = bad}), util::RequireError) << bad;
}

TEST(Aggregation, MetricStatsGroupsByScenario) {
  auto trials = Runner({.jobs = 4}).run(small_sweep(), fake_trial);
  util::RunningStats a = metric_stats(trials, "a", "acc");
  util::RunningStats all = metric_stats(trials, "", "acc");
  EXPECT_EQ(a.count(), 8u);
  EXPECT_EQ(all.count(), 24u);
  // Group mean equals hand-computed mean over the group's trials.
  double sum = 0.0;
  for (const Trial& t : trials)
    if (t.spec.scenario == "a") sum += t.result.metrics.at("acc");
  EXPECT_NEAR(a.mean(), sum / 8.0, 1e-12);
}

TEST(Aggregation, MergedStatEqualsSequentialAdd) {
  auto trials = Runner({.jobs = 4}).run(small_sweep(), fake_trial);
  util::RunningStats merged = merged_stat(trials, "b", "x");
  // Re-run the same trials inline and pour every sample into one stream.
  util::RunningStats seq;
  auto one = Runner({.jobs = 1}).run(small_sweep(), fake_trial);
  for (const Trial& t : one) {
    if (t.spec.scenario != "b") continue;
    const util::RunningStats& s = t.result.stats.at("x");
    (void)s;
  }
  // Counts must line up (8 trials x 50..66 rounds each).
  std::size_t expect_count = 0;
  for (const Trial& t : one)
    if (t.spec.scenario == "b") expect_count += t.result.stats.at("x").count();
  EXPECT_EQ(merged.count(), expect_count);
  for (const Trial& t : one)
    if (t.spec.scenario == "b") seq.merge(t.result.stats.at("x"));
  EXPECT_DOUBLE_EQ(merged.mean(), seq.mean());
  EXPECT_DOUBLE_EQ(merged.variance(), seq.variance());
}

}  // namespace
}  // namespace dimmer::exp
