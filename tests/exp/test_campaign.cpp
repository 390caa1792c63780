// exp/campaign.hpp end-to-end: sharding, kill/resume determinism, worker
// crash recovery, watchdog deadlines, crash-safe artifact writes.
//
// Everything here fork()s, SIGKILLs, or spawns watchdog threads, so this
// suite lives in its own binary (dimmer_test_campaign) and is deliberately
// kept out of the sanitizer matrices in CI — TSan/ASan and fork+_Exit do
// not mix.
#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "exp/serialize.hpp"
#include "exp/watchdog.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/wallclock.hpp"

using dimmer::exp::Campaign;
using dimmer::exp::CampaignOptions;
using dimmer::exp::CampaignReport;
using dimmer::exp::Trial;
using dimmer::exp::TrialResult;
using dimmer::exp::TrialSpec;
using dimmer::util::Pcg32;

namespace {

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "dimmer_campaign_XXXXXX";
  char* got = mkdtemp(tmpl.data());
  EXPECT_NE(got, nullptr);
  return tmpl;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Deterministic, cheap trial: a few RNG draws plus spec echoes — enough
/// surface (metrics/stats/series/registry) to catch any round-trip drift.
TrialResult cheap_trial(const TrialSpec& spec, Pcg32& rng) {
  if (spec.scenario == "poison") ::raise(SIGKILL);  // kills the whole worker
  if (spec.scenario == "hang") {
    for (;;) dimmer::util::sleep_seconds(0.05);  // only the watchdog ends it
  }
  TrialResult r;
  double acc = 0.0;
  for (int i = 0; i < 64; ++i) {
    const double x = rng.uniform();
    acc += x;
    r.stats["draw"].add(x);
  }
  r.metrics["acc"] = acc;
  r.metrics["seed_echo"] = static_cast<double>(spec.seed % 4096);
  r.series["first_draws"] = {r.stats["draw"].min(), r.stats["draw"].max()};
  r.registry.counter("trial.draws") = 64;
  return r;
}

/// Same results as cheap_trial (wall_seconds aside), but slow enough that a
/// supervisor armed with CampaignOptions::abort_after reliably dies *mid*
/// campaign instead of after the workers already drained every trial.
TrialResult slow_trial(const TrialSpec& spec, Pcg32& rng) {
  dimmer::util::sleep_seconds(0.03);
  return cheap_trial(spec, rng);
}

std::vector<TrialSpec> make_specs(int per_scenario = 3) {
  std::vector<TrialSpec> specs;
  for (const char* sc : {"calm", "jammed", "storm"}) {
    for (int s = 0; s < per_scenario; ++s) {
      TrialSpec spec;
      spec.scenario = sc;
      spec.seed = static_cast<std::uint64_t>(s);
      spec.params["level"] = 0.15;
      spec.tags["policy"] = sc;
      if (std::string(sc) == "storm") spec.fault_plan.crash_coordinator(30);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// Canonical bytes of a trial with timing scrubbed — the identity the whole
/// engine promises across shard counts and kill histories.
std::string canon(const Trial& t) {
  TrialResult r = t.result;
  r.wall_seconds = 0.0;
  return dimmer::exp::spec_to_json(t.spec) + "\n" +
         dimmer::exp::result_to_json(r);
}

std::vector<std::string> canon_all(const std::vector<Trial>& trials) {
  std::vector<std::string> out;
  out.reserve(trials.size());
  for (const Trial& t : trials) out.push_back(canon(t));
  return out;
}

/// Journal bytes with the only timing field scrubbed (same strip the CI
/// smoke job applies with sed).
std::string scrubbed_journal(const std::string& dir, int shard) {
  static const std::regex kWall(",? ?\"wall_seconds\": [0-9.e+-]+");
  return std::regex_replace(
      slurp(dimmer::exp::shard_journal_path(dir, shard)), kWall, "");
}

CampaignOptions fast_options(const std::string& dir, int shards) {
  CampaignOptions opt;
  opt.dir = dir;
  opt.shards = shards;
  opt.retry_backoff_s = 0.0;  // keep kill-storm tests quick
  return opt;
}

std::uint64_t counter_of(const CampaignReport& rep, const char* name) {
  const auto& c = rep.counters.counters();
  auto it = c.find(name);
  return it == c.end() ? 0u : it->second;
}

}  // namespace

TEST(Campaign, ShardOfIsRoundRobin) {
  EXPECT_EQ(dimmer::exp::shard_of(0, 3), 0);
  EXPECT_EQ(dimmer::exp::shard_of(1, 3), 1);
  EXPECT_EQ(dimmer::exp::shard_of(5, 3), 2);
  EXPECT_EQ(dimmer::exp::shard_of(7, 1), 0);
  EXPECT_THROW(dimmer::exp::shard_of(0, 0), dimmer::util::RequireError);
}

TEST(Campaign, RejectsNegativeTimeoutsAndHooks) {
  // 0 is off for all three; a negative or NaN value is a caller's mistake,
  // not a request to read anything from elsewhere.
  const std::string dir = make_temp_dir();
  for (double bad : {-1.0, std::nan("")}) {
    CampaignOptions opt = fast_options(dir, 1);
    opt.trial_timeout_s = bad;
    EXPECT_THROW(Campaign{opt}, dimmer::util::RequireError) << bad;
  }
  CampaignOptions kill = fast_options(dir, 1);
  kill.kill_after = -1;
  EXPECT_THROW(Campaign{kill}, dimmer::util::RequireError);
  CampaignOptions abort = fast_options(dir, 1);
  abort.abort_after = -1;
  EXPECT_THROW(Campaign{abort}, dimmer::util::RequireError);
  EXPECT_NO_THROW(Campaign{fast_options(dir, 1)});
}

TEST(Campaign, MatchesRunnerForAnyShardCount) {
  const std::vector<TrialSpec> specs = make_specs();
  dimmer::exp::Runner runner({.jobs = 1});
  const auto reference = canon_all(runner.run(specs, cheap_trial));

  for (int shards : {1, 4}) {
    const std::string dir = make_temp_dir();
    Campaign campaign(fast_options(dir, shards));
    const CampaignReport rep = campaign.run(specs, cheap_trial);
    EXPECT_FALSE(rep.resumed);
    EXPECT_EQ(canon_all(rep.trials), reference) << shards << " shards";
    EXPECT_EQ(counter_of(rep, "campaign.trials_run"), specs.size());
    EXPECT_EQ(counter_of(rep, "campaign.worker_deaths"), 0u);
    EXPECT_EQ(counter_of(rep, "campaign.trials_failed"), 0u);
  }
}

TEST(Campaign, WorkerKillStormStillMatchesAndJournalsAreByteStable) {
  const std::vector<TrialSpec> specs = make_specs();
  const std::string clean_dir = make_temp_dir();
  const CampaignReport clean =
      Campaign(fast_options(clean_dir, 2)).run(specs, cheap_trial);

  // Every worker SIGKILLs itself after each journal record: the sweep limps
  // through on respawns, one trial per worker lifetime.
  const std::string storm_dir = make_temp_dir();
  CampaignOptions storm_opt = fast_options(storm_dir, 2);
  storm_opt.kill_after = 1;
  const CampaignReport storm = Campaign(storm_opt).run(specs, cheap_trial);
  EXPECT_GE(counter_of(storm, "campaign.worker_deaths"), specs.size() - 2);
  EXPECT_EQ(counter_of(storm, "campaign.trials_failed"), 0u);
  EXPECT_EQ(canon_all(storm.trials), canon_all(clean.trials));
  for (int shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(scrubbed_journal(storm_dir, shard),
              scrubbed_journal(clean_dir, shard))
        << "journal bytes must not depend on kill history (shard " << shard
        << ")";
  }
}

TEST(CampaignDeathTest, SupervisorKilledMidRunResumesExactly) {
  const std::vector<TrialSpec> specs = make_specs();
  const std::string clean_dir = make_temp_dir();
  const CampaignReport clean =
      Campaign(fast_options(clean_dir, 2)).run(specs, cheap_trial);

  const std::string dir = make_temp_dir();
  // Leg 1 (in the death-test child): the supervisor SIGKILLs itself once
  // three records exist across the journals — mid-campaign, workers live.
  CampaignOptions aborting = fast_options(dir, 2);
  aborting.abort_after = 3;
  EXPECT_EXIT(Campaign(aborting).run(specs, slow_trial),
              ::testing::KilledBySignal(SIGKILL), "");

  // Leg 2: plain resume, without the hook (it is not in the checkpoint).
  // Only the missing trials run; the replayed ones are parsed back from the
  // journals.
  const CampaignReport resumed =
      Campaign(fast_options(dir, 2)).run(specs, slow_trial);
  EXPECT_TRUE(resumed.resumed);
  const std::uint64_t replayed = counter_of(resumed, "campaign.resumed_trials");
  EXPECT_GE(replayed, 3u);
  EXPECT_LT(replayed, specs.size());
  // The crash cost exactly the unfinished trials — nothing was recomputed.
  EXPECT_EQ(counter_of(resumed, "campaign.trials_run"),
            specs.size() - replayed);
  EXPECT_EQ(canon_all(resumed.trials), canon_all(clean.trials));
  for (int shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(scrubbed_journal(dir, shard), scrubbed_journal(clean_dir, shard))
        << "shard " << shard;
  }
}

TEST(Campaign, ResumingCompletedCampaignRunsNothing) {
  const std::vector<TrialSpec> specs = make_specs();
  const std::string dir = make_temp_dir();
  const CampaignReport first =
      Campaign(fast_options(dir, 3)).run(specs, cheap_trial);
  const CampaignReport second =
      Campaign(fast_options(dir, 3)).run(specs, cheap_trial);
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(counter_of(second, "campaign.resumed_trials"), specs.size());
  // trials_run is cumulative across resumes and must not grow: 0 new runs.
  EXPECT_EQ(counter_of(second, "campaign.trials_run"),
            counter_of(first, "campaign.trials_run"));
  EXPECT_EQ(canon_all(second.trials), canon_all(first.trials));
}

TEST(Campaign, CrashLoopingTrialIsFailedButRecorded) {
  std::vector<TrialSpec> specs = make_specs(1);  // 3 healthy trials
  TrialSpec poison;
  poison.scenario = "poison";
  poison.seed = 99;
  specs.push_back(poison);

  const std::string dir = make_temp_dir();
  CampaignOptions opt = fast_options(dir, 2);
  opt.max_attempts = 2;
  const CampaignReport rep = Campaign(opt).run(specs, cheap_trial);

  ASSERT_EQ(rep.trials.size(), specs.size());
  const Trial& bad = rep.trials.back();
  EXPECT_FALSE(bad.result.ok);
  EXPECT_EQ(bad.result.error,
            "campaign: trial exceeded attempt budget (2 attempts)");
  for (std::size_t i = 0; i + 1 < rep.trials.size(); ++i) {
    EXPECT_TRUE(rep.trials[i].result.ok) << i;
  }
  EXPECT_EQ(counter_of(rep, "campaign.trials_failed"), 1u);
  EXPECT_GE(counter_of(rep, "campaign.worker_deaths"), 2u);
  EXPECT_GE(counter_of(rep, "campaign.retries"), 1u);
}

TEST(Campaign, HungTrialTimesOutAndIsFailed) {
  std::vector<TrialSpec> specs = make_specs(1);
  TrialSpec hang;
  hang.scenario = "hang";
  hang.seed = 7;
  specs.push_back(hang);

  const std::string dir = make_temp_dir();
  CampaignOptions opt = fast_options(dir, 1);
  opt.trial_timeout_s = 0.25;
  opt.max_attempts = 2;
  const CampaignReport rep = Campaign(opt).run(specs, cheap_trial);
  EXPECT_FALSE(rep.trials.back().result.ok);
  EXPECT_EQ(counter_of(rep, "campaign.trials_failed"), 1u);
  EXPECT_GE(counter_of(rep, "campaign.worker_deaths"), 2u);
  for (std::size_t i = 0; i + 1 < rep.trials.size(); ++i) {
    EXPECT_TRUE(rep.trials[i].result.ok) << i;
  }
}

TEST(Campaign, MismatchedResumeIsRefused) {
  const std::vector<TrialSpec> specs = make_specs(1);
  const std::string dir = make_temp_dir();
  { (void)Campaign(fast_options(dir, 2)).run(specs, cheap_trial); }

  // Different shard count than the checkpoint was created with.
  EXPECT_THROW((void)Campaign(fast_options(dir, 3)).run(specs, cheap_trial),
               dimmer::util::RequireError);

  // Different spec matrix (digest mismatch).
  std::vector<TrialSpec> other = specs;
  other[0].seed ^= 1;
  EXPECT_THROW((void)Campaign(fast_options(dir, 2)).run(other, cheap_trial),
               dimmer::util::RequireError);

  // Journals present but no checkpoint: refuse rather than clobber.
  ASSERT_EQ(::unlink(dimmer::exp::campaign_checkpoint_path(dir).c_str()), 0);
  EXPECT_THROW((void)Campaign(fast_options(dir, 2)).run(specs, cheap_trial),
               dimmer::util::RequireError);
}

TEST(Campaign, CheckpointShardsOutsideIntAreRefused) {
  const std::vector<TrialSpec> specs = make_specs(1);
  const std::string dir = make_temp_dir();
  { (void)Campaign(fast_options(dir, 2)).run(specs, cheap_trial); }
  // 2^32 + 2 used to wrap to 2 shards and match this resume.
  const std::string ck = dimmer::exp::campaign_checkpoint_path(dir);
  std::string text = slurp(ck);
  const std::string field = "\"shards\": 2,";
  const std::size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, field.size(), "\"shards\": 4294967298,");
  std::ofstream(ck, std::ios::binary | std::ios::trunc) << text;
  EXPECT_THROW((void)Campaign(fast_options(dir, 2)).run(specs, cheap_trial),
               dimmer::util::RequireError);
}

TEST(Campaign, SecondSupervisorIsLockedOut) {
  const std::string dir = make_temp_dir();
  // Hold the directory lock the way a live supervisor would.
  dimmer::exp::AppendLog lock(dir + "/campaign.lock");
  EXPECT_THROW(
      (void)Campaign(fast_options(dir, 1)).run(make_specs(1), cheap_trial),
      dimmer::exp::LogLockedError);
}

TEST(WatchdogDeathTest, HungScopeKillsTheProcessWithDistinctCode) {
  EXPECT_EXIT(
      {
        dimmer::exp::TrialWatchdog dog(0.05);
        auto scope = dog.watch("hung-trial");
        for (;;) dimmer::util::sleep_seconds(0.05);
      },
      ::testing::ExitedWithCode(dimmer::exp::kTrialTimeoutExit), "deadline");
}

TEST(Watchdog, DisabledWatchdogIsInert) {
  dimmer::exp::TrialWatchdog dog(0.0);
  EXPECT_FALSE(dog.enabled());
  auto scope = dog.watch("never-armed");
  dimmer::util::sleep_seconds(0.05);  // nothing should happen
}

TEST(Watchdog, FastTrialOutrunsItsDeadline) {
  dimmer::exp::TrialWatchdog dog(5.0);
  for (int i = 0; i < 3; ++i) {
    auto scope = dog.watch("quick");
  }
}

TEST(AtomicWriteDeathTest, KilledMidWriteLeavesOldArtifactIntact) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/BENCH_test.json";
  dimmer::util::write_file_atomic(path, "{\"complete\": \"old\"}\n");

  // The writer stages bytes, then the process is SIGKILLed before commit —
  // the exact failure the atomic recipe exists for.
  EXPECT_EXIT(
      {
        dimmer::util::AtomicFileWriter w(path);
        w.append("{\"complete\": fal");  // torn new contents
        ::raise(SIGKILL);
      },
      ::testing::KilledBySignal(SIGKILL), "");

  EXPECT_EQ(slurp(path), "{\"complete\": \"old\"}\n")
      << "a killed writer must never be visible in the artifact";
  // And the next writer reclaims whatever temp debris the kill left behind.
  dimmer::util::write_file_atomic(path, "{\"complete\": \"new\"}\n");
  EXPECT_EQ(slurp(path), "{\"complete\": \"new\"}\n");
  struct stat st{};
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
}
