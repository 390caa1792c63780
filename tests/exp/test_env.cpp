// bench::parse_env, the one reader of the benches' DIMMER_* knobs, driven
// by fake environment arrays. Every malformed value must fail loudly,
// naming its variable, instead of silently running a sweep at the wrong
// scale or parallelism. Path knobs treat an empty value as unset and need a
// writable directory; any other DIMMER_* name is rejected.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <fstream>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "util/check.hpp"

namespace dimmer::bench {
namespace {

/// parse_env over `vars`, passed as a null-terminated "NAME=value" array.
Env parse(std::initializer_list<std::string> vars) {
  std::vector<const char*> envp;
  for (const std::string& v : vars) envp.push_back(v.c_str());
  envp.push_back(nullptr);
  return parse_env(envp.data());
}

/// What parse_env throws for `vars`, or "" when it accepts them.
std::string rejection(std::initializer_list<std::string> vars) {
  try {
    static_cast<void>(parse(vars));
  } catch (const util::RequireError& e) {
    return e.what();
  }
  return "";
}

/// Every value in `bad` is rejected for `name`, and the error names it.
void expect_rejected(const std::string& name,
                     std::initializer_list<const char*> bad) {
  for (const char* v : bad) {
    const std::string what = rejection({name + "=" + v});
    EXPECT_NE(what.find(name), std::string::npos)
        << name << "=\"" << v << "\" must be rejected, naming " << name
        << "; got \"" << what << "\"";
  }
}

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "dimmer_env_XXXXXX";
  EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

TEST(BenchEnv, UnsetKnobsTakeTheirDefaults) {
  // Names outside DIMMER_* are not the bench's business.
  for (const Env& env :
       {parse({}), parse({"PATH=/usr/bin", "DIMMERJOBS=3", "dimmer_jobs=3",
                          "NOT_DIMMER_JOBS=x"})}) {
    EXPECT_EQ(env.scale, 1.0);
    EXPECT_EQ(env.jobs, 0);
    EXPECT_EQ(env.trial_timeout_s, 0.0);
    EXPECT_EQ(env.fed_workers, 1);
    EXPECT_EQ(env.policy, "dimmer_dqn.mlp");
    EXPECT_EQ(env.out, ".");
    EXPECT_EQ(env.campaign_dir, "");
    EXPECT_EQ(env.campaign_shards, 1);
    EXPECT_EQ(env.campaign_abort_after, 0);
    EXPECT_EQ(env.trace, "");
  }
  EXPECT_EQ(parse_env(nullptr).jobs, 0);
}

TEST(BenchEnv, ScaleIsStrictlyParsed) {
  // Regression: std::atof accepted "0.1x" as 0.1 and turned "0" and "abc"
  // into a silent full-scale (1.0) run.
  const Env env = parse({"DIMMER_BENCH_SCALE=0.1"});
  EXPECT_DOUBLE_EQ(env.scale, 0.1);
  EXPECT_EQ(env.scaled(100), 10);
  expect_rejected("DIMMER_BENCH_SCALE",
                  {"0.1x", "0", "abc", "-2", "nan", "inf", ""});
}

TEST(BenchEnv, ScaledRejectsCountsOutsideInt) {
  // Regression: scaled() cast x * scale + 0.5 to int unchecked. Outside int
  // that is undefined behaviour, and in Release it read as the lower limit,
  // so DIMMER_BENCH_SCALE=20000 trained bench_ablation_tabular for 1 step
  // instead of 2.4e9.
  const Env env = parse({"DIMMER_BENCH_SCALE=20000"});
  EXPECT_EQ(env.scaled(100000), 2000000000);
  EXPECT_THROW((void)env.scaled(120000), util::RequireError);
  EXPECT_THROW((void)env.scaled(-120000), util::RequireError);
  EXPECT_THROW((void)env.scaled(std::numeric_limits<int>::max()),
               util::RequireError);
}

// DIMMER_JOBS is the benches' Runner worker count.
TEST(Runner, JobsFromEnvParsesOverride) {
  EXPECT_EQ(parse({"DIMMER_JOBS=3"}).jobs, 3);
  EXPECT_EQ(parse({"DIMMER_JOBS=64"}).jobs, 64);
  EXPECT_EQ(exp::Runner({.jobs = parse({"DIMMER_JOBS=3"}).jobs}).jobs(), 3);
  // Unset is jobs 0, which the Runner resolves to hardware concurrency.
  EXPECT_EQ(parse({}).jobs, 0);
  EXPECT_GE(exp::Runner({.jobs = parse({}).jobs}).jobs(), 1);
}

TEST(Runner, JobsFromEnvRejectsMalformedValues) {
  // Regression: the old std::atoi parse silently accepted trailing garbage
  // ("8x" ran 8 jobs), read hex-looking values as their decimal prefix
  // ("0x10" -> 0 -> silent hardware fallback), and was UB on out-of-range
  // input. Every malformed override must now fail loudly instead of running
  // a sweep at an unintended parallelism.
  expect_rejected("DIMMER_JOBS",
                  {"8x", "0x10", "garbage", "", " 8", "3.5", "1e2", "0", "-2",
                   "2147483648", "99999999999999999999"});
}

TEST(BenchEnv, TrialTimeoutIsStrictlyParsed) {
  EXPECT_DOUBLE_EQ(parse({"DIMMER_TRIAL_TIMEOUT_S=2.5"}).trial_timeout_s, 2.5);
  expect_rejected("DIMMER_TRIAL_TIMEOUT_S",
                  {"abc", "-1", "0", " 5", "5s", "inf", "nan"});
}

TEST(BenchEnv, FedWorkersAreStrictlyParsed) {
  // Regression: std::atoi read "2x" as 2 and turned "0" and "-1" into a
  // silent single worker.
  EXPECT_EQ(parse({"DIMMER_FED_WORKERS=3"}).fed_workers, 3);
  expect_rejected("DIMMER_FED_WORKERS", {"2x", "0", "-1", "1000", "three"});
}

TEST(BenchEnv, CampaignShardsAreStrictlyParsed) {
  EXPECT_EQ(parse({"DIMMER_CAMPAIGN_SHARDS=8"}).campaign_shards, 8);
  expect_rejected("DIMMER_CAMPAIGN_SHARDS", {"0", "-2", "1000", "two"});
}

TEST(BenchEnv, CampaignAbortAfterIsStrictlyParsed) {
  EXPECT_EQ(parse({"DIMMER_CAMPAIGN_ABORT_AFTER=4"}).campaign_abort_after, 4);
  expect_rejected("DIMMER_CAMPAIGN_ABORT_AFTER", {"0", "-1", "4x", ""});
}

TEST(BenchEnv, EmptyPolicyPathMeansUnset) {
  // Regression: DIMMER_POLICY="" produced an empty cache path, so every
  // figure bench retrained the policy and then failed to write the cache.
  EXPECT_EQ(parse({"DIMMER_POLICY="}).policy, "dimmer_dqn.mlp");
  EXPECT_EQ(parse({"DIMMER_POLICY=policies/dqn.mlp"}).policy,
            "policies/dqn.mlp");
  // The other path knobs: empty is unset too.
  const Env env =
      parse({"DIMMER_BENCH_OUT=", "DIMMER_TRACE=", "DIMMER_CAMPAIGN_DIR="});
  EXPECT_EQ(env.out, ".");
  EXPECT_EQ(env.trace, "");
  EXPECT_EQ(env.campaign_dir, "");
}

TEST(BenchEnv, OutputDirMustBeAWritableDirectory) {
  // Checked before the bench body, so a bad directory fails at once rather
  // than after the sweep (exp::write_json would only return false then).
  const std::string dir = make_temp_dir();
  EXPECT_EQ(parse({"DIMMER_BENCH_OUT=" + dir}).out, dir);
  const std::string file = dir + "/not_a_dir";
  std::ofstream(file) << "x";
  expect_rejected("DIMMER_BENCH_OUT", {"/nonexistent-dimmer-dir"});
  EXPECT_NE(rejection({"DIMMER_BENCH_OUT=" + file}).find("DIMMER_BENCH_OUT"),
            std::string::npos);
}

TEST(BenchEnv, TraceAndCampaignDirNeedAWritableParent) {
  // The file and the campaign directory need not exist yet; the directory
  // they go into must, so a policy bench cannot train for minutes first and
  // fail on the path afterwards.
  const std::string dir = make_temp_dir();
  const std::string file = dir + "/not_a_dir";
  std::ofstream(file) << "x";
  for (const char* name : {"DIMMER_TRACE", "DIMMER_CAMPAIGN_DIR"}) {
    const std::string knob = std::string(name) + "=";
    for (const std::string& ok :
         {dir + "/new", dir + "/new/", std::string("relative-name")})
      EXPECT_EQ(rejection({knob + ok}), "") << name << "=" << ok;
    for (const std::string& bad :
         {std::string("/nonexistent-dimmer-dir/x"), file + "/x"})
      EXPECT_NE(rejection({knob + bad}).find(name), std::string::npos)
          << name << "=" << bad;
  }
  const Env env = parse({"DIMMER_TRACE=" + dir + "/t.jsonl",
                         "DIMMER_CAMPAIGN_DIR=" + dir + "/campaign"});
  EXPECT_EQ(env.trace, dir + "/t.jsonl");
  EXPECT_EQ(env.campaign_dir, dir + "/campaign");
}

TEST(BenchEnv, UnknownDimmerNamesAreRejected) {
  // A misspelt knob used to be ignored without a word. The campaign's
  // worker-kill hook is a CampaignOptions field now, not a knob.
  for (const char* name :
       {"DIMMER_JOB", "DIMMER_CAMPAIGN_KILL_AFTER", "DIMMER_jobs", "DIMMER_",
        "DIMMER_TRACE_FILE"}) {
    EXPECT_EQ(rejection({std::string(name) + "=4"}),
              std::string("unknown environment variable ") + name);
  }
  // Even next to valid knobs, and without a value.
  EXPECT_EQ(rejection({"DIMMER_JOBS=2", "DIMMER_SCALE"}),
            "unknown environment variable DIMMER_SCALE");
}

}  // namespace
}  // namespace dimmer::bench
