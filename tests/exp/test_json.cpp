#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/common.hpp"
#include "exp/json.hpp"
#include "util/check.hpp"
#include "util/json_parse.hpp"

namespace dimmer::exp {
namespace {

std::vector<Trial> sample_trials() {
  std::vector<Trial> trials(2);
  trials[0].spec.scenario = "dimmer@15%";
  trials[0].spec.seed = 42;
  trials[0].spec.params["level"] = 0.15;
  trials[0].spec.tags["protocol"] = "dimmer";
  trials[0].result.metrics["reliability"] = 0.9375;  // exact in binary
  trials[0].result.metrics["radio_on_ms"] = 12.3;
  trials[0].result.stats["rel"].add(0.99);
  trials[0].result.stats["rel"].add(0.996);
  trials[0].result.series["n_tx"] = {3, 4, 4, 3};
  trials[0].result.wall_seconds = 1.5;

  trials[1].spec.scenario = "dimmer@15%";
  trials[1].spec.seed = 43;
  trials[1].result.ok = false;
  trials[1].result.error = "died with \"quotes\"\nand newline";
  return trials;
}

TEST(Json, ContainsSchemaAndScenarioAggregates) {
  std::string s = to_json("fig5_levels", sample_trials());
  EXPECT_NE(s.find("\"bench\": \"fig5_levels\""), std::string::npos);
  EXPECT_NE(s.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(s.find("\"dimmer@15%\""), std::string::npos);
  EXPECT_NE(s.find("\"reliability\": 0.9375"), std::string::npos);
  // The failed trial is excluded from aggregates: one ok trial.
  EXPECT_NE(s.find("\"trials\": 1"), std::string::npos);
}

TEST(Json, EscapesErrorStrings) {
  std::string s = to_json("x", sample_trials());
  EXPECT_NE(s.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(s.find("\\n"), std::string::npos);
  EXPECT_EQ(s.find('\r'), std::string::npos);
}

TEST(Json, TimingFieldsAreOptional) {
  JsonOptions with{.include_timing = true, .jobs = 8, .wall_seconds = 3.25};
  JsonOptions without{.include_timing = false};
  std::string a = to_json("x", sample_trials(), with);
  std::string b = to_json("x", sample_trials(), without);
  EXPECT_NE(a.find("\"jobs\": 8"), std::string::npos);
  EXPECT_NE(a.find("\"wall_seconds\": 3.25"), std::string::npos);
  EXPECT_EQ(b.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(b.find("jobs"), std::string::npos);
  // Timing is opt-in: the default options give the timing-free output.
  EXPECT_EQ(to_json("x", sample_trials()), b);
}

// The frozen scalar artifacts are what CI compares each figure bench's
// output against with cmp, so each must be the timing-free to_json output:
// well-formed JSON without jobs or wall_seconds.
TEST(Json, CheckedInExpectationsAreValidJson) {
  for (const char* bench : {"ablation_reward", "ablation_tabular",
                            "fault_recovery", "fig4_dynamic", "fig5_levels",
                            "fig7_dcube"}) {
    const std::string path = std::string(DIMMER_EXPECTATIONS_DIR) +
                             "/BENCH_" + bench + ".json";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::ostringstream text;
    text << in.rdbuf();
    util::json::Value doc;
    ASSERT_NO_THROW(doc = util::json::parse(text.str())) << path;
    EXPECT_EQ(doc.at("bench").as_string(), bench) << path;
    EXPECT_EQ(doc.find("jobs"), nullptr) << path;
    EXPECT_EQ(doc.find("wall_seconds"), nullptr) << path;
  }
}

// perf/trajectory.jsonl holds one JSON object per perf-affecting change,
// one per line. Only the last line may have a null "commit": a change
// cannot name its own commit, and the next one fills it in.
TEST(Json, PerfTrajectoryLinesAreValidJson) {
  std::ifstream in(DIMMER_TRAJECTORY_FILE);
  ASSERT_TRUE(in) << DIMMER_TRAJECTORY_FILE;
  std::string line;
  int n = 0;
  int last_null_commit = 0;
  while (std::getline(in, line)) {
    ++n;
    EXPECT_EQ(last_null_commit, 0)
        << "line " << last_null_commit << " has a null commit but is not last";
    util::json::Value doc;
    ASSERT_NO_THROW(doc = util::json::parse(line)) << "line " << n;
    EXPECT_NE(doc.find("pr"), nullptr) << "line " << n;
    EXPECT_NE(doc.find("medians"), nullptr) << "line " << n;
    const util::json::Value* commit = doc.find("commit");
    ASSERT_NE(commit, nullptr) << "line " << n;
    using Kind = util::json::Value::Kind;
    if (commit->kind() == Kind::kNull) {
      last_null_commit = n;
    } else {
      EXPECT_EQ(commit->kind(), Kind::kString) << "line " << n;
    }
  }
  EXPECT_GT(n, 0);
}

TEST(Json, SerializationIsDeterministic) {
  JsonOptions opt{.include_timing = false};
  EXPECT_EQ(to_json("x", sample_trials(), opt),
            to_json("x", sample_trials(), opt));
}

TEST(Json, DoublesRoundTripExactly) {
  std::vector<Trial> trials(1);
  trials[0].spec.scenario = "s";
  double v = 0.1 + 0.2;  // 0.30000000000000004
  trials[0].result.metrics["v"] = v;
  std::string s = to_json("x", trials, {.include_timing = false});
  auto pos = s.find("\"v\": ");
  ASSERT_NE(pos, std::string::npos);
  double back = std::strtod(s.c_str() + pos + 5, nullptr);
  EXPECT_EQ(back, v);
}

// The merged registry section sits at top level (two-space indent); the
// pre-existing per-trial "metrics" maps are indented deeper and unaffected.
constexpr const char* kTopLevelMetrics = "\n  \"metrics\": {";

TEST(Json, MetricsSectionOmittedWhenNoRegistryData) {
  std::string s = to_json("x", sample_trials());
  EXPECT_EQ(s.find(kTopLevelMetrics), std::string::npos);
  EXPECT_NE(s.find("\"schema_version\": 1"), std::string::npos);
}

TEST(Json, MetricsSectionMergesTrialRegistries) {
  std::vector<Trial> trials = sample_trials();
  trials[0].result.registry.counter("flood.runs") += 30;
  trials[0].result.registry.histogram("protocol.reliability", {0.9, 0.99})
      .add(0.95);

  std::vector<Trial> more(1);
  more[0].spec.scenario = "dimmer@30%";
  more[0].result.registry.counter("flood.runs") += 12;
  more[0].result.registry.histogram("protocol.reliability", {0.9, 0.99})
      .add(1.0);
  trials.push_back(more[0]);

  std::string s = to_json("x", trials, {.include_timing = false});
  EXPECT_NE(s.find(kTopLevelMetrics), std::string::npos);
  EXPECT_NE(s.find("\"flood.runs\": 42"), std::string::npos);  // 30 + 12
  EXPECT_NE(s.find("\"protocol.reliability\""), std::string::npos);

  // Failed trials contribute no metrics.
  trials[1].result.registry.counter("flood.runs") += 1000;
  std::string s2 = to_json("x", trials, {.include_timing = false});
  EXPECT_NE(s2.find("\"flood.runs\": 42"), std::string::npos);
}

TEST(Json, WriteJsonHonoursOutputDirEnv) {
  // A bench hands DIMMER_BENCH_OUT, as bench::parse_env read it, to
  // write_json as JsonOptions::dir; with or without a trailing slash, the
  // artifact lands in that directory.
  const char* envp[] = {"DIMMER_BENCH_OUT=/tmp", nullptr};
  const std::string dir = bench::parse_env(envp).out;
  for (const std::string& d : {dir, dir + "/"}) {
    ASSERT_TRUE(write_json("unit", sample_trials(), {.dir = d})) << d;
    std::ifstream f("/tmp/BENCH_unit.json");
    ASSERT_TRUE(f.good()) << d;
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_EQ(ss.str(), to_json("unit", sample_trials())) << d;
    std::remove("/tmp/BENCH_unit.json");
  }
}

TEST(Json, WriteJsonToUnwritableDirFailsGracefully) {
  // A missing directory, and a file where the directory should be.
  const std::string file = "/tmp/dimmer_json_not_a_dir";
  std::ofstream(file) << "x";
  for (const std::string& dir : {std::string("/tmp/no/such/dir"), file}) {
    // A bad output dir must not throw/abort: the sweep's results have
    // already been printed by the time the artifact is written. (A bench
    // checks DIMMER_BENCH_OUT before its sweep: bench::parse_env.)
    EXPECT_FALSE(write_json("unit", sample_trials(), {.dir = dir})) << dir;
  }
  std::remove(file.c_str());
  EXPECT_TRUE(write_json("unit", sample_trials()));  // default dir "."
  std::remove("BENCH_unit.json");
}

}  // namespace
}  // namespace dimmer::exp
