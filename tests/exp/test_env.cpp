// Strict parsing of the bench harnesses' environment knobs, which go
// through the shared exp::env_count / exp::env_positive_double parsers.
// Every malformed value must fail loudly instead of silently running a
// sweep at the wrong scale or parallelism. Path knobs treat an empty value
// as unset.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "bench/common.hpp"
#include "util/check.hpp"

namespace dimmer::bench {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(BenchEnv, ScaleIsStrictlyParsed) {
  // Regression: std::atof accepted "0.1x" as 0.1 and turned "0" and "abc"
  // into a silent full-scale (1.0) run.
  ::unsetenv("DIMMER_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(scale(), 1.0);
  {
    ScopedEnv env("DIMMER_BENCH_SCALE", "0.1");
    EXPECT_DOUBLE_EQ(scale(), 0.1);
    EXPECT_EQ(scaled(100), 10);
  }
  for (const char* bad : {"0.1x", "0", "abc", "-2"}) {
    ScopedEnv env("DIMMER_BENCH_SCALE", bad);
    EXPECT_THROW((void)scale(), util::RequireError) << bad;
  }
}

TEST(BenchEnv, ScaledRejectsCountsOutsideInt) {
  // Regression: scaled() cast x * scale + 0.5 to int unchecked. Outside int
  // that is undefined behaviour, and in Release it read as the lower limit,
  // so DIMMER_BENCH_SCALE=20000 trained bench_ablation_tabular for 1 step
  // instead of 2.4e9.
  ScopedEnv env("DIMMER_BENCH_SCALE", "20000");
  EXPECT_EQ(scaled(100000), 2000000000);
  EXPECT_THROW((void)scaled(120000), util::RequireError);
  EXPECT_THROW((void)scaled(-120000), util::RequireError);
  EXPECT_THROW((void)scaled(std::numeric_limits<int>::max()),
               util::RequireError);
}

TEST(BenchEnv, FedWorkersAreStrictlyParsed) {
  // Regression: std::atoi read "2x" as 2 and turned "0" and "-1" into a
  // silent single worker.
  ::unsetenv("DIMMER_FED_WORKERS");
  EXPECT_EQ(fed_workers(), 1);
  {
    ScopedEnv env("DIMMER_FED_WORKERS", "3");
    EXPECT_EQ(fed_workers(), 3);
  }
  for (const char* bad : {"2x", "0", "-1", "1000", "three"}) {
    ScopedEnv env("DIMMER_FED_WORKERS", bad);
    EXPECT_THROW((void)fed_workers(), util::RequireError) << bad;
  }
}

TEST(BenchEnv, EmptyPolicyPathMeansUnset) {
  // Regression: DIMMER_POLICY="" produced an empty cache path, so every
  // figure bench retrained the policy and then failed to write the cache.
  ::unsetenv("DIMMER_POLICY");
  EXPECT_EQ(policy_cache_path(), "dimmer_dqn.mlp");
  {
    ScopedEnv env("DIMMER_POLICY", "");
    EXPECT_EQ(policy_cache_path(), "dimmer_dqn.mlp");
  }
  {
    ScopedEnv env("DIMMER_POLICY", "policies/dqn.mlp");
    EXPECT_EQ(policy_cache_path(), "policies/dqn.mlp");
  }
}

}  // namespace
}  // namespace dimmer::bench
