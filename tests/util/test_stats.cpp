#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dimmer::util {
namespace {

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  std::vector<double> xs = {1.0, 2.5, -3.0, 7.25, 0.0, 4.5};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  double mean = sum / xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.25);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    double x = std::sin(i * 0.7) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(3.0);
  a.add(5.0);
  double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

// Property test: merging any partition of a sample stream equals a single
// sequential pass. The parallel experiment runner aggregates per-trial
// RunningStats with merge(), so this identity is load-bearing.
TEST(RunningStats, MergeOverArbitrarySplitsEqualsSequentialAdd) {
  Pcg32 rng(0xCAFEu);
  for (int rep = 0; rep < 200; ++rep) {
    const int n = 1 + rng.uniform_int(0, 300);
    std::vector<double> xs(n);
    double scale = std::pow(10.0, rng.uniform_int(-3, 3));
    for (double& x : xs) x = rng.normal(rng.uniform(-5.0, 5.0), 1.0) * scale;

    RunningStats seq;
    for (double x : xs) seq.add(x);

    // Random split into contiguous chunks, one RunningStats each, merged
    // left to right.
    RunningStats merged;
    int i = 0;
    while (i < n) {
      int len = 1 + rng.uniform_int(0, n - i - 1);
      RunningStats part;
      for (int j = 0; j < len; ++j) part.add(xs[i++]);
      merged.merge(part);
    }

    ASSERT_EQ(merged.count(), seq.count());
    double tol = 1e-9 * std::max(1.0, std::abs(seq.mean()));
    ASSERT_NEAR(merged.mean(), seq.mean(), tol);
    double vtol = 1e-9 * std::max(1.0, seq.variance());
    ASSERT_NEAR(merged.variance(), seq.variance(), vtol);
    ASSERT_DOUBLE_EQ(merged.min(), seq.min());
    ASSERT_DOUBLE_EQ(merged.max(), seq.max());
  }
}

TEST(WindowMean, PartialWindow) {
  WindowMean w(4);
  w.add(2.0);
  w.add(4.0);
  EXPECT_EQ(w.count(), 2u);
  EXPECT_FALSE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
}

TEST(WindowMean, EvictsOldestWhenFull) {
  WindowMean w(3);
  for (double x : {1.0, 2.0, 3.0, 10.0}) w.add(x);
  EXPECT_TRUE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);  // {2, 3, 10}
  w.add(11.0);
  EXPECT_DOUBLE_EQ(w.mean(), 8.0);  // {3, 10, 11}
}

TEST(WindowMean, ResetClears) {
  WindowMean w(2);
  w.add(5.0);
  w.reset();
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(WindowMean, ZeroCapacityThrows) {
  EXPECT_THROW(WindowMean(0), RequireError);
}

TEST(Percentile, OrderStatistics) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, InterpolatesBetweenSamples) {
  std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 75), 7.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), RequireError);
  EXPECT_THROW(percentile({1.0}, 101), RequireError);
}

// Reference implementation: the original full-sort version. The selection
// rewrite must be bit-identical to it (same order statistics, same
// interpolation expression), not merely close.
double percentile_by_sort(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(idx);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST(Percentile, RejectsNonFiniteSamples) {
  // Regression: NaN breaks nth_element's strict weak ordering — the old
  // code was UB (in practice: an arbitrary element returned silently). Any
  // non-finite sample must instead fail loudly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)percentile({nan}, 50.0), RequireError);
  EXPECT_THROW((void)percentile({1.0, nan, 3.0}, 50.0), RequireError);
  EXPECT_THROW((void)percentile({1.0, 2.0, inf}, 99.0), RequireError);
  EXPECT_THROW((void)percentile({-inf, 2.0, 3.0}, 0.0), RequireError);
  // Finite samples — including extreme but representable ones — still work.
  EXPECT_EQ(percentile({5.0}, 50.0), 5.0);
  EXPECT_EQ(percentile({1e308, -1e308}, 0.0), -1e308);
}

TEST(Percentile, BitIdenticalToSortBasedReference) {
  Pcg32 rng(404);
  const double ps[] = {0.0, 1.0, 12.5, 25.0, 50.0, 66.6, 90.0, 99.0, 100.0};
  for (std::size_t n : {1u, 2u, 3u, 5u, 10u, 37u, 100u, 1000u}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform(-50.0, 50.0);
    // Duplicates exercise the equal-elements partition path.
    if (n >= 10) v[n / 2] = v[0];
    for (double p : ps) {
      EXPECT_EQ(percentile(v, p), percentile_by_sort(v, p))
          << "n=" << n << " p=" << p;  // exact, not NEAR
    }
  }
}

}  // namespace
}  // namespace dimmer::util
