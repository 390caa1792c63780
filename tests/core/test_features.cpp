#include <gtest/gtest.h>


#include "util/check.hpp"
#include "util/rng.hpp"
#include "core/features.hpp"

namespace dimmer::core {
namespace {

GlobalSnapshot healthy_snapshot(int n, std::uint64_t round = 3) {
  GlobalSnapshot snap(n);
  snap.current_round = round;
  for (int i = 0; i < n; ++i) {
    auto& e = snap.entries[static_cast<std::size_t>(i)];
    e.reliability = 1.0;
    e.radio_on_ms = 7.5;
    e.round = round;
    e.ever_heard = true;
  }
  return snap;
}

TEST(FeatureBuilder, PaperInputSizeIs31) {
  FeatureBuilder fb(FeatureConfig{});  // K=10, M=2, N_max=8
  EXPECT_EQ(fb.input_size(), 31);
}

TEST(FeatureBuilder, SizeFormulaHolds) {
  for (int k : {1, 5, 18}) {
    for (int m : {0, 2, 4}) {
      FeatureConfig cfg;
      cfg.k = k;
      cfg.history = m;
      EXPECT_EQ(FeatureBuilder(cfg).input_size(), 2 * k + 9 + m);
    }
  }
}

TEST(FeatureBuilder, NormalizationEndpoints) {
  // Table I: radio [0, 20 ms] -> [-1, 1].
  EXPECT_DOUBLE_EQ(FeatureBuilder::normalize_radio_on(0.0, 20.0), -1.0);
  EXPECT_DOUBLE_EQ(FeatureBuilder::normalize_radio_on(10.0, 20.0), 0.0);
  EXPECT_DOUBLE_EQ(FeatureBuilder::normalize_radio_on(20.0, 20.0), 1.0);
  EXPECT_DOUBLE_EQ(FeatureBuilder::normalize_radio_on(25.0, 20.0), 1.0);
  // Reliability [50, 100%] -> [-1, 1]; "below 50% [reads] -1".
  EXPECT_DOUBLE_EQ(FeatureBuilder::normalize_reliability(1.0), 1.0);
  EXPECT_DOUBLE_EQ(FeatureBuilder::normalize_reliability(0.75), 0.0);
  EXPECT_DOUBLE_EQ(FeatureBuilder::normalize_reliability(0.5), -1.0);
  EXPECT_DOUBLE_EQ(FeatureBuilder::normalize_reliability(0.2), -1.0);
}

TEST(FeatureBuilder, SelectsLowestReliabilityNodes) {
  FeatureConfig cfg;
  cfg.k = 2;
  FeatureBuilder fb(cfg);
  GlobalSnapshot snap = healthy_snapshot(6);
  snap.entries[3].reliability = 0.6;
  snap.entries[5].reliability = 0.8;
  LossHistory hist;
  auto x = fb.build(snap, 3, hist);
  // Reliability rows are at positions [k, 2k): worst first.
  EXPECT_DOUBLE_EQ(x[2], FeatureBuilder::normalize_reliability(0.6));
  EXPECT_DOUBLE_EQ(x[3], FeatureBuilder::normalize_reliability(0.8));
}

TEST(FeatureBuilder, StaleFeedbackIsPessimistic) {
  FeatureConfig cfg;
  cfg.k = 1;
  FeatureBuilder fb(cfg);
  GlobalSnapshot snap = healthy_snapshot(4, /*round=*/10);
  snap.entries[2].round = 8;  // stale (freshness window = 1 round)
  LossHistory hist;
  auto x = fb.build(snap, 3, hist);
  EXPECT_DOUBLE_EQ(x[0], 1.0);   // radio pessimistic: 20 ms -> +1
  EXPECT_DOUBLE_EQ(x[1], -1.0);  // reliability pessimistic: 0% -> -1
}

TEST(FeatureBuilder, FreshnessWindowWidens) {
  FeatureConfig cfg;
  cfg.k = 1;
  FeatureBuilder fb(cfg);
  GlobalSnapshot snap = healthy_snapshot(4, 10);
  snap.freshness_rounds = 3;
  snap.entries[2].round = 8;  // within 3 rounds: still fresh
  LossHistory hist;
  auto x = fb.build(snap, 3, hist);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(FeatureBuilder, NeverHeardIsPessimistic) {
  FeatureConfig cfg;
  cfg.k = 1;
  FeatureBuilder fb(cfg);
  GlobalSnapshot snap = healthy_snapshot(3);
  snap.entries[1].ever_heard = false;
  LossHistory hist;
  auto x = fb.build(snap, 3, hist);
  EXPECT_DOUBLE_EQ(x[1], -1.0);
}

TEST(FeatureBuilder, UnaccountedNodesAreSkipped) {
  FeatureConfig cfg;
  cfg.k = 2;
  FeatureBuilder fb(cfg);
  GlobalSnapshot snap = healthy_snapshot(5);
  snap.entries[0].reliability = 0.1;   // terrible, but unaccounted
  snap.entries[0].accounted = false;
  snap.entries[4].reliability = 0.9;
  LossHistory hist;
  auto x = fb.build(snap, 3, hist);
  // Worst accounted node is 4 at 0.9; node 0 must not appear.
  EXPECT_DOUBLE_EQ(x[2], FeatureBuilder::normalize_reliability(0.9));
  EXPECT_DOUBLE_EQ(x[3], FeatureBuilder::normalize_reliability(1.0));
}

TEST(FeatureBuilder, CyclicPaddingRepeatsWorstRows) {
  FeatureConfig cfg;
  cfg.k = 5;
  FeatureBuilder fb(cfg);
  GlobalSnapshot snap = healthy_snapshot(2);
  snap.entries[1].reliability = 0.7;
  LossHistory hist;
  auto x = fb.build(snap, 3, hist);
  // Two real rows (0.7 then 1.0), repeated cyclically: 0.7 1.0 0.7 1.0 0.7.
  double lo = FeatureBuilder::normalize_reliability(0.7);
  EXPECT_DOUBLE_EQ(x[5], lo);
  EXPECT_DOUBLE_EQ(x[6], 1.0);
  EXPECT_DOUBLE_EQ(x[7], lo);
  EXPECT_DOUBLE_EQ(x[8], 1.0);
  EXPECT_DOUBLE_EQ(x[9], lo);
}

TEST(FeatureBuilder, OneHotEncodesCurrentN) {
  FeatureBuilder fb(FeatureConfig{});
  GlobalSnapshot snap = healthy_snapshot(18);
  LossHistory hist;
  for (int n = 0; n <= 8; ++n) {
    auto x = fb.build(snap, n, hist);
    for (int v = 0; v <= 8; ++v)
      EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(20 + v)],
                       v == n ? 1.0 : 0.0);
  }
}

TEST(FeatureBuilder, HistoryBitsAndColdStart) {
  FeatureBuilder fb(FeatureConfig{});  // M = 2
  GlobalSnapshot snap = healthy_snapshot(18);
  LossHistory hist = {false};  // one round known, losses
  auto x = fb.build(snap, 3, hist);
  EXPECT_DOUBLE_EQ(x[29], -1.0);  // most recent round had losses
  EXPECT_DOUBLE_EQ(x[30], 1.0);   // unknown history treated as lossless
}

TEST(FeatureBuilder, RejectsOutOfRangeN) {
  FeatureBuilder fb(FeatureConfig{});
  GlobalSnapshot snap = healthy_snapshot(18);
  LossHistory hist;
  EXPECT_THROW(fb.build(snap, -1, hist), util::RequireError);
  EXPECT_THROW(fb.build(snap, 9, hist), util::RequireError);
}

TEST(FeatureBuilder, RejectsBadConfig) {
  FeatureConfig cfg;
  cfg.k = 0;
  EXPECT_THROW(FeatureBuilder{cfg}, util::RequireError);
  cfg = FeatureConfig{};
  cfg.history = -1;
  EXPECT_THROW(FeatureBuilder{cfg}, util::RequireError);
  cfg.history = LossHistory::kMaxDepth + 1;
  EXPECT_THROW(FeatureBuilder{cfg}, util::RequireError);
  cfg.history = LossHistory::kMaxDepth;
  EXPECT_NO_THROW(FeatureBuilder{cfg});
}

TEST(LossHistory, MostRecentFirstAndUnseenRoundsLossless) {
  LossHistory h;
  for (int m = 0; m < LossHistory::kMaxDepth + 3; ++m) EXPECT_TRUE(h.lossless(m));
  h.shift_in(false);
  h.shift_in(true);
  EXPECT_TRUE(h.lossless(0));
  EXPECT_FALSE(h.lossless(1));
  EXPECT_TRUE(h.lossless(2));
  const LossHistory listed = {true, false};
  for (int m = 0; m < 4; ++m) EXPECT_EQ(listed.lossless(m), h.lossless(m));
  h.clear();
  EXPECT_TRUE(h.lossless(1));
  // A round shifted out past the depth is forgotten.
  h.shift_in(false);
  for (int m = 0; m < LossHistory::kMaxDepth; ++m) h.shift_in(true);
  for (int m = 0; m <= LossHistory::kMaxDepth; ++m) EXPECT_TRUE(h.lossless(m));
}

// Property: every feature is in [-1, 1] for arbitrary snapshots.
class FeatureRangeProperty : public ::testing::TestWithParam<int> {};

TEST_P(FeatureRangeProperty, AllFeaturesNormalized) {
  util::Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  FeatureBuilder fb(FeatureConfig{});
  GlobalSnapshot snap(18);
  snap.current_round = 5;
  for (auto& e : snap.entries) {
    e.reliability = rng.uniform();
    e.radio_on_ms = rng.uniform(0.0, 25.0);
    e.round = rng.bernoulli(0.8) ? 5 : 3;
    e.ever_heard = rng.bernoulli(0.9);
  }
  LossHistory hist = {rng.bernoulli(0.5), rng.bernoulli(0.5)};
  auto x = fb.build(snap, rng.uniform_int(0, 8), hist);
  for (double v : x) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeatureRangeProperty,
                         ::testing::Range(1, 12));

}  // namespace
}  // namespace dimmer::core
