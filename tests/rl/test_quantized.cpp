#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <vector>

#include "rl/quantized.hpp"

namespace dimmer::rl {
namespace {

TEST(QuantizedMlp, PaperFootprint) {
  // The paper's 31 -> 30 -> 3 network: "our DQN uses 2.1 kB to store
  // weights in flash, and 400 B of RAM for intermediary results".
  Mlp net({31, 30, 3}, 1);
  QuantizedMlp q(net);
  EXPECT_EQ(q.flash_bytes(), 2u * (31 * 30 + 30 + 30 * 3 + 3));  // 2106 B
  EXPECT_LE(q.flash_bytes(), 2200u);
  EXPECT_LE(q.ram_bytes(), 400u);
}

TEST(QuantizedMlp, MatchesFloatWithinQuantizationError) {
  Mlp net({10, 12, 3}, 2);
  QuantizedMlp q(net);
  util::Pcg32 rng(3);
  double max_err = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(10);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    auto yf = net.forward(x);
    auto yq = q.forward(x);
    for (std::size_t i = 0; i < yf.size(); ++i)
      max_err = std::max(max_err, std::abs(yf[i] - yq[i]));
  }
  // Per-weight error 0.005, per-input error 0.005: accumulated error stays
  // within a few centi-units for unit-scale nets.
  EXPECT_LT(max_err, 0.25);
}

TEST(QuantizedMlp, GreedyAgreesOnWellSeparatedOutputs) {
  Mlp net({4, 6, 3}, 4);
  QuantizedMlp q(net);
  util::Pcg32 rng(5);
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> x(4);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    auto yf = net.forward(x);
    std::vector<double> sorted = yf;
    std::sort(sorted.begin(), sorted.end());
    double gap = sorted[2] - sorted[1];
    if (gap < 0.3) continue;  // ambiguous under quantization
    int fa = static_cast<int>(
        std::max_element(yf.begin(), yf.end()) - yf.begin());
    EXPECT_EQ(q.greedy_action(x), fa);
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

TEST(QuantizedMlp, IntegerReluClipsNegatives) {
  Mlp net({1, 1, 1}, 1);
  auto& layers = net.mutable_layers();
  layers[0].w = {1.0};
  layers[0].b = {0.0};
  layers[1].w = {1.0};
  layers[1].b = {0.0};
  QuantizedMlp q(net);
  EXPECT_EQ(q.forward_fixed({-0.9})[0], 0);  // ReLU floor in integer path
  EXPECT_EQ(q.forward_fixed({0.5})[0], 50);  // 0.5 at scale 100
}

TEST(QuantizedMlp, SaturatesExtremeWeights) {
  Mlp net({1, 1}, 1);
  net.mutable_layers()[0].w = {1e6};  // saturates at int16 max = 327.67
  net.mutable_layers()[0].b = {0.0};
  QuantizedMlp q(net);
  EXPECT_EQ(q.layers()[0].w[0], 32767);
  // 327.67 * 1.0 (scale 100: 32767 * 100 / 100) = 32767.
  EXPECT_EQ(q.forward_fixed({1.0})[0], 32767);
}

TEST(QuantizedMlp, SaturatedWeightsAccumulateWithoutOverflow) {
  // Every layer-0 weight and bias saturates at 32767, so hidden unit 0 is
  // (32767 + 31 * 32767) * 100 / 100 = 1,048,544; the output multiplies it
  // by another saturated weight: 32767 * 1,048,544 overflows a 32-bit
  // product but not the 64-bit accumulator it goes into.
  Mlp net({31, 30, 3}, 1);
  auto& layers = net.mutable_layers();
  std::fill(layers[0].w.begin(), layers[0].w.end(), 400.0);
  std::fill(layers[0].b.begin(), layers[0].b.end(), 400.0);
  std::fill(layers[1].w.begin(), layers[1].w.end(), 0.0);
  std::fill(layers[1].b.begin(), layers[1].b.end(), 0.0);
  layers[1].w[0] = 400.0;
  QuantizedMlp q(net);
  const std::vector<std::int32_t> want = {343576412, 0, 0};
  EXPECT_EQ(q.forward_fixed(std::vector<double>(31, 1.0)), want);
}

/// The worst-case |accumulator| of each layer of `q` for inputs within
/// [-max_in, max_in] in scale units: |b|·scale + Σ|w|·max|a|, where max|a|
/// is max_in for the first layer and, after it, the previous layer's bound
/// divided by the scale (the activation forward_fixed stores). Every partial
/// sum in any order is bounded by it too.
std::vector<std::int64_t> worst_accumulators(const QuantizedMlp& q,
                                             std::int64_t max_in) {
  std::vector<std::int64_t> worst;
  std::int64_t max_a = max_in;
  for (const QuantizedLayer& l : q.layers()) {
    std::int64_t layer_worst = 0;
    for (int o = 0; o < l.out; ++o) {
      const auto uo = static_cast<std::size_t>(o);
      std::int64_t acc = std::abs(std::int64_t{l.b[uo]}) * q.scale();
      for (int i = 0; i < l.in; ++i)
        acc += std::abs(std::int64_t{l.w[uo * static_cast<std::size_t>(l.in) +
                                         static_cast<std::size_t>(i)]}) *
               max_a;
      layer_worst = std::max(layer_worst, acc);
    }
    worst.push_back(layer_worst);
    max_a = layer_worst / q.scale();
  }
  return worst;
}

TEST(QuantizedMlp, CommittedPolicyAccumulatesWithinInt32) {
  // forward_fixed sums in int64_t. The deployed policy never needs the
  // width: every layer's worst-case sum fits an int32, so an MCU's 32-bit
  // arithmetic computes the same Q-values. For the committed weights the
  // bounds read 109,900 and 1,020,971 over inputs in [-1, 1], and still
  // fit with every input saturated at int16 max.
  std::ifstream in(DIMMER_COMMITTED_POLICY);
  ASSERT_TRUE(in) << DIMMER_COMMITTED_POLICY;
  const QuantizedMlp q(Mlp::load(in));
  ASSERT_EQ(q.layers().size(), 2u);
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  for (std::int64_t max_in :
       {std::int64_t{q.scale()},
        std::int64_t{std::numeric_limits<std::int16_t>::max()}}) {
    SCOPED_TRACE("inputs up to " + std::to_string(max_in));
    for (std::int64_t worst : worst_accumulators(q, max_in)) {
      EXPECT_GT(worst, 0);
      EXPECT_LE(worst, kInt32Max);
    }
  }
}

TEST(QuantizedMlp, RejectsWrongInputSize) {
  Mlp net({4, 3}, 1);
  QuantizedMlp q(net);
  EXPECT_THROW(q.forward_fixed({1.0}), util::RequireError);
}

TEST(QuantizedMlp, RejectsNaNInputs) {
  // A NaN feature (std::clamp in the normalizations passes one through)
  // must not reach the int16 cast.
  const QuantizedMlp q(Mlp({31, 30, 3}, 2));
  std::vector<double> x(31, 0.5);
  x[7] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(q.greedy_action(x), util::RequireError);
  EXPECT_THROW(q.forward_fixed(x), util::RequireError);
  EXPECT_THROW(q.forward(x), util::RequireError);
}

TEST(QuantizedMlp, RejectsNaNParameters) {
  // An in-memory network that diverged: Mlp::load rejects non-finite
  // values, the quantizing constructor must too.
  Mlp net({4, 3, 2}, 1);
  net.mutable_layers()[0].w[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(QuantizedMlp{net}, util::RequireError);
  Mlp biased({4, 3, 2}, 1);
  biased.mutable_layers()[1].b[1] = -std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(QuantizedMlp{biased}, util::RequireError);
}

TEST(QuantizedMlp, CustomScaleImprovesPrecision) {
  Mlp net({6, 8, 2}, 6);
  QuantizedMlp coarse(net, 100);
  QuantizedMlp fine(net, 1000);
  util::Pcg32 rng(7);
  double coarse_err = 0.0, fine_err = 0.0;
  for (int t = 0; t < 100; ++t) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    auto yf = net.forward(x);
    auto yc = coarse.forward(x);
    auto yn = fine.forward(x);
    for (std::size_t i = 0; i < yf.size(); ++i) {
      coarse_err += std::abs(yf[i] - yc[i]);
      fine_err += std::abs(yf[i] - yn[i]);
    }
  }
  EXPECT_LT(fine_err, coarse_err);
}

}  // namespace
}  // namespace dimmer::rl
