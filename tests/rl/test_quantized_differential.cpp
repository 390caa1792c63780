// QuantizedMlp's kernel (column-major double layer 0, row-major int64 after
// it) against the frozen row-major int64 inference in reference_quantized,
// bit for bit: Q-values and greedy actions over seeded random networks,
// shapes, scales and inputs (DESIGN.md §17).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "reference_quantized.hpp"
#include "rl/mlp.hpp"
#include "rl/quantized.hpp"
#include "util/rng.hpp"

namespace dimmer::rl {
namespace {

/// A weight or bias that covers the int16 range once quantized: mostly
/// unit-scale values, some exact zeros, values at a rounding half, and
/// values that saturate at 32767 or -32768 under any scale.
double draw_param(util::Pcg32& rng, std::int32_t scale) {
  const double u = rng.uniform();
  if (u < 0.1) return 0.0;
  if (u < 0.2) return rng.bernoulli(0.5) ? 1e6 : -1e6;
  if (u < 0.3)
    return (rng.uniform_int(-300, 300) + 0.5) / static_cast<double>(scale);
  if (u < 0.4) return rng.uniform(-400.0, 400.0);
  return rng.uniform(-1.0, 1.0);
}

Mlp random_net(const std::vector<int>& sizes, std::int32_t scale,
               std::uint64_t seed) {
  Mlp net(sizes, seed);
  util::Pcg32 rng(util::hash_u64(seed, 0x9E7ULL));
  for (DenseLayer& l : net.mutable_layers()) {
    for (double& w : l.w) w = draw_param(rng, scale);
    for (double& b : l.b) b = draw_param(rng, scale);
  }
  return net;
}

/// Inputs in [-1, 1] (the features' range), exact zeros, -0.0, rounding
/// halves, and values that saturate: ±400 and ±1e6.
std::vector<double> draw_input(util::Pcg32& rng, int n, std::int32_t scale) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) {
    const double u = rng.uniform();
    if (u < 0.25)
      v = 0.0;
    else if (u < 0.3)
      v = -0.0;
    else if (u < 0.35)
      v = rng.bernoulli(0.5) ? 400.0 : -400.0;
    else if (u < 0.4)
      v = rng.bernoulli(0.5) ? 1e6 : -1e6;
    else if (u < 0.5)
      v = (rng.uniform_int(-100, 100) + 0.5) / static_cast<double>(scale);
    else
      v = rng.uniform(-1.0, 1.0);
  }
  return x;
}

/// Every input exactly zero, every input 1.0, ±400 or saturated at any
/// scale, and `draws` random inputs: the kernel must match the reference on
/// each.
void expect_matches_reference(const QuantizedMlp& q, std::uint64_t seed,
                              int draws) {
  const auto n = static_cast<std::size_t>(q.layers().front().in);
  std::vector<std::vector<double>> inputs;
  for (double v : {0.0, 1.0, 400.0, -400.0, 1e6, -1e6})
    inputs.emplace_back(n, v);
  util::Pcg32 rng(seed);
  for (int d = 0; d < draws; ++d)
    inputs.push_back(draw_input(rng, static_cast<int>(n), q.scale()));
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const std::vector<double>& x = inputs[k];
    ASSERT_EQ(q.forward_fixed(x), reference::forward_fixed(q, x))
        << "input " << k;
    ASSERT_EQ(q.greedy_action(x), reference::greedy_action(q, x))
        << "input " << k;
  }
}

TEST(QuantizedDifferential, ToFixed16MatchesTheFrozenConversion) {
  util::Pcg32 rng(11);
  for (std::int32_t scale : {1, 7, 100, 1000}) {
    std::vector<double> xs = {0.0,    -0.0,    0.5,   -0.5,  1.5,
                              -1.5,   327.67,  327.68, -327.68, -327.69,
                              1e300,  -1e300,
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::denorm_min()};
    for (int i = 0; i < 2000; ++i) {
      xs.push_back(rng.uniform(-400.0, 400.0));
      xs.push_back((rng.uniform_int(-40000, 40000) + 0.5) /
                   static_cast<double>(scale));
      xs.push_back(rng.uniform(-1.0, 1.0));
    }
    for (double x : xs)
      ASSERT_EQ(util::to_fixed16(x, scale), reference::to_fixed16(x, scale))
          << "x = " << x << ", scale " << scale;
  }
}

TEST(QuantizedDifferential, PaperShapeAcrossScales) {
  // Under scale 49 a multiply by the rounded reciprocal truncates some
  // exact multiples one low: only the division is exact.
  for (std::int32_t scale : {1, 7, 49, 100, 1000}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("scale " + std::to_string(scale) + ", seed " +
                   std::to_string(seed));
      const QuantizedMlp q(random_net({31, 30, 3}, scale, seed), scale);
      expect_matches_reference(q, seed * 31 + 5, 300);
    }
  }
}

TEST(QuantizedDifferential, TrainedLikeWeightsAndFeatureInputs) {
  // He-initialised weights left as they are: unit-scale sums, the regime
  // the deployed policy runs in.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const QuantizedMlp q(Mlp({31, 30, 3}, seed));
    expect_matches_reference(q, seed + 100, 200);
  }
}

TEST(QuantizedDifferential, OneAndThreeLayerNets) {
  for (std::int32_t scale : {1, 100, 1000}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("scale " + std::to_string(scale) + ", seed " +
                   std::to_string(seed));
      expect_matches_reference(
          QuantizedMlp(random_net({5, 3}, scale, seed), scale), seed, 200);
      expect_matches_reference(
          QuantizedMlp(random_net({9, 12, 7, 4}, scale, seed + 50), scale),
          seed, 200);
    }
  }
}

TEST(QuantizedDifferential, LayersWiderThanTheStackScratch) {
  // Inputs, a hidden layer and an output layer wider than 64 each.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_matches_reference(
        QuantizedMlp(random_net({31, 100, 3}, 100, seed)), seed, 100);
    expect_matches_reference(
        QuantizedMlp(random_net({80, 70, 65}, 100, seed + 10)), seed, 100);
  }
}

TEST(QuantizedDifferential, SaturatedWeightsAndBiases) {
  // Every parameter at +32767 or -32768 (chosen per sign), with inputs up
  // to saturation: the largest sums any net of this shape can produce.
  // Under scale 1 the hidden layer's quotients exceed int32 and wrap the
  // way the int64 reference's cast wraps them.
  for (std::int32_t scale : {1, 100, 1000}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("scale " + std::to_string(scale) + ", seed " +
                   std::to_string(seed));
      Mlp net({31, 30, 3}, seed);
      util::Pcg32 rng(seed);
      for (DenseLayer& l : net.mutable_layers()) {
        for (double& w : l.w) w = rng.bernoulli(0.5) ? 1e6 : -1e6;
        for (double& b : l.b) b = rng.bernoulli(0.5) ? 1e6 : -1e6;
      }
      const QuantizedMlp q(net, scale);
      for (const QuantizedLayer& l : q.layers())
        for (std::int16_t w : l.w) ASSERT_TRUE(w == 32767 || w == -32768);
      expect_matches_reference(q, seed, 200);
    }
  }
}

TEST(QuantizedDifferential, TiesGoToTheFirstMaximum) {
  // Output rows 1 and 2 are copies, so their Q-values tie; row 0 is all
  // zero. Whichever of the two is larger than row 0's bias-only value, the
  // greedy action must be 1, and with every output equal it must be 0.
  Mlp net({4, 6, 3}, 3);
  DenseLayer& out = net.mutable_layers()[1];
  for (int i = 0; i < out.in; ++i) {
    out.w[static_cast<std::size_t>(i)] = 0.0;
    out.w[static_cast<std::size_t>(out.in + i)] = 0.5;
    out.w[static_cast<std::size_t>(2 * out.in + i)] = 0.5;
  }
  out.b = {-0.25, 0.1, 0.1};
  const QuantizedMlp q(net);
  util::Pcg32 rng(7);
  for (int t = 0; t < 200; ++t) {
    std::vector<double> x(4);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    const std::vector<std::int32_t> y = q.forward_fixed(x);
    ASSERT_EQ(y[1], y[2]);
    ASSERT_GT(y[1], y[0]);
    ASSERT_EQ(q.greedy_action(x), 1);
    ASSERT_EQ(reference::greedy_action(q, x), 1);
  }
  out.b = {0.0, 0.0, 0.0};
  std::fill(out.w.begin(), out.w.end(), 0.0);
  const QuantizedMlp flat(net);
  EXPECT_EQ(flat.greedy_action({0.3, -0.2, 0.9, 0.0}), 0);
  EXPECT_EQ(reference::greedy_action(flat, {0.3, -0.2, 0.9, 0.0}), 0);
}

}  // namespace
}  // namespace dimmer::rl
