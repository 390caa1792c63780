#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "rl/mlp.hpp"

namespace dimmer::rl {
namespace {

TEST(Mlp, ShapesAndSizes) {
  Mlp net({31, 30, 3}, 1);
  EXPECT_EQ(net.input_size(), 31);
  EXPECT_EQ(net.output_size(), 3);
  EXPECT_EQ(net.parameter_count(), 31u * 30 + 30 + 30 * 3 + 3);
  EXPECT_EQ(net.layers().size(), 2u);
  EXPECT_TRUE(net.layers()[0].relu);
  EXPECT_FALSE(net.layers()[1].relu);
}

TEST(Mlp, RejectsBadArchitecture) {
  EXPECT_THROW(Mlp({5}, 1), util::RequireError);
  EXPECT_THROW(Mlp({5, 0, 3}, 1), util::RequireError);
}

TEST(Mlp, ForwardRejectsWrongInputSize) {
  Mlp net({4, 3, 2}, 1);
  EXPECT_THROW(net.forward({1.0, 2.0}), util::RequireError);
}

TEST(Mlp, DeterministicInitialization) {
  Mlp a({8, 6, 2}, 7), b({8, 6, 2}, 7);
  std::vector<double> x = {1, -1, 0.5, 0, 0.2, -0.7, 0.9, 0.1};
  EXPECT_EQ(a.forward(x), b.forward(x));
  Mlp c({8, 6, 2}, 8);
  EXPECT_NE(a.forward(x), c.forward(x));
}

TEST(Mlp, ReluIsAppliedToHiddenLayer) {
  Mlp net({1, 1, 1}, 1);
  auto& layers = net.mutable_layers();
  layers[0].w = {1.0};
  layers[0].b = {0.0};
  layers[1].w = {1.0};
  layers[1].b = {0.0};
  EXPECT_DOUBLE_EQ(net.forward({2.0})[0], 2.0);
  EXPECT_DOUBLE_EQ(net.forward({-2.0})[0], 0.0);  // clipped by ReLU
}

TEST(Mlp, BackwardMatchesNumericalGradient) {
  Mlp net({3, 4, 2}, 3);
  std::vector<double> x = {0.5, -0.3, 0.8};
  // Loss = sum of outputs (dLoss/dOut = ones).
  auto loss = [&](const Mlp& m) {
    auto y = m.forward(x);
    return y[0] + y[1];
  };
  ForwardCache cache;
  net.forward_cached(x, cache);
  auto grads = net.make_grads();
  net.backward(cache, {1.0, 1.0}, grads);

  const double eps = 1e-6;
  Mlp probe = net;
  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    for (std::size_t wi = 0; wi < net.layers()[li].w.size(); wi += 3) {
      probe.copy_parameters_from(net);
      probe.mutable_layers()[li].w[wi] += eps;
      double up = loss(probe);
      probe.mutable_layers()[li].w[wi] -= 2 * eps;
      double dn = loss(probe);
      double numeric = (up - dn) / (2 * eps);
      EXPECT_NEAR(grads[li].dw[wi], numeric, 1e-5)
          << "layer " << li << " weight " << wi;
    }
    for (std::size_t bi = 0; bi < net.layers()[li].b.size(); ++bi) {
      probe.copy_parameters_from(net);
      probe.mutable_layers()[li].b[bi] += eps;
      double up = loss(probe);
      probe.mutable_layers()[li].b[bi] -= 2 * eps;
      double dn = loss(probe);
      EXPECT_NEAR(grads[li].db[bi], (up - dn) / (2 * eps), 1e-5);
    }
  }
}

TEST(Mlp, AdamFitsSimpleRegression) {
  // Learn y = 2x - 1 on [-1, 1].
  Mlp net({1, 16, 1}, 5);
  Adam adam(net, Adam::Config{0.01, 0.9, 0.999, 1e-8});
  util::Pcg32 rng(6);
  auto grads = net.make_grads();
  ForwardCache cache;
  for (int step = 0; step < 2000; ++step) {
    Mlp::zero_grads(grads);
    double se = 0.0;
    for (int b = 0; b < 8; ++b) {
      double x = rng.uniform(-1.0, 1.0);
      double target = 2.0 * x - 1.0;
      auto y = net.forward_cached({x}, cache);
      double err = y[0] - target;
      se += err * err;
      net.backward(cache, {2.0 * err}, grads);
    }
    adam.step(net, grads, 1.0 / 8.0);
    (void)se;
  }
  double mse = 0.0;
  for (double x = -1.0; x <= 1.0; x += 0.1) {
    double err = net.forward({x})[0] - (2.0 * x - 1.0);
    mse += err * err;
  }
  EXPECT_LT(mse / 21.0, 1e-3);
}

TEST(Mlp, SaveLoadRoundTripPreservesOutputs) {
  Mlp net({5, 7, 3}, 9);
  std::stringstream ss;
  net.save(ss);
  Mlp loaded = Mlp::load(ss);
  std::vector<double> x = {0.1, -0.2, 0.3, -0.4, 0.5};
  auto a = net.forward(x);
  auto b = loaded.forward(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Mlp, LoadRejectsGarbage) {
  std::stringstream ss("not-a-net 1\n");
  EXPECT_THROW(Mlp::load(ss), util::RequireError);
}

TEST(Mlp, LoadRejectsTruncatedStream) {
  Mlp net({5, 7, 3}, 9);
  std::stringstream full;
  net.save(full);
  std::string text = full.str();
  // Cut at several depths: mid-header, mid-layer-header, mid-weights.
  for (std::size_t cut : {std::size_t{4}, text.size() / 4, text.size() / 2,
                          text.size() - 3}) {
    std::stringstream ss(text.substr(0, cut));
    EXPECT_THROW(Mlp::load(ss), util::RequireError) << "cut at " << cut;
  }
}

TEST(Mlp, LoadRejectsBadLayerHeader) {
  // in = 0 is not a layer.
  std::stringstream zero("dimmer-mlp 1\n1\n0 3 1\n");
  EXPECT_THROW(Mlp::load(zero), util::RequireError);
  // Absurd width (a corrupt count would otherwise allocate gigabytes).
  std::stringstream huge("dimmer-mlp 1\n1\n2 999999999 0\n");
  EXPECT_THROW(Mlp::load(huge), util::RequireError);
  // relu flag must be 0 or 1.
  std::stringstream relu("dimmer-mlp 1\n1\n2 1 7\n1 1\n0\n");
  EXPECT_THROW(Mlp::load(relu), util::RequireError);
}

TEST(Mlp, LoadOfHeaderOnlyStreamThrowsRequireError) {
  // The largest header the width check admits claims 2^32 weights (32 GiB)
  // with none behind it: memory must follow the values read, and the
  // truncation must surface as the documented error, not std::bad_alloc.
  std::stringstream ss("dimmer-mlp 1\n1\n65536 65536 0\n");
  EXPECT_THROW(Mlp::load(ss), util::RequireError);
}

TEST(Mlp, LoadRejectsMismatchedLayerChain) {
  // Layer 0 outputs 3 but layer 1 claims 4 inputs: a spliced/corrupt file.
  std::stringstream ss(
      "dimmer-mlp 1\n2\n"
      "2 3 1\n1 1 1 1 1 1\n0 0 0\n"
      "4 1 0\n1 1 1 1\n0\n");
  EXPECT_THROW(Mlp::load(ss), util::RequireError);
}

TEST(Mlp, LoadRejectsNonFiniteWeights) {
  // Whether the platform's stream parser accepts "nan"/"1e999" (yielding a
  // non-finite double) or chokes on it (failbit), the load must throw —
  // never hand back a net that outputs NaN.
  for (const char* bad : {"nan", "inf", "1e999"}) {
    std::stringstream ss(std::string("dimmer-mlp 1\n1\n2 1 0\n") + bad +
                         " 0.5\n0.25\n");
    EXPECT_THROW(Mlp::load(ss), util::RequireError) << bad;
  }
}

TEST(Mlp, FailedLoadDoesNotDisturbStreamlessState) {
  // load is a static factory: a throw must not leak a half-built net.
  // (Exercise it repeatedly to let ASan catch any leak/UB on the path.)
  for (int i = 0; i < 8; ++i) {
    std::stringstream ss("dimmer-mlp 1\n1\n2 1 0\n0.5\n");  // truncated
    EXPECT_THROW(Mlp::load(ss), util::RequireError);
  }
}

TEST(Mlp, CopyParametersRequiresSameShape) {
  Mlp a({4, 3, 2}, 1), b({4, 5, 2}, 1);
  EXPECT_THROW(a.copy_parameters_from(b), util::RequireError);
}

TEST(Adam, LearningRateIsAdjustable) {
  Mlp net({2, 2}, 1);
  Adam adam(net, Adam::Config{1e-3, 0.9, 0.999, 1e-8});
  adam.set_learning_rate(5e-4);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 5e-4);
}

}  // namespace
}  // namespace dimmer::rl
