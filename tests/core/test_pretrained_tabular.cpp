#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/pretrained.hpp"
#include "core/trace_env.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::core {
namespace {

TEST(Pretrained, LoadsMatchingCachedPolicyWithoutTraining) {
  // A cached file with the right shape must be returned verbatim — no
  // trace collection, no training (this test would take minutes otherwise).
  std::string path = ::testing::TempDir() + "dimmer_cached_policy.mlp";
  rl::Mlp original({31, 30, 3}, 77);
  {
    std::ofstream os(path);
    original.save(os);
  }
  PretrainedOptions opt;
  rl::Mlp loaded = load_or_train_policy(path, opt, nullptr);
  std::vector<double> x(31, 0.25);
  EXPECT_EQ(loaded.forward(x), original.forward(x));
  std::remove(path.c_str());
}

TEST(Pretrained, CorruptCacheFallsBackToRetraining) {
  // A damaged cache file (torn write, disk corruption) must never abort the
  // pipeline: load_or_train_policy logs, retrains, and overwrites the cache.
  // Tiny budgets keep the retrain path fast enough for a unit test.
  std::string path = ::testing::TempDir() + "dimmer_corrupt_policy.mlp";
  {
    std::ofstream os(path);
    os << "dimmer-mlp 1\n2\n31 30 1\n0.5 0.5\n";  // truncated mid-stream
  }
  PretrainedOptions opt;
  opt.trace_steps = 40;
  opt.train_steps = 200;
  opt.candidates = 1;
  opt.validation_steps = 30;
  std::ostringstream log;
  rl::Mlp policy = load_or_train_policy(path, opt, &log);
  EXPECT_EQ(policy.input_size(), FeatureBuilder(opt.features).input_size());
  EXPECT_NE(log.str().find("retraining"), std::string::npos) << log.str();
  // The rewritten cache is valid now: a second call loads it directly.
  std::ostringstream relog;
  rl::Mlp reloaded = load_or_train_policy(path, opt, &relog);
  EXPECT_EQ(relog.str().find("retraining"), std::string::npos) << relog.str();
  std::vector<double> x(static_cast<std::size_t>(policy.input_size()), 0.25);
  EXPECT_EQ(reloaded.forward(x), policy.forward(x));
  std::remove(path.c_str());
}

TEST(Pretrained, DefaultsMatchThePaper) {
  PretrainedOptions opt;
  EXPECT_EQ(opt.train_steps, 200000u);  // "200 000 iterations"
  EXPECT_EQ(opt.features.k, 10);
  EXPECT_EQ(opt.features.history, 2);
  EXPECT_EQ(opt.round_period, sim::seconds(4));
}

TEST(TabularDiscretizer, StateCountAndBounds) {
  TabularDiscretizer disc;
  EXPECT_EQ(disc.n_states(), 4u * 3 * 9 * 2);
  FeatureBuilder fb(disc.features);
  util::Pcg32 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    GlobalSnapshot snap(18);
    snap.current_round = 1;
    for (auto& e : snap.entries) {
      e.reliability = rng.uniform();
      e.radio_on_ms = rng.uniform(0.0, 20.0);
      e.round = 1;
      e.ever_heard = true;
    }
    LossHistory hist = {rng.bernoulli(0.5)};
    auto x = fb.build(snap, rng.uniform_int(0, 8), hist);
    EXPECT_LT(disc.state(x), disc.n_states());
  }
}

TEST(TabularDiscretizer, SeparatesTheAxesItEncodes) {
  TabularDiscretizer disc;
  FeatureBuilder fb(disc.features);
  auto make = [&](double rel, double radio, int n, bool lossless) {
    GlobalSnapshot snap(18);
    snap.current_round = 1;
    for (auto& e : snap.entries) {
      e.reliability = rel;
      e.radio_on_ms = radio;
      e.round = 1;
      e.ever_heard = true;
    }
    LossHistory hist = {lossless};
    return disc.state(fb.build(snap, n, hist));
  };
  EXPECT_NE(make(1.0, 8.0, 3, true), make(0.3, 8.0, 3, true));   // reliability
  EXPECT_NE(make(1.0, 2.0, 3, true), make(1.0, 19.0, 3, true));  // radio
  EXPECT_NE(make(1.0, 8.0, 3, true), make(1.0, 8.0, 7, true));   // N_TX
  EXPECT_NE(make(1.0, 8.0, 3, true), make(1.0, 8.0, 3, false));  // history
}

TEST(TabularDiscretizer, RejectsWrongVectorSize) {
  TabularDiscretizer disc;
  EXPECT_THROW(disc.state(std::vector<double>(7, 0.0)), util::RequireError);
}

}  // namespace
}  // namespace dimmer::core
