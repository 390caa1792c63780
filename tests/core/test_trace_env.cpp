#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "core/scenarios.hpp"
#include "core/trace_env.hpp"
#include "phy/topology.hpp"

namespace dimmer::core {
namespace {

TraceDataset small_dataset(std::size_t steps = 40, std::uint64_t seed = 3) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  add_static_jamming(field, topo, 0.15);
  TraceCollectionConfig tc;
  tc.steps = steps;
  tc.seed = seed;
  return collect_traces(topo, field, tc);
}

TEST(TraceCollection, ShapesAreComplete) {
  TraceDataset ds = small_dataset(10);
  EXPECT_EQ(ds.size(), 10u);
  EXPECT_EQ(ds.n_nodes(), 18);
  EXPECT_DOUBLE_EQ(ds.slot_ms(), 20.0);
  for (std::size_t s = 0; s < ds.size(); ++s) {
    for (int n = 1; n <= kNMax; ++n) {
      const TraceOutcome& o = ds.step(s).at(n);
      EXPECT_EQ(o.reliability.size(), 18u);
      EXPECT_EQ(o.radio_on_ms.size(), 18u);
      EXPECT_EQ(o.fresh.size(), 18u);
      EXPECT_GE(o.true_reliability, 0.0f);
      EXPECT_LE(o.true_reliability, 1.0f);
      EXPECT_GT(o.true_radio_on_ms, 0.0f);
    }
  }
}

TEST(TraceCollection, HigherNCostsMoreEnergyOnAverage) {
  TraceDataset ds = small_dataset(30);
  double r1 = 0, r8 = 0;
  for (std::size_t s = 0; s < ds.size(); ++s) {
    r1 += ds.step(s).at(1).true_radio_on_ms;
    r8 += ds.step(s).at(8).true_radio_on_ms;
  }
  EXPECT_GT(r8, r1 * 1.5);
}

TEST(TraceCollection, HigherNIsMoreReliableUnderJamming) {
  TraceDataset ds = small_dataset(50);
  double d1 = 0, d8 = 0;
  for (std::size_t s = 0; s < ds.size(); ++s) {
    d1 += ds.step(s).at(1).true_reliability;
    d8 += ds.step(s).at(8).true_reliability;
  }
  EXPECT_GT(d8, d1);
}

TEST(TraceCollection, DatasetRejectsOutcomesWithoutOneEntryPerNode) {
  // TraceEnv reads every outcome by node index: a short one would be read
  // out of bounds.
  EXPECT_THROW(TraceDataset(-1, 20.0), util::RequireError);
  TraceDataset ds(3, 20.0);
  TraceStep step;
  for (TraceOutcome& o : step.by_n_tx) {
    o.reliability.assign(3, 1.0f);
    o.radio_on_ms.assign(3, 5.0f);
    o.fresh.assign(3, 1);
  }
  ds.push(step);
  step.by_n_tx[4].fresh.pop_back();
  EXPECT_THROW(ds.push(step), util::RequireError);
  step.by_n_tx[4].fresh.push_back(1);
  step.by_n_tx[7].radio_on_ms.push_back(1.0f);
  EXPECT_THROW(ds.push(step), util::RequireError);
  EXPECT_THROW(ds.push(TraceStep{}), util::RequireError);
  EXPECT_EQ(ds.size(), 1u);
}

TEST(TraceEnv, ResetAndEpisodeLength) {
  TraceDataset ds = small_dataset(30);
  TraceEnv::Config cfg;
  cfg.episode_len = 5;
  TraceEnv env(ds, cfg);
  util::Pcg32 rng(1);
  std::vector<double> s = env.reset(rng);
  EXPECT_EQ(static_cast<int>(s.size()), env.state_size());
  int steps = 0;
  for (;;) {
    auto sr = env.step(1);  // maintain
    ++steps;
    if (sr.done) break;
  }
  EXPECT_EQ(steps, 5);
}

TEST(TraceEnv, ActionSemantics) {
  TraceDataset ds = small_dataset(30);
  TraceEnv env(ds, TraceEnv::Config{});
  util::Pcg32 rng(2);
  env.reset(rng);
  int n0 = env.current_n_tx();
  env.step(2);  // increase
  EXPECT_EQ(env.current_n_tx(), std::min(n0 + 1, kNMax));
  env.step(0);  // decrease
  EXPECT_EQ(env.current_n_tx(), std::max(1, std::min(n0 + 1, kNMax) - 1));
}

TEST(TraceEnv, NeverLeavesValidRange) {
  TraceDataset ds = small_dataset(60);
  TraceEnv env(ds, TraceEnv::Config{});
  util::Pcg32 rng(3);
  env.reset(rng);
  for (int t = 0; t < 40; ++t) {
    auto sr = env.step(0);  // hammer decrease
    EXPECT_GE(env.current_n_tx(), 1);
    if (sr.done) env.reset(rng);
  }
}

TEST(TraceEnv, RewardFollowsEq3) {
  TraceDataset ds = small_dataset(30);
  TraceEnv env(ds, TraceEnv::Config{});
  util::Pcg32 rng(4);
  env.reset(rng);
  for (int t = 0; t < 20; ++t) {
    auto sr = env.step(1);
    const TraceOutcome& o = env.current_outcome();
    double expect = o.true_lossless
                        ? 1.0 - 0.3 * env.current_n_tx() / 8.0
                        : 0.0;
    EXPECT_DOUBLE_EQ(sr.reward, expect);
    if (sr.done) env.reset(rng);
  }
}

TEST(TraceEnv, PerValueActionSpace) {
  TraceDataset ds = small_dataset(30);
  TraceEnv::Config cfg;
  cfg.action_per_value = true;
  TraceEnv env(ds, cfg);
  EXPECT_EQ(env.action_count(), 8);
  util::Pcg32 rng(5);
  env.reset(rng);
  env.step(4);
  EXPECT_EQ(env.current_n_tx(), 5);  // action k selects N_TX = k + 1
  env.step(0);
  EXPECT_EQ(env.current_n_tx(), 1);
}

TEST(TraceEnv, RejectsInvalidAction) {
  TraceDataset ds = small_dataset(10);
  TraceEnv env(ds, TraceEnv::Config{});
  util::Pcg32 rng(6);
  env.reset(rng);
  EXPECT_THROW(env.step(3), util::RequireError);
  EXPECT_THROW(env.step(-1), util::RequireError);
}

TEST(Trainer, ShortTrainingProducesValidPolicy) {
  TraceDataset ds = small_dataset(40);
  TraceEnv::Config env_cfg;
  TrainerConfig tr;
  tr.total_steps = 1500;
  tr.dqn.epsilon_anneal_steps = 800;
  rl::Mlp net = train_dqn_on_traces(ds, env_cfg, tr);
  EXPECT_EQ(net.input_size(), 31);
  EXPECT_EQ(net.output_size(), 3);
}

TEST(Trainer, PerValueAblationChangesOutputArity) {
  TraceDataset ds = small_dataset(40);
  TraceEnv::Config env_cfg;
  env_cfg.action_per_value = true;
  TrainerConfig tr;
  tr.total_steps = 800;
  rl::Mlp net = train_dqn_on_traces(ds, env_cfg, tr);
  EXPECT_EQ(net.output_size(), 8);
}

TEST(Evaluation, ProducesSaneAggregates) {
  TraceDataset ds = small_dataset(40);
  TraceEnv::Config env_cfg;
  rl::QuantizedMlp policy(rl::Mlp({31, 30, 3}, 4));
  PolicyEvaluation ev = evaluate_policy(ds, policy, env_cfg, 5, 9);
  EXPECT_GE(ev.avg_reliability, 0.0);
  EXPECT_LE(ev.avg_reliability, 1.0);
  EXPECT_GE(ev.avg_n_tx, 1.0);
  EXPECT_LE(ev.avg_n_tx, 8.0);
  EXPECT_GE(ev.avg_radio_on_ms, 0.0);
  EXPECT_LE(ev.avg_radio_on_ms, 20.0);
  EXPECT_GE(ev.loss_rate, 0.0);
  EXPECT_LE(ev.loss_rate, 1.0);
}

}  // namespace
}  // namespace dimmer::core
