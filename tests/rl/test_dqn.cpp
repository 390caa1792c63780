#include <gtest/gtest.h>

#include <algorithm>

#include "rl/dqn.hpp"
#include "util/check.hpp"

namespace dimmer::rl {
namespace {

DqnConfig tiny_config() {
  DqnConfig cfg;
  cfg.architecture = {2, 8, 2};
  cfg.replay_capacity = 2000;
  cfg.min_replay_before_training = 32;
  cfg.epsilon_anneal_steps = 500;
  cfg.target_sync_period = 50;
  return cfg;
}

TEST(ReplayBuffer, RingEviction) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i)
    buf.push(Transition{{static_cast<double>(i)}, 0, 0.0, {0.0}, false, -1.0});
  EXPECT_EQ(buf.size(), 3u);
  // Entries 2, 3, 4 survive (0 and 1 evicted).
  std::vector<double> first_elems;
  for (std::size_t i = 0; i < buf.size(); ++i)
    first_elems.push_back(buf.at(i).state[0]);
  std::sort(first_elems.begin(), first_elems.end());
  EXPECT_EQ(first_elems, (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(ReplayBuffer, SampleFromEmptyThrows) {
  ReplayBuffer buf(4);
  util::Pcg32 rng(1);
  EXPECT_THROW(buf.sample_indices(2, rng), util::RequireError);
}

TEST(ReplayBuffer, SampleIndicesInRange) {
  ReplayBuffer buf(10);
  for (int i = 0; i < 4; ++i) buf.push(Transition{});
  util::Pcg32 rng(2);
  for (std::size_t i : buf.sample_indices(100, rng)) EXPECT_LT(i, 4u);
}

TEST(DqnAgent, EpsilonAnnealsLinearly) {
  DqnConfig cfg = tiny_config();
  cfg.epsilon_start = 1.0;
  cfg.epsilon_end = 0.1;
  cfg.epsilon_anneal_steps = 100;
  DqnAgent agent(cfg, 1);
  util::Pcg32 rng(1);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  for (int i = 0; i < 50; ++i)
    agent.observe(Transition{{0, 0}, 0, 0, {0, 0}, false, -1.0}, rng);
  EXPECT_NEAR(agent.epsilon(), 0.55, 1e-9);
  for (int i = 0; i < 200; ++i)
    agent.observe(Transition{{0, 0}, 0, 0, {0, 0}, false, -1.0}, rng);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.1);
}

TEST(DqnAgent, GreedyActionMatchesArgmaxQ) {
  DqnAgent agent(tiny_config(), 3);
  std::vector<double> s = {0.4, -0.7};
  auto q = agent.q_values(s);
  int expect = static_cast<int>(
      std::max_element(q.begin(), q.end()) - q.begin());
  EXPECT_EQ(agent.greedy_action(s), expect);
}

TEST(DqnAgent, RejectsOutOfRangeAction) {
  DqnAgent agent(tiny_config(), 3);
  util::Pcg32 rng(1);
  EXPECT_THROW(
      agent.observe(Transition{{0, 0}, 5, 0, {0, 0}, false, -1.0}, rng),
      util::RequireError);
}

TEST(DqnAgent, RejectsBadGamma) {
  DqnConfig cfg = tiny_config();
  cfg.gamma = 1.0;
  EXPECT_THROW(DqnAgent(cfg, 1), util::RequireError);
}

TEST(DqnAgent, RejectsWarmupSmallerThanBatch) {
  DqnConfig cfg = tiny_config();
  cfg.batch_size = 32;
  cfg.min_replay_before_training = 31;  // would train by resampling 31 items
  EXPECT_THROW(DqnAgent(cfg, 1), util::RequireError);
  cfg.min_replay_before_training = 32;
  EXPECT_NO_THROW(DqnAgent(cfg, 1));
}

// Contextual bandit: state (1,0) rewards action 0; state (0,1) rewards
// action 1. The agent must learn the mapping.
TEST(DqnAgent, SolvesContextualBandit) {
  DqnConfig cfg = tiny_config();
  cfg.gamma = 0.0;  // pure bandit
  cfg.lr = 3e-3;
  cfg.epsilon_anneal_steps = 2000;
  cfg.epsilon_end = 0.05;
  DqnAgent agent(cfg, 7);
  util::Pcg32 rng(8);
  for (int t = 0; t < 4000; ++t) {
    bool ctx = rng.bernoulli(0.5);
    std::vector<double> s = ctx ? std::vector<double>{0.0, 1.0}
                                : std::vector<double>{1.0, 0.0};
    int a = agent.select_action(s, rng);
    double r = (a == (ctx ? 1 : 0)) ? 1.0 : 0.0;
    agent.observe(Transition{s, a, r, s, true, -1.0}, rng);
  }
  EXPECT_EQ(agent.greedy_action({1.0, 0.0}), 0);
  EXPECT_EQ(agent.greedy_action({0.0, 1.0}), 1);
}

// Two-state chain: action 1 in state A moves to state B where reward flows.
// Requires bootstrapping (gamma > 0) to solve — exercises the target net.
TEST(DqnAgent, LearnsDelayedRewardThroughBootstrap) {
  DqnConfig cfg = tiny_config();
  cfg.gamma = 0.9;
  cfg.lr = 3e-3;
  cfg.epsilon_anneal_steps = 3000;
  cfg.epsilon_end = 0.1;
  DqnAgent agent(cfg, 11);
  util::Pcg32 rng(12);
  const std::vector<double> A = {1.0, 0.0}, B = {0.0, 1.0};
  for (int episode = 0; episode < 1500; ++episode) {
    // State A: action 1 -> B (no reward), action 0 -> stay A (no reward).
    int a1 = agent.select_action(A, rng);
    if (a1 == 1) {
      agent.observe(Transition{A, a1, 0.0, B, false, -1.0}, rng);
      int a2 = agent.select_action(B, rng);
      // State B: action 0 -> reward 1, terminal.
      double r = a2 == 0 ? 1.0 : 0.0;
      agent.observe(Transition{B, a2, r, B, true, -1.0}, rng);
    } else {
      agent.observe(Transition{A, a1, 0.0, A, true, -1.0}, rng);
    }
  }
  EXPECT_EQ(agent.greedy_action(A), 1);  // go to B
  EXPECT_EQ(agent.greedy_action(B), 0);  // collect
}

TEST(DqnAgent, TransitionDiscountOverridesGamma) {
  // With reward 0 everywhere and discount 0 on all transitions, Q stays
  // near its init; mostly a smoke test that the field is honoured.
  DqnConfig cfg = tiny_config();
  DqnAgent agent(cfg, 5);
  util::Pcg32 rng(5);
  for (int i = 0; i < 200; ++i)
    agent.observe(Transition{{0.5, 0.5}, 0, 0.0, {0.5, 0.5}, false, 1e-9},
                  rng);
  EXPECT_EQ(agent.train_steps(), 200u - cfg.min_replay_before_training + 1);
}

TEST(DqnAgent, VanillaAndDoubleDqnBothTrain) {
  for (bool dd : {false, true}) {
    DqnConfig cfg = tiny_config();
    cfg.double_dqn = dd;
    DqnAgent agent(cfg, 9);
    util::Pcg32 rng(9);
    for (int i = 0; i < 300; ++i)
      agent.observe(Transition{{0.1, 0.2}, i % 2, 0.5, {0.1, 0.2}, false,
                               -1.0},
                    rng);
    EXPECT_GT(agent.train_steps(), 0u);
  }
}

TEST(DqnAgent, LrDecayScheduleApplies) {
  DqnConfig cfg = tiny_config();
  cfg.lr = 1e-3;
  cfg.lr_final = 1e-4;
  cfg.lr_decay_steps = 100;
  DqnAgent agent(cfg, 13);
  util::Pcg32 rng(13);
  for (int i = 0; i < 400; ++i)
    agent.observe(Transition{{0, 1}, 0, 0.1, {0, 1}, false, -1.0}, rng);
  // No direct accessor for Adam's lr; the schedule path must at least not
  // corrupt training. Smoke assertion:
  EXPECT_GT(agent.train_steps(), 300u);
}

}  // namespace
}  // namespace dimmer::rl
