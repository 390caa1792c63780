// Deep Q-Network agent (Mnih et al. 2015-style, scaled to the paper's
// 31 -> 30 ReLU -> 3 architecture): experience replay, a periodically
// synchronised target network, epsilon-greedy exploration with linear
// annealing, and Huber TD loss.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "rl/mlp.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"

namespace dimmer::rl {

struct DqnConfig {
  std::vector<int> architecture = {31, 30, 3};  ///< paper Table I + §IV-B
  double gamma = 0.7;            ///< paper: "discount factor gamma of 0.7"
  double lr = 1e-3;
  std::size_t replay_capacity = 50000;
  std::size_t batch_size = 32;
  std::size_t min_replay_before_training = 500;
  std::size_t target_sync_period = 500;  ///< train steps between target syncs
  /// Paper: epsilon annealed 100% -> 1% linearly over 100 000 steps, then 1%.
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::size_t epsilon_anneal_steps = 100000;
  double huber_delta = 1.0;
  /// Linear learning-rate decay from `lr` to `lr_final` over
  /// `lr_decay_steps` training steps (0 disables the schedule). A lower
  /// final rate lets the Q-gaps between near-equal actions (decrease vs
  /// maintain in calm states) settle instead of jittering.
  double lr_final = 2e-4;
  std::size_t lr_decay_steps = 0;
  /// Double DQN (van Hasselt 2016): select the bootstrap action with the
  /// online network, evaluate it with the target network. Reduces the
  /// maximization bias that otherwise inflates "maintain" values.
  bool double_dqn = true;
};

class DqnAgent {
 public:
  DqnAgent(DqnConfig cfg, std::uint64_t seed);

  /// Epsilon-greedy action for the current annealing position.
  int select_action(const std::vector<double>& state, util::Pcg32& rng);

  /// Pure exploitation (deployment-time inference).
  int greedy_action(const std::vector<double>& state) const;

  /// Q-values from the online network.
  std::vector<double> q_values(const std::vector<double>& state) const;

  /// Store a transition and run one training step (if warm enough).
  void observe(Transition t, util::Pcg32& rng);

  double epsilon() const;
  std::size_t steps() const { return env_steps_; }
  std::size_t train_steps() const { return train_steps_; }
  const Mlp& online_network() const { return online_; }
  const DqnConfig& config() const { return cfg_; }
  const ReplayBuffer& replay() const { return replay_; }

  /// Optional observability hooks (a "dqn_step" event per observe()).
  /// Sinks never draw from the RNG, so learning is identical with or
  /// without instrumentation.
  void set_instrumentation(obs::Instrumentation instr) { instr_ = instr; }

 private:
  void train_step(util::Pcg32& rng);

  DqnConfig cfg_;
  Mlp online_;
  Mlp target_;
  Adam adam_;
  ReplayBuffer replay_;
  std::vector<LayerGrads> grads_;
  std::size_t env_steps_ = 0;
  std::size_t train_steps_ = 0;
  double recent_loss_ = 0.0;  ///< mean TD loss, for the dqn.recent_loss gauge
  obs::Instrumentation instr_;
};

}  // namespace dimmer::rl
