// The trace environment and offline DQN training (paper §IV-B).
//
// "It is impossible to play out two actions (N_TX +1 and -1) with identical
// wireless conditions; we execute them sequentially, with minimal latency
// between." We go one better in simulation: for every trace step, *all*
// candidate N_TX values 1..N_max experience the exact same interference
// timeline (interference sources are pure functions of time), by running
// N_max shadow networks side by side, each pinned at one N_TX value.
//
// A TraceDataset stores, per step and per candidate N_TX, the coordinator's
// aggregated feedback view plus ground truth. TraceEnv replays windows of a
// dataset as an MDP: the state is the Table-I feature vector, actions move
// N_TX, the reward is the paper's Eq. 3 on the ground-truth loss indicator.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/features.hpp"
#include "core/types.hpp"
#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "rl/dqn.hpp"
#include "rl/mlp.hpp"
#include "rl/quantized.hpp"
#include "rl/tabular.hpp"

namespace dimmer::core {

/// Outcome of one round executed at a fixed N_TX.
struct TraceOutcome {
  /// Coordinator-view feedback, one entry per node; `fresh[i]` false means
  /// the coordinator heard nothing from node i this round.
  std::vector<float> reliability;
  std::vector<float> radio_on_ms;
  std::vector<std::uint8_t> fresh;
  bool coordinator_lossless = true;
  bool true_lossless = true;
  float true_reliability = 1.0f;
  float true_radio_on_ms = 0.0f;
};

/// One trace step: the same wireless conditions under every candidate N_TX.
struct TraceStep {
  std::array<TraceOutcome, kNMax> by_n_tx;  ///< index n-1 holds N_TX = n

  const TraceOutcome& at(int n_tx) const { return by_n_tx.at(n_tx - 1); }
};

class TraceDataset {
 public:
  TraceDataset(int n_nodes, double slot_ms);

  int n_nodes() const { return n_nodes_; }
  double slot_ms() const { return slot_ms_; }
  std::size_t size() const { return steps_.size(); }
  const TraceStep& step(std::size_t i) const { return steps_.at(i); }
  /// Step i's outcome under `n_tx`.
  const TraceOutcome& outcome(std::size_t i, int n_tx) const {
    return steps_.at(i).at(n_tx);
  }
  /// Appends a step; every outcome must hold one entry per node, which
  /// TraceEnv reads by node index.
  void push(TraceStep s);

 private:
  int n_nodes_;
  double slot_ms_;
  std::vector<TraceStep> steps_;
};

struct TraceCollectionConfig {
  sim::TimeUs round_period = sim::seconds(4);
  sim::TimeUs start_time = 0;
  std::size_t steps = 3000;
  std::size_t stats_window_slots = 36;
  std::uint64_t seed = 1;
};

/// Collect traces on `topo` under `interference` using shadow networks
/// pinned at N_TX = 1..N_max. All nodes broadcast every round (the paper's
/// 18-slot periodic traffic).
TraceDataset collect_traces(const phy::Topology& topo,
                            const phy::InterferenceField& interference,
                            const TraceCollectionConfig& cfg);

/// MDP over a trace dataset.
///
/// Feedback-latency model: a deployed source freezes its 2-byte header
/// *before* its own data slot, so roughly half of the radio-on feedback the
/// coordinator aggregates still reflects the previous round's N_TX (§IV-E
/// "Feedback latency"). The environment reproduces this by blending each
/// node's radio-on value 50/50 between the previous round's parameter and
/// the current one — without it, a trained policy stalls in limit cycles
/// when deployed, because deployment states lag in a way stationary traces
/// never show.
class TraceEnv {
 public:
  struct Config {
    FeatureConfig features;
    /// Shorter episodes mean more resets at random N_TX values, which is
    /// what covers the "calm network still running at high N" states the
    /// decay behaviour is learned from.
    int episode_len = 40;
    /// false: the paper's 3-action space (decrease/maintain/increase).
    /// true:  the ablation with one action per N_TX value (§IV-B argues
    ///        this overfits; bench_fig4b reproduces the comparison).
    bool action_per_value = false;
    double reward_c = kRewardC;
  };

  TraceEnv(const TraceDataset& dataset, Config cfg);

  int state_size() const { return features_.input_size(); }
  int action_count() const;

  /// Start an episode at a random window with a random initial N_TX.
  /// Returns state().
  const std::vector<double>& reset(util::Pcg32& rng);

  struct StepResult {
    double reward = 0.0;
    bool done = false;
  };
  /// Applies `action` and moves one trace step on; state() then holds the
  /// next state. Allocates nothing.
  StepResult step(int action);

  /// The Table-I state vector, rewritten in place by reset() and step().
  const std::vector<double>& state() const { return state_; }
  int current_n_tx() const { return n_tx_; }
  const TraceOutcome& current_outcome() const;

  /// Optional observability hooks (episode/step counters; no per-step
  /// events — the agent's "dqn_step" stream already covers those).
  void set_instrumentation(obs::Instrumentation instr) { instr_ = instr; }

 private:
  /// Writes the current outcome's state vector into state_.
  void write_state();

  const TraceDataset* ds_;
  Config cfg_;
  FeatureBuilder features_;
  std::size_t pos_ = 0;
  int steps_taken_ = 0;
  int n_tx_ = 3;
  int prev_n_tx_ = 3;  ///< parameter in effect one round earlier (lag model)
  LossHistory history_;
  std::vector<FeatureRow> rows_;  ///< one per node, rewritten each step
  std::vector<double> state_;
  obs::Instrumentation instr_;
};

/// Offline DQN training over a trace dataset (paper: 200 000 iterations,
/// epsilon 1.0 -> 0.01 over the first 100 000, gamma = 0.7).
struct TrainerConfig {
  rl::DqnConfig dqn;
  std::size_t total_steps = 200000;
  /// n-step returns: the energy gain of stepping N_TX down only pays off
  /// over a few consecutive rounds; multi-step targets propagate it without
  /// waiting for value iteration to crawl through the chain.
  int n_step = 3;
  std::uint64_t seed = 42;
  /// Optional observability hooks, forwarded to the agent and environment
  /// (a "dqn_step" event per training step when a trace sink is attached).
  obs::Instrumentation instrumentation;
};

rl::Mlp train_dqn_on_traces(const TraceDataset& dataset,
                            const TraceEnv::Config& env_cfg,
                            TrainerConfig cfg);

/// Greedy-policy evaluation over a dataset (used for the Fig. 4b sweeps).
struct PolicyEvaluation {
  double avg_reward = 0.0;
  double avg_reliability = 0.0;
  double avg_radio_on_ms = 0.0;
  double avg_n_tx = 0.0;
  double loss_rate = 0.0;  ///< fraction of rounds with any loss
};

PolicyEvaluation evaluate_policy(const TraceDataset& dataset,
                                 const rl::QuantizedMlp& policy,
                                 const TraceEnv::Config& env_cfg,
                                 int episodes, std::uint64_t seed);

/// Generic variant: any state -> action map (used for the tabular ablation
/// and for hand-crafted reference policies in tests).
PolicyEvaluation evaluate_policy(
    const TraceDataset& dataset,
    const std::function<int(const std::vector<double>&)>& policy,
    const TraceEnv::Config& env_cfg, int episodes, std::uint64_t seed);

// ---- Tabular Q-learning baseline (SIII-B ablation) -------------------------

/// Coarse discretization of the Table-I feature vector for tabular Q:
/// worst-node reliability bucket x worst-node radio bucket x one-hot N_TX x
/// most-recent history bit.
struct TabularDiscretizer {
  FeatureConfig features;
  int rel_buckets = 4;
  int radio_buckets = 3;

  std::size_t n_states() const {
    return static_cast<std::size_t>(rel_buckets) * radio_buckets *
           (features.n_max + 1) * 2;
  }
  std::size_t state(const std::vector<double>& x) const;
};

struct TabularTrainerConfig {
  double alpha = 0.15;
  double gamma = 0.7;
  std::size_t total_steps = 200000;
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::uint64_t seed = 42;
};

/// Trains tabular Q over the same trace environment as the DQN.
rl::TabularQ train_tabular_on_traces(const TraceDataset& dataset,
                                     const TraceEnv::Config& env_cfg,
                                     const TabularDiscretizer& disc,
                                     const TabularTrainerConfig& cfg);

}  // namespace dimmer::core
