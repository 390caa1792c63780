// Central adaptivity controllers: the interface the Dimmer coordinator calls
// at the end of every round, plus the DQN-backed and static implementations.
// (The PID baseline implements the same interface in src/baselines.)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/features.hpp"
#include "core/types.hpp"
#include "obs/trace.hpp"
#include "rl/quantized.hpp"

namespace dimmer::core {

/// The three actions of the paper's DQN (§IV-B "Action space").
enum class AdaptAction { kDecrease = 0, kMaintain = 1, kIncrease = 2 };

/// Apply an action to the current parameter, clamped to [1, n_max]:
/// the coordinator never commands a global N_TX of 0 (that would silence
/// every relay; N_TX = 0 exists only as the per-node passive role).
int apply_action(int n_tx, AdaptAction a, int n_max = kNMax);

/// Decides the global retransmission parameter once per round.
class AdaptivityController {
 public:
  virtual ~AdaptivityController() = default;

  /// Called by the coordinator at the end of a round. `snapshot` is the
  /// coordinator's global view; `round_lossless` its estimate of whether the
  /// finished round suffered any loss. Returns the N_TX to disseminate in
  /// the next control slot.
  virtual int decide(const GlobalSnapshot& snapshot, bool round_lossless,
                     int current_n_tx) = 0;

  virtual const char* name() const = 0;

  /// Discards accumulated adaptation state (loss history, integrators).
  /// Called on a *cold* coordinator failover: the backup starts from a blank
  /// controller rather than inheriting the dead coordinator's memory.
  /// Stateless controllers need not override.
  virtual void reset() {}

  /// Optional observability hooks; default implementation ignores them so
  /// controllers without interesting internals need not care.
  virtual void set_instrumentation(obs::Instrumentation) {}
};

/// Always returns the same value (the paper's "static LWB, N_TX = 3").
class StaticController : public AdaptivityController {
 public:
  explicit StaticController(int n_tx);
  int decide(const GlobalSnapshot&, bool, int) override { return n_tx_; }
  const char* name() const override { return "static"; }

 private:
  int n_tx_;
};

/// The embedded deep Q-network controller: builds the Table-I feature vector,
/// runs fixed-point inference, applies the greedy action.
class DqnController : public AdaptivityController {
 public:
  DqnController(rl::QuantizedMlp policy, FeatureConfig features);

  int decide(const GlobalSnapshot& snapshot, bool round_lossless,
             int current_n_tx) override;
  const char* name() const override { return "dqn"; }
  void reset() override {
    history_.clear();
    last_features_.clear();
  }
  void set_instrumentation(obs::Instrumentation instr) override {
    instr_ = instr;
  }

  /// Most recent input vector (diagnostics / tests).
  const std::vector<double>& last_features() const { return last_features_; }
  const FeatureBuilder& features() const { return features_; }

 private:
  rl::QuantizedMlp policy_;
  FeatureBuilder features_;
  LossHistory history_;
  std::vector<FeatureRow> rows_;  ///< build_into's scratch
  std::vector<double> last_features_;
  obs::Instrumentation instr_;
  std::uint64_t decisions_ = 0;
};

}  // namespace dimmer::core
