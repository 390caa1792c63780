// DQN input-vector construction (paper Table I).
//
//   Input          rows        normalization
//   radio-on time  K (10)      [0, 20 ms]  -> [-1, 1]
//   reliability    K (10)      [50, 100 %] -> [-1, 1] (below 50% saturates)
//   N parameter    N_max+1 (9) one-hot encoding
//   history        M (2)       -1 if losses that round, +1 otherwise
//
// The K rows come from the K devices with *lowest reliability* ("to correctly
// represent the suffered packet losses"); stale or missing feedback is filled
// pessimistically (0% reliability, 100% radio-on). This makes the input size
// independent of the deployment size — the property that lets the paper move
// an 18-node-trained DQN to a 48-node testbed without retraining.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace dimmer::core {

struct FeatureConfig {
  int k = 10;        ///< feedback rows (paper picks K = 10 in Fig. 4b)
  int history = 2;   ///< M historical loss bits (paper picks M = 2)
  int n_max = kNMax; ///< one-hot width is n_max + 1
  double slot_ms = 20.0;
};

/// The last rounds' loss flags, most recent first. Rounds never pushed
/// (cold start) read as lossless; at most kMaxDepth rounds are kept.
class LossHistory {
 public:
  static constexpr int kMaxDepth = 64;

  LossHistory() = default;
  /// The flags of the last rounds, most recent first.
  LossHistory(std::initializer_list<bool> lossless_most_recent_first);

  /// Records a finished round; it becomes round 0.
  void shift_in(bool lossless) { lossy_ = (lossy_ << 1) | (lossless ? 0u : 1u); }
  void clear() { lossy_ = 0; }
  /// Whether the round `m` rounds back (0 = most recent) was lossless.
  bool lossless(int m) const {
    return m >= kMaxDepth || ((lossy_ >> m) & 1u) == 0;
  }

 private:
  std::uint64_t lossy_ = 0;  ///< bit m set: round m had losses
};

/// One accounted node's candidate row: its reliability and radio-on time as
/// the input vector reads them.
struct FeatureRow {
  phy::NodeId id;
  double rel;
  double radio_ms;
};

class FeatureBuilder {
 public:
  explicit FeatureBuilder(FeatureConfig cfg);

  const FeatureConfig& config() const { return cfg_; }

  /// 2K + (N_max + 1) + M; 31 for the paper's K=10, M=2, N_max=8.
  int input_size() const;

  /// Build the normalized input vector.
  std::vector<double> build(const GlobalSnapshot& snapshot, int n_tx,
                            const LossHistory& history) const;

  /// build() into caller-owned buffers: `rows` collects the snapshot's
  /// rows and `out` receives the vector. Allocates nothing once both have
  /// grown to their sizes.
  void build_into(const GlobalSnapshot& snapshot, int n_tx,
                  const LossHistory& history, std::vector<FeatureRow>& rows,
                  std::vector<double>& out) const;

  /// The path every build takes: sorts `rows` (one per accounted node, its
  /// fresh feedback or silent_row()) and writes the input_size() values
  /// into `out`. Allocates nothing.
  void encode(std::span<FeatureRow> rows, int n_tx, const LossHistory& history,
              std::span<double> out) const;

  /// The pessimistic fill for a node without fresh feedback ("Absence of
  /// feedback is treated as 0% reliability, 100% radio-on").
  FeatureRow silent_row(phy::NodeId id) const { return {id, 0.0, cfg_.slot_ms}; }

  /// Normalizations exposed for tests.
  static double normalize_radio_on(double ms, double slot_ms);
  static double normalize_reliability(double reliability);

 private:
  FeatureConfig cfg_;
};

}  // namespace dimmer::core
