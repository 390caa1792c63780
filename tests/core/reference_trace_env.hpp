// Frozen trace environment, kept verbatim as the differential oracle for
// TraceEnv's in-place steps (DESIGN.md §17). This is the original
// TraceEnv: each observation rebuilds a GlobalSnapshot from the stored
// outcome (the original TraceDataset::to_snapshot), blends radio-on with the
// previous round's parameter, and calls the original FeatureBuilder::build
// over a std::deque<bool> history; each step returns a fresh state vector.
// It must never be "optimised" — its only job is to stay the definition
// test_trace_env_differential.cpp checks TraceEnv and DqnController
// against, bit for bit.
#pragma once

#include <deque>
#include <vector>

#include "core/features.hpp"
#include "core/trace_env.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace dimmer::core::reference {

/// The original FeatureBuilder::build. `history` holds per-round lossless
/// flags, most recent first; missing entries read as lossless.
std::vector<double> build_features(const FeatureConfig& cfg,
                                   const GlobalSnapshot& snapshot, int n_tx,
                                   const std::deque<bool>& history);

/// The original TraceEnv; same contract as core::TraceEnv, and it consumes
/// the RNG stream identically.
class TraceEnv {
 public:
  TraceEnv(const TraceDataset& dataset, core::TraceEnv::Config cfg);

  std::vector<double> reset(util::Pcg32& rng);

  struct StepResult {
    std::vector<double> state;
    double reward = 0.0;
    bool done = false;
  };
  StepResult step(int action);

  int current_n_tx() const { return n_tx_; }

 private:
  const TraceOutcome& current_outcome() const;
  std::vector<double> observe() const;

  const TraceDataset* ds_;
  core::TraceEnv::Config cfg_;
  std::size_t pos_ = 0;
  int steps_taken_ = 0;
  int n_tx_ = 3;
  int prev_n_tx_ = 3;
  std::deque<bool> history_;
};

}  // namespace dimmer::core::reference
