// Reusable scratch memory for the Glossy flood engine.
//
// GlossyFlood::run_into is allocation-free in steady state: every piece of
// per-flood state lives in a FloodWorkspace the caller owns and reuses across
// floods (lwb::RoundExecutor and baselines::CrystalNetwork each keep one for
// the lifetime of the simulation). The first flood on a given topology sizes
// the vectors; subsequent floods only clear/overwrite them.
//
// A workspace is plain scratch: it carries no results and no configuration,
// and any contents are invalidated by the next run_into call that uses it.
// Like a Pcg32, it must not be shared between concurrently running floods.
#pragma once

#include <vector>

#include "phy/topology.hpp"
#include "sim/time.hpp"

namespace dimmer::flood {

struct FloodWorkspace {
  /// Per-node dynamic flood state (mirrors the engine's step loop).
  struct NodeScratch {
    bool has_packet = false;
    int first_step = 0;  ///< step of first involvement; initiator uses -1
    int tx_done = 0;
    bool finished = false;  ///< radio off for the rest of the slot
    sim::TimeUs radio_on = 0;
  };

  std::vector<NodeScratch> state;
  std::vector<phy::NodeId> transmitters;  ///< transmitters of the current step
  std::vector<char> is_tx;                ///< per-step transmitter mark vector
  std::vector<int> budget;                ///< effective per-node TX budgets
  std::vector<double> total_mw;           ///< combined concurrent power per rx
  std::vector<double> strongest_mw;       ///< strongest concurrent power per rx
  /// Interference sources active in the current step, ascending (a prefix
  /// written by phy::BoundInterference::scan; sized to the source count).
  std::vector<std::size_t> active_sources;

  /// Pre-sizes every buffer for an `n`-node topology under a field of
  /// `sources` interference sources (optional; run_into sizes on demand —
  /// calling this up front just front-loads the one-time allocations).
  void reserve(int n, std::size_t sources) {
    const auto m = static_cast<std::size_t>(n);
    state.reserve(m);
    transmitters.reserve(m);
    is_tx.reserve(m);
    budget.reserve(m);
    total_mw.reserve(m);
    strongest_mw.reserve(m);
    active_sources.reserve(sources);
  }
};

}  // namespace dimmer::flood
