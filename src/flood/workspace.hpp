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

#include <array>
#include <cstdint>
#include <vector>

#include "phy/link_model.hpp"
#include "phy/topology.hpp"

namespace dimmer::flood {

struct FloodWorkspace {
  /// Per-node dynamic flood state (mirrors the engine's step loop).
  struct NodeScratch {
    bool has_packet = false;
    int first_step = 0;  ///< step of first involvement; initiator uses -1
    int tx_done = 0;
    int fin_step = -1;  ///< step after which the radio is off; -1 while on
  };

  std::vector<NodeScratch> state;
  std::vector<int> budget;  ///< effective per-node TX budgets
  /// Combined and strongest concurrent power per listener. Zero at every
  /// step start for each `live` listener: the scatter writes only those,
  /// and each is reset as it is decided.
  std::vector<double> total_mw;
  std::vector<double> strongest_mw;
  /// Node bitsets (phy::bitset_words words). `live`: participants without
  /// the packet; members only ever leave. `armed[p]`: packet holders that
  /// will still transmit, at steps of parity p; a step's transmitters are
  /// armed[t & 1].
  std::vector<std::uint64_t> live;
  std::array<std::vector<std::uint64_t>, 2> armed;
  /// Interference sources that can burst in this flood's slot, ascending (a
  /// prefix written once per flood by phy::BoundInterference::select), and
  /// the subset of them active in the current step (a prefix written by
  /// phy::BoundInterference::scan). Both are sized to the source count.
  std::vector<std::size_t> slot_sources;
  std::vector<std::size_t> active_sources;

  /// Pre-sizes every buffer for an `n`-node topology under a field of
  /// `sources` interference sources (optional; run_into sizes on demand —
  /// calling this up front just front-loads the one-time allocations).
  void reserve(int n, std::size_t sources) {
    const auto m = static_cast<std::size_t>(n);
    const std::size_t words = phy::bitset_words(n);
    state.reserve(m);
    budget.reserve(m);
    total_mw.reserve(m);
    strongest_mw.reserve(m);
    live.reserve(words);
    for (auto& set : armed) set.reserve(words);
    slot_sources.reserve(sources);
    active_sources.reserve(sources);
  }
};

}  // namespace dimmer::flood
