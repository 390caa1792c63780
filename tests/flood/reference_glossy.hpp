// Frozen pre-refactor flood loop, kept verbatim as the differential oracle
// for the hot-path refactor (DESIGN.md §10). This is the original
// GlossyFlood::run: per-reception dB-domain power lookups via
// Topology::rx_power_dbm, std::find over the transmitter list, and a budget
// lambda evaluated per call. It must never be "optimised" — its only job is
// to stay byte-for-byte equivalent to the shipped engine so the differential
// suite (test_differential.cpp) can prove the engine bit-identical and
// bench/perf can time the engine against it (flood.speedup_vs_reference).
#pragma once

#include "flood/glossy.hpp"
#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "util/rng.hpp"

namespace dimmer::flood::reference {

/// Runs one flood with the pre-refactor algorithm. Same contract as
/// GlossyFlood::run; consumes the RNG stream identically.
FloodResult run(const phy::Topology& topo,
                const phy::InterferenceField& interf, phy::NodeId initiator,
                const std::vector<NodeFloodConfig>& configs,
                const FloodParams& params, util::Pcg32& rng);

}  // namespace dimmer::flood::reference
