// SparseLinkModel: the CSR LinkModel backend, with optional culling.
//
// Every flood runs on CSR rows (phy/link_model.hpp). With culling disabled
// (Config::no_culling) a row holds every link the Topology stores — all n
// listeners when nothing was culled at construction — and the flood engine
// sweeps full rows lanewise. At city scale almost all (tx, rx) pairs are so
// far apart that their received power is orders of magnitude below the noise
// floor and can never influence a reception decision; with culling enabled
// the model drops those links at build time — a link survives iff its rx
// power (dBm) is at or above a configurable floor relative to the radio's
// noise floor.
//
// Determinism contract (DESIGN.md §13):
//  - Stored links hold the *exact* double of the direct expression
//    dbm_to_mw(topo.rx_power_dbm(tx, rx, power)) on the scalar backend, and
//    the same dbm_to_mw_batch bits on every backend (the kernel is lanewise
//    pure, so compacting survivors before the batch conversion cannot change
//    their bits).
//  - Links that do not exist (pairs a construction-culled Topology does not
//    store) are never stored, whatever the config: every stored power is
//    positive.
//  - With culling disabled, a flood engine driven by this backend is
//    bit-identical to the frozen direct-Topology reference loop — FloodResult
//    AND RNG end-state (tests/flood/test_differential.cpp).
//  - With culling enabled, the total culled power any listener could ever
//    lose is bounded by cull_floor_mw * fan-in (each culled link is below
//    the floor; tests/phy/test_sparse_link_model.cpp proves the bound), so a
//    margin of at least headroom_db + 10*log10(n-1) keeps the aggregate
//    error headroom_db below the noise floor's own contribution to SINR.
#pragma once

#include <cstddef>
#include <vector>

#include "phy/link_model.hpp"
#include "phy/topology.hpp"

namespace dimmer::phy {

class SparseLinkModel final : public LinkModel {
 public:
  struct Config {
    /// Links whose rx power falls below noise_floor_dbm - cull_margin_db are
    /// dropped. Must be positive; +infinity keeps every link.
    double cull_margin_db = 20.0;

    /// Culling disabled: every existing link survives and results are
    /// bit-identical to the direct-Topology loop. Stores exactly the
    /// Topology's gain_nnz() links.
    static Config no_culling();
  };

  /// Default config: the 20 dB culling margin.
  explicit SparseLinkModel(const Topology& topo);
  SparseLinkModel(const Topology& topo, Config cfg);

  const Topology& topology() const override { return *topo_; }

  const SparseLinkView& prepare(double tx_power_dbm) override;

  /// Number of full CSR recomputations so far (test/bench introspection).
  int rebuilds() const { return rebuilds_; }

  /// Culling floor in dBm (noise floor minus the configured margin;
  /// -infinity with culling disabled).
  double cull_floor_dbm() const;

  /// Survived-link count of the last prepared view (0 before any prepare).
  std::size_t nnz() const { return mw_.size(); }

  /// Bytes held by the CSR arrays (row_ptr + col + mw) — the number the
  /// scale bench reports against the dense 8*N^2.
  std::size_t storage_bytes() const;

 private:
  void rebuild(double tx_power_dbm);

  const Topology* topo_;
  Config cfg_;
  std::vector<std::size_t> row_ptr_;  // n+1 offsets
  std::vector<NodeId> col_;           // nnz listener ids
  std::vector<double> mw_;            // nnz received powers
  std::vector<double> keep_dbm_;      // rebuild scratch: compacted survivors
  SparseLinkView view_;
  double cached_power_dbm_ = 0.0;
  bool valid_ = false;
  int rebuilds_ = 0;
};

}  // namespace dimmer::phy
