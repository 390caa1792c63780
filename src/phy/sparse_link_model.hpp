// SparseLinkModel: the CSR LinkModel backend over a Topology's stored rows.
//
// Every flood runs on CSR rows (phy/link_model.hpp). The model holds exactly
// the links its Topology stores: all n listeners per row when nothing was
// culled at construction. At city scale almost all (tx, rx) pairs are so
// far apart that their received power is orders of magnitude below the
// noise floor and can never influence a reception decision; the Topology
// drops those at construction (its gain_floor_db, usually
// gain_cull_floor_db), the one place links are culled.
// The view borrows the Topology's row offsets and column ids; the model
// stores one mW value per stored link, recomputed when the TX power changes,
// and the rows' bitmaps and ranks, built once at construction.
//
// Determinism contract (DESIGN.md §13):
//  - Stored links hold the *exact* double of the direct expression
//    dbm_to_mw(topo.rx_power_dbm(tx, rx, power)), computed per link, so a
//    link's mW bits do not depend on its neighbors in the row.
//  - Links the Topology does not store are never stored: every stored power
//    is positive.
//  - With Listeners::kDrawAll, a flood engine driven by this backend is
//    bit-identical to the frozen direct-Topology reference loop — FloodResult
//    AND RNG end-state (tests/flood/test_differential.cpp) — on culled and
//    unculled topologies alike.
#pragma once

#include <cstddef>
#include <vector>

#include "phy/link_model.hpp"
#include "phy/topology.hpp"

namespace dimmer::phy {

class SparseLinkModel final : public LinkModel {
 public:
  /// What the engine does with a packet-less listener that no stored link
  /// reaches (SparseLinkView::skip_unreached). kDrawAll draws for it as the
  /// reference loop does; kSkipUnreached skips it, so a step costs the flood
  /// frontier's neighborhood instead of N (federation cells at city scale).
  enum class Listeners { kDrawAll, kSkipUnreached };

  /// `topo` must outlive the model.
  explicit SparseLinkModel(const Topology& topo,
                           Listeners listeners = Listeners::kDrawAll);

  const Topology& topology() const override { return *topo_; }

  const SparseLinkView& prepare(double tx_power_dbm) override;

  /// Number of mW recomputations so far (test/bench introspection).
  int rebuilds() const { return rebuilds_; }

  /// Bytes the model holds: 8 per stored link plus 12 per row word of the
  /// bitmaps (the offsets and columns are the Topology's).
  std::size_t storage_bytes() const {
    return mw_.size() * sizeof(double) + bitmaps_.bytes();
  }

 private:
  void rebuild(double tx_power_dbm);

  const Topology* topo_;
  std::vector<double> mw_;  // one received power per stored link
  RowBitmaps bitmaps_;
  SparseLinkView view_;
  double cached_power_dbm_ = 0.0;
  bool valid_ = false;
  int rebuilds_ = 0;
};

}  // namespace dimmer::phy
