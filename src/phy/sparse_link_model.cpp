#include "phy/sparse_link_model.hpp"

#include <cmath>

#include "phy/propagation.hpp"
#include "util/check.hpp"

namespace dimmer::phy {

SparseLinkModel::SparseLinkModel(const Topology& topo, Listeners listeners)
    : topo_(&topo),
      mw_(topo.gain_nnz()),
      bitmaps_(topo.gain_csr().row_ptr, topo.gain_csr().col, topo.size()) {
  const GainCsr csr = topo.gain_csr();
  view_ = SparseLinkView{csr.row_ptr, csr.col, mw_.data(), bitmaps_.bits(),
                         bitmaps_.rank(), topo.size(),
                         listeners == Listeners::kSkipUnreached};
}

void SparseLinkModel::rebuild(double tx_power_dbm) {
  const GainCsr csr = topo_->gain_csr();
  for (NodeId tx = 0; tx < topo_->size(); ++tx) {
    // The exact direct expression dbm_to_mw(rx_power_dbm) (TX power +
    // stored gain) per stored link, at the row's offset.
    const GainRow row = topo_->gain_row(tx);
    double* mw = mw_.data() + csr.row_ptr[static_cast<std::size_t>(tx)];
    for (std::size_t k = 0; k < row.size; ++k)
      mw[k] = dbm_to_mw(tx_power_dbm + row.gain_db[k]);
  }
}

const SparseLinkView& SparseLinkModel::prepare(double tx_power_dbm) {
  // NaN != NaN would defeat the cache check and rebuild the rows on every
  // flood (and fill them with NaN that poisons SINR/PER downstream).
  DIMMER_REQUIRE(std::isfinite(tx_power_dbm), "tx_power_dbm must be finite");
  if (!valid_ || tx_power_dbm != cached_power_dbm_) {
    rebuild(tx_power_dbm);
    cached_power_dbm_ = tx_power_dbm;
    valid_ = true;
    ++rebuilds_;
  }
  return view_;
}

}  // namespace dimmer::phy
