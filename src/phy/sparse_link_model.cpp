#include "phy/sparse_link_model.hpp"

#include <cmath>
#include <limits>

#include "phy/batched.hpp"
#include "util/check.hpp"

namespace dimmer::phy {

SparseLinkModel::Config SparseLinkModel::Config::no_culling() {
  Config c;
  c.cull_margin_db = std::numeric_limits<double>::infinity();
  return c;
}

SparseLinkModel::SparseLinkModel(const Topology& topo)
    : SparseLinkModel(topo, Config{}) {}

SparseLinkModel::SparseLinkModel(const Topology& topo, Config cfg)
    : topo_(&topo), cfg_(cfg) {
  // NaN margins would make the keep predicate silently drop every link
  // (NaN comparisons are false); a zero/negative margin would cull links
  // *above* the noise floor, which is a config error, not a model.
  DIMMER_REQUIRE(cfg_.cull_margin_db > 0.0,
                 "cull_margin_db must be positive (may be +inf)");
}

double SparseLinkModel::cull_floor_dbm() const {
  return topo_->radio().noise_floor_dbm - cfg_.cull_margin_db;
}

std::size_t SparseLinkModel::storage_bytes() const {
  return row_ptr_.size() * sizeof(std::size_t) + col_.size() * sizeof(NodeId) +
         mw_.size() * sizeof(double);
}

void SparseLinkModel::rebuild(double tx_power_dbm) {
  const int n = topo_->size();
  const auto un = static_cast<std::size_t>(n);
  const double floor_dbm = cull_floor_dbm();  // -inf when culling is disabled
  const bool culled = std::isfinite(floor_dbm);

  row_ptr_.assign(un + 1, 0);
  col_.clear();
  mw_.clear();
  keep_dbm_.resize(un);

  for (NodeId tx = 0; tx < n; ++tx) {
    // The exact direct expression rx_power_dbm (TX power + stored gain) per
    // link the topology stores, survivors compacted, then the batch dBm->mW
    // kernel. The kernel is lanewise pure (DESIGN.md §12), so a survivor's mW
    // bits do not depend on which other listeners sit beside it in the batch.
    const GainRow row = topo_->gain_row(tx);
    int kept = 0;
    for (std::size_t k = 0; k < row.size; ++k) {
      const double dbm = tx_power_dbm + row.gain_db[k];
      if (dbm >= floor_dbm) {
        col_.push_back(row.col[k]);
        keep_dbm_[static_cast<std::size_t>(kept++)] = dbm;
      }
    }
    const std::size_t base = mw_.size();
    mw_.resize(base + static_cast<std::size_t>(kept));
    dbm_to_mw_batch(keep_dbm_.data(), mw_.data() + base, kept);
    row_ptr_[static_cast<std::size_t>(tx) + 1] = mw_.size();
  }

  view_ = SparseLinkView{row_ptr_.data(), col_.data(), mw_.data(), n, culled};
}

const SparseLinkView& SparseLinkModel::prepare(double tx_power_dbm) {
  // NaN != NaN would defeat the cache check and rebuild the CSR on every
  // flood (and fill it with NaN that poisons SINR/PER downstream).
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
