// The PHY <-> flood seam: linear-domain link powers behind an interface.
//
// The flood engine's inner loop needs one number per (tx, rx) pair: the
// received power in mW when `tx` transmits at the flood's TX power. Computing
// it from the Topology on every reception costs a pow(10, x/10) per listener
// per transmitter per step. A LinkModel answers the same question through
// precomputed CSR rows instead: `prepare(tx_power_dbm)` returns a
// SparseLinkView whose entries are computed *once* per (topology, power) with
// the exact same expression the direct path used —
//
//     dbm_to_mw(topo.rx_power_dbm(tx, rx, tx_power_dbm))
//
// — so flood results stay bit-identical to evaluating the Topology inline.
// CSR is the only link format: a row holds the links its Topology stores,
// and a bitmap of each row lets the engine visit only the stored links
// that reach a listener still waiting for the packet (DESIGN.md §10, §13).
//
// The seam also decouples the flood engine from the Topology class itself:
// alternate backends (trace-driven gain matrices, GPU-resident batches,
// time-varying channels) only need to produce a SparseLinkView.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "phy/topology.hpp"

namespace dimmer::phy {

/// 64-bit words in a bitset over `n` node ids (id i is bit i % 64 of word
/// i / 64).
constexpr std::size_t bitset_words(int n) {
  return (static_cast<std::size_t>(n) + 63) / 64;
}

/// Non-owning CSR view of a link-power matrix: per transmitter, the links
/// that exist at the power the view was prepared for, as parallel (col, mw)
/// arrays, plus a bitmap of each row. Listener ids are strictly ascending
/// within a row, and every stored power is positive (dbm_to_mw never
/// produces 0 for a finite dBm value; links that do not exist are simply
/// absent). The flood engine relies on both to keep its per-listener
/// accumulation order identical to the historical per-listener loop. Valid
/// until the next `prepare()` call on (or destruction of) the model that
/// produced it.
struct SparseLinkView {
  const std::size_t* row_ptr = nullptr;  ///< n+1 offsets into col/mw
  const NodeId* col = nullptr;           ///< listener ids, ascending per row
  const double* mw = nullptr;            ///< received powers, parallel to col
  /// words() words per row: bit rx of row tx is set iff row tx stores rx.
  const std::uint64_t* row_bits = nullptr;
  /// Parallel to row_bits: the links row tx stores in its earlier words, so
  /// the link of bit b of word w sits at row_begin(tx) + rank[w] + the
  /// number of set bits below b in that word.
  const std::uint32_t* rank = nullptr;
  int n = 0;
  /// The engine may skip a packet-less listener whose accumulated power is
  /// exactly 0.0 (no stored link from any transmitter reaches it). False:
  /// it draws for such listeners exactly as the direct-Topology loop does.
  bool skip_unreached = false;

  std::size_t nnz() const {
    return row_ptr == nullptr ? 0 : row_ptr[static_cast<std::size_t>(n)];
  }
  std::size_t words() const { return bitset_words(n); }
  std::size_t row_begin(NodeId tx) const {
    return row_ptr[static_cast<std::size_t>(tx)];
  }
  std::size_t row_end(NodeId tx) const {
    return row_ptr[static_cast<std::size_t>(tx) + 1];
  }
};

/// Owns the row bitmaps and ranks (SparseLinkView::row_bits, rank) of `n`
/// CSR rows, built once from their column ids: 12 B per row word.
class RowBitmaps {
 public:
  RowBitmaps() = default;
  RowBitmaps(const std::size_t* row_ptr, const NodeId* col, int n) {
    const std::size_t words = bitset_words(n);
    bits_.assign(static_cast<std::size_t>(n) * words, 0);
    rank_.assign(bits_.size(), 0);
    for (std::size_t tx = 0; tx < static_cast<std::size_t>(n); ++tx) {
      std::uint64_t* row = bits_.data() + tx * words;
      for (std::size_t k = row_ptr[tx]; k < row_ptr[tx + 1]; ++k) {
        const auto rx = static_cast<std::size_t>(col[k]);
        row[rx / 64] |= std::uint64_t{1} << (rx % 64);
      }
      std::uint32_t below = 0;
      for (std::size_t w = 0; w < words; ++w) {
        rank_[tx * words + w] = below;
        below += static_cast<std::uint32_t>(std::popcount(row[w]));
      }
    }
  }

  const std::uint64_t* bits() const { return bits_.data(); }
  const std::uint32_t* rank() const { return rank_.data(); }
  std::size_t bytes() const {
    return bits_.size() * sizeof(std::uint64_t) +
           rank_.size() * sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> rank_;
};

/// Interface the flood engine consumes instead of poking Topology directly.
///
/// Implementations are stateful caches: `prepare` may recompute internal
/// storage, so a single LinkModel instance must not be shared by concurrently
/// running flood engines (one model per simulation thread, as with RNGs).
class LinkModel {
 public:
  virtual ~LinkModel() = default;

  /// The topology this model describes (radio constants, interference
  /// geometry). Every view has exactly `topology().size()` rows.
  virtual const Topology& topology() const = 0;

  /// Returns the mW link rows for `tx_power_dbm`. Implementations cache:
  /// repeated calls with the same power are O(1).
  virtual const SparseLinkView& prepare(double tx_power_dbm) = 0;
};

}  // namespace dimmer::phy
