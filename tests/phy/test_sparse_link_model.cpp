// SparseLinkModel unit + property suite (DESIGN.md §13).
//
// Four contracts are pinned here: (a) on a dense topology every CSR row is
// full and bitwise equal to dbm_to_mw(rx_power_dbm) per listener, and links
// the topology does not store are never stored, (b) the rows are the
// Topology's own rows — its offsets and columns, the links at or above its
// construction-time floor — and every stored link keeps its full-row bits,
// (c) the power a listener loses to that floor is provably bounded: each
// culled link sits below the floor, so the per-listener sum is below
// floor_mw * fan-in, which a margin of headroom + 10*log10(n-1) dB keeps
// under the noise floor itself, (d) that bound shows up end to end:
// floods on a culled topology deliver like unculled ones, and (e) each
// row's bitmap and rank locate exactly its stored links.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "phy/link_model.hpp"
#include "phy/propagation.hpp"
#include "phy/sparse_link_model.hpp"
#include "phy/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::phy {
namespace {

/// Every listener's mW power for a transmission from `tx`: the expression
/// an unculled row stores, dbm_to_mw(rx_power_dbm) per listener.
std::vector<double> full_row_mw(const Topology& topo, NodeId tx,
                                double power) {
  std::vector<double> mw(static_cast<std::size_t>(topo.size()));
  for (NodeId rx = 0; rx < topo.size(); ++rx)
    mw[static_cast<std::size_t>(rx)] =
        dbm_to_mw(topo.rx_power_dbm(tx, rx, power));
  return mw;
}

/// A culling margin whose summed culled power at any listener stays at
/// least `headroom_db` below the noise floor even if all n-1 other nodes
/// transmit at once: floor_mw * (n-1) <= noise_mw * 10^(-headroom_db/10)
/// <=> margin_db >= headroom_db + 10*log10(n-1).
double bounded_margin(int n, double headroom_db = 10.0) {
  return headroom_db + 10.0 * std::log10(static_cast<double>(n - 1));
}

/// `topo` rebuilt with its links culled at construction: gains below
/// gain_cull_floor_db(radio, margin_db) are not stored. Stored gains keep
/// their bits (same positions, model and shadowing seed).
Topology culled_at_construction(const Topology& topo, double margin_db) {
  std::vector<Vec2> positions;
  for (NodeId i = 0; i < topo.size(); ++i)
    positions.push_back(topo.position(i));
  return Topology(positions, topo.path_loss(), topo.radio(),
                  topo.shadow_seed(),
                  gain_cull_floor_db(topo.radio(), margin_db));
}

TEST(SparseLinkModel, NoCullingRowsBitwiseMatchDense) {
  for (int which : {0, 1}) {
    Topology topo =
        which == 0 ? make_office18_topology() : make_dcube48_topology();
    SCOPED_TRACE(which == 0 ? "office18" : "dcube48");
    const int n = topo.size();
    const auto un = static_cast<std::size_t>(n);

    SparseLinkModel sparse(topo);

    for (double power : {0.0, -7.0, 3.0}) {
      SCOPED_TRACE("tx_power_dbm " + std::to_string(power));
      const SparseLinkView& got = sparse.prepare(power);
      ASSERT_EQ(got.n, n);
      ASSERT_EQ(got.nnz(), un * un);  // every link is stored
      EXPECT_FALSE(got.skip_unreached);
      for (NodeId tx = 0; tx < n; ++tx) {
        const std::vector<double> row = full_row_mw(topo, tx, power);
        const std::size_t begin = got.row_begin(tx);
        ASSERT_EQ(got.row_end(tx) - begin, un);
        for (NodeId rx = 0; rx < n; ++rx) {
          const std::size_t k = begin + static_cast<std::size_t>(rx);
          EXPECT_EQ(got.col[k], rx);  // full row, ascending listener ids
          // Exact bits, not NEAR: the same dbm_to_mw(rx_power_dbm)
          // expression.
          EXPECT_EQ(got.mw[k], row[static_cast<std::size_t>(rx)])
              << "tx " << tx << " rx " << rx;
        }
      }
    }
  }
}

TEST(SparseLinkModel, NoCullingStoresOnlyExistingLinks) {
  // Regression: a keep test `dbm >= -inf` once also passed the -inf dBm
  // pairs a construction-culled Topology reports for links that do not
  // exist, so the CSR held N^2 entries, the missing links as 0.0 mW. Only
  // the Topology's stored, finite-dBm links may be stored.
  const double floor_db = gain_cull_floor_db(RadioConstants{}, 20.0);
  Topology topo = make_campus_topology_culled(256, 1, floor_db);
  ASSERT_LT(topo.gain_nnz(), static_cast<std::size_t>(256) * 256);
  SparseLinkModel sparse(topo);
  const SparseLinkView& view = sparse.prepare(0.0);
  EXPECT_EQ(view.nnz(), topo.gain_nnz());
  EXPECT_FALSE(view.skip_unreached);  // the engine draws every listener
  for (std::size_t k = 0; k < view.nnz(); ++k) EXPECT_GT(view.mw[k], 0.0);
}

TEST(SparseLinkModel, ListenerSkipFollowsTheConstructor) {
  Topology topo = make_office18_topology();
  SparseLinkModel draw_all(topo);
  SparseLinkModel skip(topo, SparseLinkModel::Listeners::kSkipUnreached);
  EXPECT_FALSE(draw_all.prepare(0.0).skip_unreached);
  // Office rows are full, so no listener is ever unreached — the flag keys
  // on the constructor's choice, not on whether any link is missing.
  const SparseLinkView& v = skip.prepare(0.0);
  EXPECT_TRUE(v.skip_unreached);
  EXPECT_EQ(v.nnz(), static_cast<std::size_t>(18) * 18);
}

TEST(SparseLinkModel, CullingDropsExactlySubFloorLinks) {
  // The rows are the Topology's rows. A 64-node line at 12 m pitch spans
  // 756 m — far beyond the 20 dB floor's reach — so culling at
  // construction drops most pairs.
  const Topology full = make_line_topology(64, 12.0);
  const Topology topo = culled_at_construction(full, 20.0);
  const int n = topo.size();
  SparseLinkModel sparse(topo);

  const double power = 0.0;
  const SparseLinkView& view = sparse.prepare(power);
  // The view borrows the Topology's offsets and columns; the model holds
  // the mW values and 12 B (a bitmap word and its rank) per row word.
  EXPECT_EQ(view.row_ptr, topo.gain_csr().row_ptr);
  EXPECT_EQ(view.col, topo.gain_csr().col);
  EXPECT_EQ(view.nnz(), topo.gain_nnz());
  EXPECT_EQ(sparse.storage_bytes(),
            sizeof(double) * topo.gain_nnz() +
                12 * static_cast<std::size_t>(n) * bitset_words(n));

  ASSERT_LT(view.nnz(), static_cast<std::size_t>(n) * n / 4);
  ASSERT_GT(view.nnz(), 0u);

  const double floor_dbm = topo.gain_floor_db() + power;
  EXPECT_EQ(floor_dbm, topo.radio().noise_floor_dbm - 20.0);
  for (NodeId tx = 0; tx < n; ++tx) {
    const std::vector<double> want = full_row_mw(full, tx, power);
    std::size_t k = view.row_begin(tx);
    const std::size_t end = view.row_end(tx);
    NodeId prev = -1;
    for (NodeId rx = 0; rx < n; ++rx) {
      const bool kept = k < end && view.col[k] == rx;
      if (full.rx_power_dbm(tx, rx, power) >= floor_dbm) {
        ASSERT_TRUE(kept) << "link above the floor missing: tx " << tx
                          << " rx " << rx;
        EXPECT_GT(view.col[k], prev);  // ascending within the row
        EXPECT_GT(view.mw[k], 0.0);
        // The unculled full-row bits.
        EXPECT_EQ(view.mw[k], want[static_cast<std::size_t>(rx)]);
        prev = view.col[k];
        ++k;
      } else {
        ASSERT_FALSE(kept) << "sub-floor link kept: tx " << tx << " rx " << rx;
      }
    }
    EXPECT_EQ(k, end);  // no stray entries beyond the scanned listeners
  }
}

TEST(SparseLinkModel, CulledPowerIsBoundedBelowNoiseFloor) {
  // The property behind bounded_margin: with margin >= headroom +
  // 10*log10(n-1), the total mW a listener loses to culling — even if all
  // n-1 other nodes transmitted at once — stays at least `headroom` dB
  // under the noise floor's own contribution to SINR.
  const double headroom_db = 10.0;
  for (int which : {0, 1}) {
    const Topology full =
        which == 0 ? make_line_topology(256, 12.0) : make_dcube48_topology();
    SCOPED_TRACE(which == 0 ? "line256" : "dcube48");
    const int n = full.size();
    const Topology topo =
        culled_at_construction(full, bounded_margin(n, headroom_db));
    SparseLinkModel sparse(topo);

    const double power = 0.0;
    const SparseLinkView& view = sparse.prepare(power);
    const double floor_mw = dbm_to_mw(topo.gain_floor_db() + power);
    const double noise_mw = dbm_to_mw(topo.radio().noise_floor_dbm);

    // The analytic bound itself: worst-case summed culled power < noise/10.
    ASSERT_LE(floor_mw * (n - 1),
              noise_mw * std::pow(10.0, -headroom_db / 10.0) * (1 + 1e-12));

    std::vector<double> culled_sum(static_cast<std::size_t>(n), 0.0);
    for (NodeId tx = 0; tx < n; ++tx) {
      const std::vector<double> row = full_row_mw(full, tx, power);
      std::size_t k = view.row_begin(tx);
      const std::size_t end = view.row_end(tx);
      for (NodeId rx = 0; rx < n; ++rx) {
        if (k < end && view.col[k] == rx) {
          ++k;  // survivor
          continue;
        }
        const double lost = row[static_cast<std::size_t>(rx)];
        EXPECT_LT(lost, floor_mw);  // every culled link sits below the floor
        culled_sum[static_cast<std::size_t>(rx)] += lost;
      }
    }
    for (NodeId rx = 0; rx < n; ++rx) {
      EXPECT_LE(culled_sum[static_cast<std::size_t>(rx)],
                floor_mw * (n - 1) * (1 + 1e-12));
      EXPECT_LT(culled_sum[static_cast<std::size_t>(rx)], noise_mw);
    }
  }
}

TEST(SparseLinkModel, CachesByPreparedPower) {
  Topology topo = make_office18_topology();
  SparseLinkModel sparse(topo);
  EXPECT_EQ(sparse.rebuilds(), 0);
  (void)sparse.prepare(0.0);
  (void)sparse.prepare(0.0);
  EXPECT_EQ(sparse.rebuilds(), 1);
  (void)sparse.prepare(-7.0);
  EXPECT_EQ(sparse.rebuilds(), 2);
  (void)sparse.prepare(0.0);  // cache keys on the last power only
  EXPECT_EQ(sparse.rebuilds(), 3);
  (void)sparse.prepare(0.0);
  EXPECT_EQ(sparse.rebuilds(), 3);
}

TEST(SparseLinkModel, RejectsNonFinitePowerWithoutRebuilding) {
  Topology topo = make_office18_topology();
  SparseLinkModel sparse(topo);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)sparse.prepare(nan), util::RequireError);
  EXPECT_THROW((void)sparse.prepare(inf), util::RequireError);
  EXPECT_THROW((void)sparse.prepare(-inf), util::RequireError);
  EXPECT_EQ(sparse.rebuilds(), 0);
}

TEST(SparseLinkModel, RowBitmapsLocateEveryStoredLink) {
  // 130 nodes: three bitmap words per row, the last holding ids 128 and
  // 129. In every row the set bits are exactly the stored columns, and a
  // set bit's rank plus the set bits below it in its word is its offset.
  const Topology full = make_campus_topology(130);
  const Topology culled = make_campus_topology_culled(130, 1, -80.0);
  for (const Topology* topo : {&full, &culled}) {
    SparseLinkModel model(*topo);
    const SparseLinkView& v = model.prepare(0.0);
    const std::size_t words = v.words();
    ASSERT_EQ(words, 3u);
    for (NodeId tx = 0; tx < topo->size(); ++tx) {
      SCOPED_TRACE("row " + std::to_string(tx));
      const std::size_t first = static_cast<std::size_t>(tx) * words;
      std::vector<NodeId> listed;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t row = v.row_bits[first + w];
        for (unsigned b = 0; b < 64; ++b) {
          if ((row >> b & 1) == 0) continue;
          const auto rx = static_cast<NodeId>(64 * w + b);
          const std::size_t k =
              v.row_begin(tx) + v.rank[first + w] +
              static_cast<std::size_t>(
                  std::popcount(row & ((std::uint64_t{1} << b) - 1)));
          ASSERT_LT(k, v.row_end(tx));
          EXPECT_EQ(v.col[k], rx);
          listed.push_back(rx);
        }
      }
      EXPECT_EQ(listed, std::vector<NodeId>(v.col + v.row_begin(tx),
                                            v.col + v.row_end(tx)));
    }
  }
  // The culled rows are partial, so the ranks are not just 64 * w.
  EXPECT_LT(culled.gain_nnz(), static_cast<std::size_t>(130) * 130);
}

TEST(SparseLinkModel, StorageScalesWithSurvivorsNotNodes) {
  // On a long line the CSR holds a thin band around the diagonal; the dense
  // matrix would hold 8*N^2 bytes regardless.
  const Topology topo =
      culled_at_construction(make_line_topology(256, 12.0), 20.0);
  const auto un = static_cast<std::size_t>(topo.size());
  SparseLinkModel sparse(topo);
  const SparseLinkView& view = sparse.prepare(0.0);
  EXPECT_GT(view.nnz(), 0u);
  EXPECT_LT(view.nnz(), un * un / 8);
  EXPECT_LT(sparse.storage_bytes(), sizeof(double) * un * un / 4);
}

/// Cycling-initiator floods, every node forwarding `n_tx` times in
/// `slot_len` slots `period` apart, through full rows of `unculled_topo` and
/// through the rows of `culled_topo`, skipping unreached listeners. With
/// real culling the per-reception outcomes may differ (interference sums
/// lose sub-floor terms and RNG streams drift after the first skipped
/// listener), but the culled power is below the noise floor, so the
/// *aggregate* delivery ratio must stay put.
void expect_culling_preserves_delivery(const Topology& unculled_topo,
                                       const Topology& culled_topo,
                                       const InterferenceField& field,
                                       sim::TimeUs slot_len,
                                       sim::TimeUs period, int n_tx,
                                       int floods) {
  const int n = unculled_topo.size();
  ASSERT_EQ(culled_topo.size(), n);
  const std::vector<flood::NodeFloodConfig> cfgs(
      static_cast<std::size_t>(n), flood::NodeFloodConfig{n_tx, true});

  flood::GlossyFlood unculled_engine(unculled_topo, field);
  SparseLinkModel links(culled_topo,
                        SparseLinkModel::Listeners::kSkipUnreached);
  flood::GlossyFlood culled_engine(links, field);

  util::Pcg32 rng_unculled(2026);
  util::Pcg32 rng_culled(2026);
  flood::FloodWorkspace ws_unculled, ws_culled;
  flood::FloodResult r_unculled, r_culled;
  double sum_unculled = 0.0, sum_culled = 0.0;
  for (int k = 0; k < floods; ++k) {
    flood::FloodParams p;
    p.slot_len_us = slot_len;
    p.slot_start_us = k * period;
    const NodeId init = static_cast<NodeId>(k % n);
    unculled_engine.run_into(init, cfgs, p, rng_unculled, ws_unculled,
                             r_unculled);
    culled_engine.run_into(init, cfgs, p, rng_culled, ws_culled, r_culled);
    sum_unculled += r_unculled.delivery_ratio();
    sum_culled += r_culled.delivery_ratio();
  }
  EXPECT_NEAR(sum_culled / floods, sum_unculled / floods, 0.05);
  EXPECT_GT(sum_culled / floods, 0.5);  // the culled floods actually flood
}

TEST(SparseLinkModel, CullingPreservesDeliveryRatioOnDcube48) {
  Topology topo = make_dcube48_topology();
  InterferenceField field;
  core::add_static_jamming(field, topo, 0.3);
  expect_culling_preserves_delivery(
      topo, culled_at_construction(topo, bounded_margin(topo.size())), field,
      sim::ms(20), sim::ms(25), 2, 200);
}

TEST(SparseLinkModel, CullingPreservesDeliveryRatioOnCulledCampus) {
  // A campus culled at construction at the 20 dB floor: sub-floor links are
  // never stored, and campus floods cross several hops, so the slots are
  // 60 ms instead of the office's 20 ms.
  const Topology full = make_campus_topology(128);
  const Topology culled = make_campus_topology_culled(
      128, 1, gain_cull_floor_db(RadioConstants{}, 20.0));
  expect_culling_preserves_delivery(full, culled, InterferenceField{},
                                    sim::ms(60), sim::ms(80), 2, 20);
}

}  // namespace
}  // namespace dimmer::phy
