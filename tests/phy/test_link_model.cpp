#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "flood/glossy.hpp"
#include "phy/link_model.hpp"
#include "phy/propagation.hpp"
#include "phy/sparse_link_model.hpp"
#include "phy/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::phy {
namespace {

TEST(LinkModel, EntriesMatchTopologyBitwise) {
  Topology topo = make_office18_topology();
  const int n = topo.size();
  SparseLinkModel model(topo);
  for (double power : {0.0, -7.0, 3.5}) {
    SCOPED_TRACE("tx_power_dbm " + std::to_string(power));
    const SparseLinkView& v = model.prepare(power);
    ASSERT_EQ(v.n, n);
    EXPECT_FALSE(v.skip_unreached);
    for (NodeId tx = 0; tx < n; ++tx) {
      // Every link of a dense topology exists: full rows, col[k] == k.
      ASSERT_EQ(v.row_end(tx) - v.row_begin(tx), static_cast<std::size_t>(n));
      for (NodeId rx = 0; rx < n; ++rx) {
        const std::size_t k = v.row_begin(tx) + static_cast<std::size_t>(rx);
        ASSERT_EQ(v.col[k], rx);
        // Bit-identity, not tolerance: the rows must hold the exact double
        // the historical per-reception expression produced (DESIGN.md §12).
        EXPECT_EQ(v.mw[k], dbm_to_mw(topo.rx_power_dbm(tx, rx, power)))
            << "tx=" << tx << " rx=" << rx;
      }
    }
  }
}

// The link cache GlossyFlood's convenience constructor owns (a draw-all
// SparseLinkModel), driven through the engine as callers drive it.
const SparseLinkModel& owned_links(const flood::GlossyFlood& engine) {
  return dynamic_cast<const SparseLinkModel&>(engine.link_model());
}

TEST(SparseLinkModel, PrepareRejectsNonFiniteTxPower) {
  // Regression: the cache once keyed on `power != cached_`. NaN != NaN is
  // always true, so a NaN tx power rebuilt every link on EVERY flood (and
  // filled them with NaN mW). Non-finite powers now REQUIRE-fail.
  Topology topo = make_line_topology(5, 10.0);
  InterferenceField field;
  flood::GlossyFlood engine(topo, field);
  std::vector<flood::NodeFloodConfig> cfgs(5, flood::NodeFloodConfig{2, true});
  util::Pcg32 rng(5);
  for (double power : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    flood::FloodParams p;
    p.tx_power_dbm = power;
    EXPECT_THROW((void)engine.run(0, cfgs, p, rng), util::RequireError);
  }
  EXPECT_EQ(owned_links(engine).rebuilds(), 0);  // rejected before caching
}

TEST(SparseLinkModel, RebuildsStayFlatAcrossSamePowerFloods) {
  // The user-visible half of the NaN regression: repeated floods at one TX
  // power must hit the cache every time after the first build.
  Topology topo = make_office18_topology();
  InterferenceField field;
  flood::GlossyFlood engine(topo, field);
  std::vector<flood::NodeFloodConfig> cfgs(
      18, flood::NodeFloodConfig{2, true});
  util::Pcg32 rng(5);
  for (int i = 0; i < 8; ++i) {
    flood::FloodResult r = engine.run(0, cfgs, flood::FloodParams{}, rng);
    (void)r.receiver_count();
    EXPECT_EQ(owned_links(engine).rebuilds(), 1) << "flood " << i;
  }
}

TEST(SparseLinkModel, RebuildsOnlyOnPowerChange) {
  Topology topo = make_line_topology(5, 10.0);
  InterferenceField field;
  flood::GlossyFlood engine(topo, field);
  std::vector<flood::NodeFloodConfig> cfgs(5, flood::NodeFloodConfig{2, true});
  util::Pcg32 rng(9);
  EXPECT_EQ(owned_links(engine).rebuilds(), 0);
  // Single-entry cache: going back to an earlier power recomputes.
  const double powers[] = {0.0, 0.0, 0.0, -5.0, 0.0, 0.0};
  const int want_rebuilds[] = {1, 1, 1, 2, 3, 3};
  for (int i = 0; i < 6; ++i) {
    flood::FloodParams p;
    p.tx_power_dbm = powers[i];
    (void)engine.run(0, cfgs, p, rng);
    EXPECT_EQ(owned_links(engine).rebuilds(), want_rebuilds[i])
        << "flood " << i;
  }
}

// A custom backend proving the seam: uniform link power between every pair
// of distinct nodes, regardless of the underlying topology's path loss. Rows
// are n-1 long (no self-links), so the engine scatters them.
class UniformLinkModel final : public LinkModel {
 public:
  UniformLinkModel(const Topology& topo, double mw) : topo_(&topo) {
    const int n = topo.size();
    row_ptr_.push_back(0);
    for (NodeId tx = 0; tx < n; ++tx) {
      for (NodeId rx = 0; rx < n; ++rx) {
        if (rx == tx) continue;
        col_.push_back(rx);
        mw_.push_back(mw);
      }
      row_ptr_.push_back(col_.size());
    }
    bitmaps_ = RowBitmaps(row_ptr_.data(), col_.data(), n);
    view_ = SparseLinkView{row_ptr_.data(), col_.data(), mw_.data(),
                           bitmaps_.bits(), bitmaps_.rank(), n};
  }
  const Topology& topology() const override { return *topo_; }
  const SparseLinkView& prepare(double) override { return view_; }

 private:
  const Topology* topo_;
  std::vector<std::size_t> row_ptr_;
  std::vector<NodeId> col_;
  std::vector<double> mw_;
  RowBitmaps bitmaps_;
  SparseLinkView view_;
};

TEST(LinkModel, CustomBackendDrivesFloodEngine) {
  // A line topology whose ends cannot hear each other directly...
  Topology topo = make_line_topology(6, 40.0);
  InterferenceField field;

  // ...but with an artificial backend granting every pair a strong link,
  // everyone receives in one hop.
  UniformLinkModel strong(topo, dbm_to_mw(-40.0));
  flood::GlossyFlood engine(strong, field);
  std::vector<flood::NodeFloodConfig> cfgs(
      6, flood::NodeFloodConfig{2, true});
  util::Pcg32 rng(17);
  flood::FloodResult r = engine.run(0, cfgs, flood::FloodParams{}, rng);
  EXPECT_EQ(r.receiver_count(), 5);
  for (int i = 1; i < 6; ++i) {
    EXPECT_TRUE(r.nodes[static_cast<std::size_t>(i)].received);
    EXPECT_EQ(r.nodes[static_cast<std::size_t>(i)].first_rx_step, 0);
  }

  // With links below the noise floor, nobody receives anything.
  UniformLinkModel dead(topo, dbm_to_mw(-150.0));
  flood::GlossyFlood deaf_engine(dead, field);
  util::Pcg32 rng2(17);
  flood::FloodResult r2 = deaf_engine.run(0, cfgs, flood::FloodParams{}, rng2);
  EXPECT_EQ(r2.receiver_count(), 0);
}

// A backend that hands out the CSR rows without their bitmaps and ranks.
class BitmaplessLinkModel final : public LinkModel {
 public:
  explicit BitmaplessLinkModel(const Topology& topo) : inner_(topo) {}
  const Topology& topology() const override { return inner_.topology(); }
  const SparseLinkView& prepare(double tx_power_dbm) override {
    view_ = inner_.prepare(tx_power_dbm);
    view_.row_bits = nullptr;
    view_.rank = nullptr;
    return view_;
  }

 private:
  SparseLinkModel inner_;
  SparseLinkView view_;
};

TEST(LinkModel, ViewWithoutRowBitmapsIsRejected) {
  // The step loop reaches links only through the row bitmaps, so a view
  // without them is refused at flood entry instead of read through null.
  Topology topo = make_office18_topology();
  InterferenceField field;
  BitmaplessLinkModel links(topo);
  flood::GlossyFlood engine(links, field);
  std::vector<flood::NodeFloodConfig> cfgs(
      18, flood::NodeFloodConfig{3, true});
  util::Pcg32 rng(5);
  EXPECT_THROW((void)engine.run(0, cfgs, flood::FloodParams{}, rng),
               util::RequireError);
}

TEST(LinkModel, OwningAndSeamConstructorsAgree) {
  Topology topo = make_office18_topology();
  InterferenceField field;
  SparseLinkModel model(topo);

  flood::GlossyFlood via_seam(model, field);
  flood::GlossyFlood owning(topo, field);

  std::vector<flood::NodeFloodConfig> cfgs(
      18, flood::NodeFloodConfig{3, true});
  util::Pcg32 ra(31), rb(31);
  flood::FloodResult a = via_seam.run(2, cfgs, flood::FloodParams{}, ra);
  flood::FloodResult b = owning.run(2, cfgs, flood::FloodParams{}, rb);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].received, b.nodes[i].received);
    EXPECT_EQ(a.nodes[i].first_rx_step, b.nodes[i].first_rx_step);
    EXPECT_EQ(a.nodes[i].radio_on_us, b.nodes[i].radio_on_us);
  }
  EXPECT_EQ(ra.next_u32(), rb.next_u32());
}

}  // namespace
}  // namespace dimmer::phy
