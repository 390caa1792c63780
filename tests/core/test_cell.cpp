#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cell.hpp"
#include "core/protocol.hpp"
#include "obs/trace.hpp"
#include "phy/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::core {
namespace {

std::vector<phy::NodeId> all_sources(int n) {
  std::vector<phy::NodeId> s;
  for (int i = 1; i < n; ++i) s.push_back(i);
  s.push_back(0);
  return s;
}

std::vector<phy::NodeId> iota_members(int n) {
  std::vector<phy::NodeId> m(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) m[static_cast<std::size_t>(i)] = i;
  return m;
}

CellConfig full_cell_config(int n) {
  CellConfig cc;
  cc.cell_id = 0;
  cc.members = iota_members(n);
  cc.coordinator = 0;
  return cc;
}

/// The tentpole identity proof: a Cell covering ALL nodes must be
/// bit-identical to a bare DimmerNetwork over the global topology — same
/// RoundStats, same per-node per-slot FloodResults, same RNG end-state.
TEST(Cell, FullMembershipBitIdenticalToBareNetwork) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  const std::uint64_t seed = 17;

  ProtocolConfig cfg;
  cfg.failover.backups = {1, 2};
  DimmerNetwork bare(topo, field, cfg, std::make_unique<StaticController>(3),
                     0, seed);

  CellConfig cc = full_cell_config(18);
  cc.protocol = cfg;
  Cell cell(topo, field, cc, std::make_unique<StaticController>(3), seed);

  const std::vector<phy::NodeId> sources = all_sources(18);
  for (int r = 0; r < 6; ++r) {
    RoundStats a = bare.run_round(sources);
    const RoundStats& b = cell.run_round(sources);
    ASSERT_EQ(a.reliability, b.reliability) << "round " << r;
    ASSERT_EQ(a.lossless, b.lossless);
    ASSERT_EQ(a.radio_on_ms, b.radio_on_ms);
    ASSERT_EQ(a.total_radio_on_us, b.total_radio_on_us);
    ASSERT_EQ(a.n_tx, b.n_tx);
    ASSERT_EQ(a.desynchronized, b.desynchronized);
    ASSERT_EQ(a.sink_received, b.sink_received);

    // Per-slot, per-node flood outcomes, bit for bit.
    const lwb::RoundResult& ra = bare.last_round_result();
    const lwb::RoundResult& rb = cell.network().last_round_result();
    ASSERT_EQ(ra.data.size(), rb.data.size());
    for (std::size_t k = 0; k < ra.data.size(); ++k) {
      const flood::FloodResult& fa = ra.data[k].flood;
      const flood::FloodResult& fb = rb.data[k].flood;
      ASSERT_EQ(fa.steps_simulated, fb.steps_simulated);
      ASSERT_EQ(fa.nodes.size(), fb.nodes.size());
      for (std::size_t i = 0; i < fa.nodes.size(); ++i) {
        ASSERT_EQ(fa.nodes[i].received, fb.nodes[i].received);
        ASSERT_EQ(fa.nodes[i].first_rx_step, fb.nodes[i].first_rx_step);
        ASSERT_EQ(fa.nodes[i].transmissions, fb.nodes[i].transmissions);
        ASSERT_EQ(fa.nodes[i].radio_on_us, fb.nodes[i].radio_on_us);
      }
    }
  }

  // RNG end-state: equal future draws == every in-simulation draw matched.
  util::Pcg32 ra = bare.rng();
  util::Pcg32 rb = cell.network().rng();
  for (int i = 0; i < 16; ++i) ASSERT_EQ(ra.next_u64(), rb.next_u64());
}

TEST(Cell, RemapsIdsBothWays) {
  phy::Topology topo = phy::make_campus_topology(48, 3);
  phy::InterferenceField field;
  CellConfig cc;
  cc.cell_id = 4;
  cc.members = {3, 7, 20, 21, 40};
  cc.coordinator = 7;
  Cell cell(topo, field, cc, std::make_unique<StaticController>(3), 1);

  EXPECT_EQ(cell.id(), 4);
  EXPECT_EQ(cell.size(), 5);
  EXPECT_EQ(cell.to_local(3), 0);
  EXPECT_EQ(cell.to_local(40), 4);
  EXPECT_EQ(cell.to_global(2), 20);
  EXPECT_TRUE(cell.is_member(21));
  EXPECT_FALSE(cell.is_member(22));
  EXPECT_FALSE(cell.is_member(-1));
  EXPECT_THROW((void)cell.to_local(22), util::RequireError);
  EXPECT_THROW((void)cell.to_global(5), util::RequireError);
  // The coordinator was remapped into local id space.
  EXPECT_EQ(cell.network().coordinator(), 1);
  EXPECT_EQ(cell.topology().parent_id(1), 7);
}

TEST(Cell, RemapsSinkAndBackupsFromGlobalIds) {
  phy::Topology topo = phy::make_campus_topology(48, 3);
  phy::InterferenceField field;
  CellConfig cc;
  cc.members = {3, 7, 20, 21, 40};
  cc.coordinator = 7;
  cc.protocol.sink = 40;
  cc.protocol.failover.backups = {20, 21};
  Cell cell(topo, field, cc, std::make_unique<StaticController>(3), 1);
  EXPECT_EQ(cell.network().sink(), 4);
  EXPECT_EQ(cell.network().config().failover.backups,
            (std::vector<phy::NodeId>{2, 3}));
}

TEST(Cell, RejectsNonMemberCoordinatorOrSink) {
  phy::Topology topo = phy::make_campus_topology(48, 3);
  phy::InterferenceField field;
  CellConfig cc;
  cc.members = {3, 7, 20};
  cc.coordinator = 8;  // not a member
  EXPECT_THROW(Cell(topo, field, cc, std::make_unique<StaticController>(3), 1),
               util::RequireError);
  cc.coordinator = 7;
  cc.protocol.sink = 9;  // not a member
  EXPECT_THROW(Cell(topo, field, cc, std::make_unique<StaticController>(3), 1),
               util::RequireError);
}

TEST(Cell, TracesCarryCellTag) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  CellConfig cc = full_cell_config(18);
  cc.cell_id = 7;
  Cell cell(topo, field, cc, std::make_unique<StaticController>(3), 1);

  obs::RingBufferSink sink(256);
  cell.set_instrumentation(obs::Instrumentation{&sink, nullptr});
  (void)cell.run_round(all_sources(18));

  ASSERT_GT(sink.size(), 0u);
  for (const obs::TraceEvent& e : sink.events()) {
    bool tagged = false;
    for (const auto& t : e.tags)
      if (t.first == "cell" && t.second == "7") tagged = true;
    EXPECT_TRUE(tagged) << "untagged event kind=" << e.kind;
  }
}

/// A sparse-links Cell covering all nodes must be bit-identical to a bare
/// DimmerNetwork bound to a listener-skipping SparseLinkModel over the
/// global topology: the identity restriction copies every stored gain
/// bit-for-bit, so both models hold exactly the same links.
TEST(Cell, SparseLinksFullMembershipBitIdenticalToBareSparseNetwork) {
  phy::Topology topo = phy::make_campus_topology_culled(
      48, 5, phy::gain_cull_floor_db(phy::RadioConstants{}, 20.0));
  phy::InterferenceField field;
  const std::vector<phy::NodeId> sources = all_sources(48);
  const std::uint64_t seed = 9;

  phy::SparseLinkModel links(topo,
                             phy::SparseLinkModel::Listeners::kSkipUnreached);
  DimmerNetwork bare(links, field, ProtocolConfig{},
                     std::make_unique<StaticController>(3), 0, seed);

  CellConfig cc = full_cell_config(48);
  cc.sparse_links = true;
  Cell cell(topo, field, cc, std::make_unique<StaticController>(3), seed);

  for (int r = 0; r < 4; ++r) {
    const RoundStats a = bare.run_round(sources);
    const RoundStats& b = cell.run_round(sources);
    ASSERT_EQ(a.reliability, b.reliability) << "round " << r;
    ASSERT_EQ(a.total_radio_on_us, b.total_radio_on_us);
    ASSERT_EQ(a.sink_received, b.sink_received);
  }
  util::Pcg32 ra = bare.rng();
  util::Pcg32 rb = cell.network().rng();
  for (int i = 0; i < 16; ++i) ASSERT_EQ(ra.next_u64(), rb.next_u64());
}

}  // namespace
}  // namespace dimmer::core
