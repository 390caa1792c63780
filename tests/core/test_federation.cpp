#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/federation.hpp"
#include "lwb/scheduler.hpp"
#include "phy/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::core {
namespace {

Federation::ControllerFactory static_factory(int n_tx) {
  return [n_tx](int) { return std::make_unique<StaticController>(n_tx); };
}

FederationConfig small_cfg(int n_cells) {
  FederationConfig fc;
  fc.n_cells = n_cells;
  fc.sink = 0;
  // On an unculled topology both settings flood the same rows: every
  // listener is reached, so none is skipped.
  fc.sparse_links = false;
  return fc;
}

TEST(FederationPartition, DeterministicAndStructurallySound) {
  phy::Topology topo = phy::make_campus_topology(48, 3);
  phy::InterferenceField field;
  Federation a(topo, field, small_cfg(4), static_factory(3), 7);
  Federation b(topo, field, small_cfg(4), static_factory(3), 7);

  ASSERT_EQ(a.cell_count(), 4);
  // Same topology + same config = same partition, gateways, tree.
  for (phy::NodeId n = 0; n < 48; ++n)
    ASSERT_EQ(a.cell_of(n), b.cell_of(n)) << "node " << n;
  for (int c = 0; c < 4; ++c) {
    ASSERT_EQ(a.parent(c), b.parent(c));
    ASSERT_EQ(a.gateway(c), b.gateway(c));
    ASSERT_EQ(a.cell(c).members(), b.cell(c).members());
  }

  // Every node has a home cell; the sink's cell is the root.
  for (phy::NodeId n = 0; n < 48; ++n) ASSERT_GE(a.cell_of(n), 0);
  EXPECT_EQ(a.cell_of(a.sink()), a.root());
  EXPECT_EQ(a.parent(a.root()), -1);
  EXPECT_EQ(a.gateway(a.root()), -1);

  for (int c = 0; c < 4; ++c) {
    if (c == a.root()) continue;
    const int p = a.parent(c);
    ASSERT_GE(p, 0);
    const phy::NodeId g = a.gateway(c);
    // The gateway is a member of BOTH cells, owned by the child stripe.
    EXPECT_TRUE(a.cell(c).is_member(g));
    EXPECT_TRUE(a.cell(p).is_member(g));
    EXPECT_EQ(a.cell_of(g), c);
    // Neighbor cells run in opposite phases: a gateway is never in two
    // overlapping rounds.
    EXPECT_NE(a.cell(c).schedule_offset(), a.cell(p).schedule_offset());
    // The child's uplink: its protocol sink is the gateway (local id).
    EXPECT_EQ(a.cell(c).network().sink(), a.cell(c).to_local(g));
  }
}

TEST(FederationPartition, RejectsBadConfigs) {
  phy::Topology topo = phy::make_campus_topology(48, 3);
  phy::InterferenceField field;
  FederationConfig fc = small_cfg(30);  // 48 nodes can't fill 30 cells of >= 2
  EXPECT_THROW(Federation(topo, field, fc, static_factory(3), 1),
               util::RequireError);
  fc = small_cfg(2);
  fc.protocol.failover.backups = {1};  // global-id template knob: forbidden
  EXPECT_THROW(Federation(topo, field, fc, static_factory(3), 1),
               util::RequireError);
  fc = small_cfg(2);
  fc.sink = 99;
  EXPECT_THROW(Federation(topo, field, fc, static_factory(3), 1),
               util::RequireError);
}

/// A 1-cell federation over the whole topology must reduce exactly to the
/// single-network engine: same RoundStats, same RNG end-state, only the
/// federation bookkeeping on top.
TEST(Federation, SingleCellBitIdenticalToBareNetworkPlusScheduler) {
  phy::Topology topo = phy::make_campus_topology(48, 3);
  phy::InterferenceField field;
  const std::uint64_t seed = 21;

  FederationConfig fc = small_cfg(1);
  Federation fed(topo, field, fc, static_factory(3), seed);
  ASSERT_EQ(fed.cell_count(), 1);
  ASSERT_EQ(fed.root(), 0);

  // The bare replica mirrors what the federation derives internally: the
  // lowest own-node id coordinates, the next auto_backups ids back it up,
  // the protocol sink is the global sink, the cell seed is
  // hash_u64(seed, cell_id).
  ProtocolConfig cfg = fc.protocol;
  cfg.sink = 0;
  cfg.failover.backups = {1, 2};
  DimmerNetwork bare(topo, field, cfg, std::make_unique<StaticController>(3),
                     0, util::hash_u64(seed, 0));
  lwb::Scheduler sched;

  const std::vector<phy::NodeId> flow_sources = {47, 30, 12};
  for (phy::NodeId s : flow_sources) {
    (void)fed.add_flow(s, cfg.round_period);
    (void)sched.add_stream(s, cfg.round_period, bare.now());
  }

  for (int e = 0; e < 8; ++e) {
    const FederationStats fs = fed.run_epoch();
    const std::vector<phy::NodeId> slots =
        sched.schedule_round(bare.now(), fc.max_slots_per_round);
    const RoundStats rs = bare.run_round(slots);

    const RoundStats& cs = fed.cell(0).last_round();
    ASSERT_EQ(cs.reliability, rs.reliability) << "epoch " << e;
    ASSERT_EQ(cs.lossless, rs.lossless);
    ASSERT_EQ(cs.total_radio_on_us, rs.total_radio_on_us);
    ASSERT_EQ(cs.n_tx, rs.n_tx);
    ASSERT_EQ(cs.sources, rs.sources);
    ASSERT_EQ(cs.sink_received, rs.sink_received);

    // Federation bookkeeping is consistent with the raw round: with one
    // cell every sunk packet is a delivery and nothing bridges.
    std::uint64_t sunk = 0;
    for (bool r : rs.sink_received) sunk += r ? 1u : 0u;
    ASSERT_EQ(fs.delivered, sunk);
    ASSERT_EQ(fs.bridged, 0u);
    ASSERT_EQ(fs.originated, slots.size());
    ASSERT_EQ(fs.cells_alive, 1);
    ASSERT_EQ(fs.total_radio_on_us, rs.total_radio_on_us);
  }

  util::Pcg32 ra = bare.rng();
  util::Pcg32 rb = fed.cell(0).network().rng();
  for (int i = 0; i < 16; ++i) ASSERT_EQ(ra.next_u64(), rb.next_u64());
}

/// End-to-end bridging: flows originating in leaf stripes must reach the
/// global sink across multiple gateway hops.
TEST(Federation, BridgesLeafTrafficToTheSink) {
  phy::Topology topo = phy::make_campus_topology(48, 3);
  phy::InterferenceField field;
  Federation fed(topo, field, small_cfg(4), static_factory(3), 5);

  // One flow per non-root cell, from each cell's highest-id member.
  int flows = 0;
  for (int c = 0; c < fed.cell_count(); ++c) {
    if (c == fed.root()) continue;
    const auto& m = fed.cell(c).members();
    phy::NodeId src = m.back();
    if (src == fed.gateway(c)) src = m[m.size() - 2];
    (void)fed.add_flow(src, fed.cell(c).network().config().round_period);
    ++flows;
  }
  ASSERT_GT(flows, 0);

  std::uint64_t bridged = 0;
  for (int e = 0; e < 24; ++e) bridged += fed.run_epoch().bridged;

  EXPECT_GT(bridged, 0u);
  EXPECT_GT(fed.packets_originated(), 0u);
  EXPECT_GT(fed.packets_delivered(), 0u);
  // Deliveries can't beat the tree: each gateway hop costs an epoch.
  EXPECT_GE(fed.mean_delivery_latency_epochs(), 1.0);
  EXPECT_FALSE(fed.lost());
  EXPECT_EQ(fed.handoff_count(), 0);
}

/// The inter-cell handoff: a cell whose coordinator AND backups all die
/// stays orphaned until the federation hands its flows to the nearest alive
/// ancestor, where the shared gateway proxies them.
TEST(Federation, HandsOffDeadCellFlowsToAncestor) {
  phy::Topology topo = phy::make_campus_topology(48, 3);
  phy::InterferenceField field;
  FederationConfig fc = small_cfg(4);
  Federation fed(topo, field, fc, static_factory(3), 5);

  // Find a leaf (childless) non-root cell and give it a flow.
  int leaf = -1;
  for (int c = fed.cell_count() - 1; c >= 0; --c)
    if (c != fed.root() && fed.gateway(c) >= 0) {
      leaf = c;
      break;
    }
  ASSERT_GE(leaf, 0);
  const auto& m = fed.cell(leaf).members();
  phy::NodeId src = m.back();
  if (src == fed.gateway(leaf)) src = m[m.size() - 2];
  (void)fed.add_flow(src, fed.cell(leaf).network().config().round_period);

  for (int e = 0; e < 4; ++e) (void)fed.run_epoch();
  ASSERT_EQ(fed.handoff_count(), 0);

  fed.fail_cell_leadership(leaf);

  // The cell's rounds go orphaned; after handoff_silent_epochs consecutive
  // orphaned epochs the federation declares it dead.
  FederationStats st;
  int epochs_to_handoff = 0;
  while (fed.handoff_count() == 0 && epochs_to_handoff < 12) {
    st = fed.run_epoch();
    ++epochs_to_handoff;
  }
  EXPECT_EQ(fed.handoff_count(), 1);
  EXPECT_EQ(st.handoffs, 1);
  EXPECT_GE(epochs_to_handoff, fc.handoff_silent_epochs);
  EXPECT_TRUE(fed.cell_dead(leaf));
  EXPECT_FALSE(fed.lost());

  // The flow survives: the gateway proxies it in the parent's schedule, so
  // deliveries keep accruing after the handoff.
  const std::uint64_t delivered_at_handoff = fed.packets_delivered();
  for (int e = 0; e < 12; ++e) (void)fed.run_epoch();
  EXPECT_GT(fed.packets_delivered(), delivered_at_handoff);
}

TEST(Federation, RootCellDeathLosesTheFederation) {
  phy::Topology topo = phy::make_campus_topology(48, 3);
  phy::InterferenceField field;
  Federation fed(topo, field, small_cfg(4), static_factory(3), 5);
  (void)fed.add_flow(47, fed.cell(0).network().config().round_period);

  fed.fail_cell_leadership(fed.root());
  FederationStats st;
  for (int e = 0; e < 12 && !fed.lost(); ++e) st = fed.run_epoch();
  EXPECT_TRUE(fed.lost());
  EXPECT_TRUE(st.lost);
  EXPECT_TRUE(fed.cell_dead(fed.root()));
}

/// The worker-count invariance the campaign layer depends on: workers only
/// parallelize the flood engine, never the bridging/accounting barriers.
TEST(Federation, WorkersDoNotChangeResults) {
  phy::Topology topo = phy::make_campus_topology(48, 3);
  phy::InterferenceField field;
  FederationConfig f1 = small_cfg(4);
  f1.workers = 1;
  FederationConfig f3 = small_cfg(4);
  f3.workers = 3;
  Federation a(topo, field, f1, static_factory(3), 11);
  Federation b(topo, field, f3, static_factory(3), 11);

  for (int c = 0; c < a.cell_count(); ++c) {
    if (c == a.root()) continue;
    const auto& m = a.cell(c).members();
    phy::NodeId src = m.back();
    if (src == a.gateway(c)) src = m[m.size() - 2];
    (void)a.add_flow(src, a.cell(c).network().config().round_period);
    (void)b.add_flow(src, b.cell(c).network().config().round_period);
  }

  for (int e = 0; e < 16; ++e) {
    const FederationStats sa = a.run_epoch();
    const FederationStats sb = b.run_epoch();
    ASSERT_EQ(sa.epoch, sb.epoch);
    ASSERT_EQ(sa.cells_alive, sb.cells_alive);
    ASSERT_EQ(sa.orphaned_cells, sb.orphaned_cells);
    ASSERT_EQ(sa.min_reliability, sb.min_reliability) << "epoch " << e;
    ASSERT_EQ(sa.mean_reliability, sb.mean_reliability);
    ASSERT_EQ(sa.originated, sb.originated);
    ASSERT_EQ(sa.bridged, sb.bridged);
    ASSERT_EQ(sa.delivered, sb.delivered);
    ASSERT_EQ(sa.total_radio_on_us, sb.total_radio_on_us);
  }
  ASSERT_EQ(a.packets_originated(), b.packets_originated());
  ASSERT_EQ(a.packets_delivered(), b.packets_delivered());
  ASSERT_EQ(a.packets_dropped(), b.packets_dropped());
  ASSERT_EQ(a.mean_delivery_latency_epochs(),
            b.mean_delivery_latency_epochs());

  // Per-cell RNG lockstep: every cell drew exactly the same stream.
  for (int c = 0; c < a.cell_count(); ++c) {
    util::Pcg32 ra = a.cell(c).network().rng();
    util::Pcg32 rb = b.cell(c).network().rng();
    for (int i = 0; i < 8; ++i)
      ASSERT_EQ(ra.next_u64(), rb.next_u64()) << "cell " << c;
  }
}

TEST(FederationBalance, GreedyDeterministicAndCovering) {
  // Largest first, least-loaded bin, ties to the lowest bin index.
  EXPECT_EQ(Federation::balance({5, 3, 2, 2}, 2),
            (std::vector<int>{0, 1, 1, 0}));
  // One worker: everything in bin 0.
  EXPECT_EQ(Federation::balance({4, 4, 4}, 1), (std::vector<int>{0, 0, 0}));
  // More workers than items: each item gets its own bin, largest to bin 0.
  const std::vector<int> bins = Federation::balance({1, 9}, 4);
  EXPECT_EQ(bins[1], 0);
  EXPECT_NE(bins[0], bins[1]);
  // Loads stay near-balanced for uniform sizes.
  const std::vector<int> uniform = Federation::balance({2, 2, 2, 2, 2, 2}, 3);
  std::vector<int> load(3, 0);
  for (int b : uniform) load[static_cast<std::size_t>(b)] += 2;
  EXPECT_EQ(*std::max_element(load.begin(), load.end()), 4);
  EXPECT_THROW(Federation::balance({1}, 0), util::RequireError);
}

/// Sparse-links federations (the city-scale configuration: a topology
/// culled at construction, cells that skip unreached listeners) are fully
/// deterministic: two constructions from the same seed stay in lockstep
/// epoch by epoch, RNG end-state included.
TEST(Federation, SparseLinksFederationIsDeterministic) {
  phy::Topology topo = phy::make_campus_topology_culled(
      48, 3, phy::gain_cull_floor_db(phy::RadioConstants{}, 20.0));
  phy::InterferenceField field;
  FederationConfig fc = small_cfg(4);
  fc.sparse_links = true;
  Federation a(topo, field, fc, static_factory(3), 13);
  Federation b(topo, field, fc, static_factory(3), 13);
  (void)a.add_flow(47, a.cell(0).network().config().round_period);
  (void)b.add_flow(47, b.cell(0).network().config().round_period);

  for (int e = 0; e < 8; ++e) {
    const FederationStats sa = a.run_epoch();
    const FederationStats sb = b.run_epoch();
    ASSERT_EQ(sa.mean_reliability, sb.mean_reliability) << "epoch " << e;
    ASSERT_EQ(sa.min_reliability, sb.min_reliability);
    ASSERT_EQ(sa.originated, sb.originated);
    ASSERT_EQ(sa.bridged, sb.bridged);
    ASSERT_EQ(sa.delivered, sb.delivered);
    ASSERT_EQ(sa.total_radio_on_us, sb.total_radio_on_us);
  }
  for (int c = 0; c < a.cell_count(); ++c) {
    util::Pcg32 ra = a.cell(c).network().rng();
    util::Pcg32 rb = b.cell(c).network().rng();
    for (int i = 0; i < 8; ++i)
      ASSERT_EQ(ra.next_u64(), rb.next_u64()) << "cell " << c;
  }
}

}  // namespace
}  // namespace dimmer::core
