#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "baselines/crystal.hpp"
#include "phy/topology.hpp"

namespace dimmer::baselines {
namespace {

TEST(Crystal, CalmEpochDeliversOfferedPackets) {
  phy::Topology topo = phy::make_dcube48_topology();
  phy::InterferenceField field;
  CrystalNetwork net(topo, field, CrystalNetwork::Config{}, 0, 1);
  net.offer_packet(5);
  net.offer_packet(12);
  auto stats = net.run_epoch();
  EXPECT_EQ(stats.delivered, 2);
  EXPECT_EQ(stats.pending_after, 0);
  EXPECT_EQ(net.pending_packets(), 0);
}

TEST(Crystal, EmptyEpochTerminatesQuickly) {
  phy::Topology topo = phy::make_dcube48_topology();
  CrystalNetwork::Config cfg;
  phy::InterferenceField field;
  CrystalNetwork net(topo, field, cfg, 0, 2);
  auto stats = net.run_epoch();
  EXPECT_EQ(stats.delivered, 0);
  EXPECT_LE(stats.pairs_executed, cfg.max_silent_pairs);
  EXPECT_FALSE(stats.noise_detected);
}

TEST(Crystal, SilentEpochsAreCheap) {
  phy::Topology topo = phy::make_dcube48_topology();
  phy::InterferenceField field;
  CrystalNetwork net(topo, field, CrystalNetwork::Config{}, 0, 3);
  auto idle = net.run_epoch();
  net.offer_packet(5);
  net.offer_packet(9);
  net.offer_packet(13);
  auto busy = net.run_epoch();
  EXPECT_LT(idle.radio_on_ms * idle.pairs_executed,
            busy.radio_on_ms * busy.pairs_executed);
  EXPECT_LT(idle.total_radio_on_us, busy.total_radio_on_us);
}

TEST(Crystal, TimeAdvancesByEpochPeriod) {
  phy::Topology topo = phy::make_dcube48_topology();
  phy::InterferenceField field;
  CrystalNetwork::Config cfg;
  cfg.epoch_period = sim::seconds(1);
  CrystalNetwork net(topo, field, cfg, 0, 4);
  net.run_epoch();
  net.run_epoch();
  EXPECT_EQ(net.now(), sim::seconds(2));
}

TEST(Crystal, BacklogDrainsOverEpochs) {
  phy::Topology topo = phy::make_dcube48_topology();
  phy::InterferenceField field;
  CrystalNetwork::Config cfg;
  cfg.max_pairs = 4;  // small epochs force carry-over
  CrystalNetwork net(topo, field, cfg, 0, 5);
  for (int i = 0; i < 10; ++i) net.offer_packet(1 + i % 5);
  int delivered = 0;
  for (int e = 0; e < 8 && net.pending_packets() > 0; ++e)
    delivered += net.run_epoch().delivered;
  EXPECT_EQ(delivered, 10);
}

TEST(Crystal, NoiseDetectionExtendsEpochUnderJamming) {
  phy::Topology topo = phy::make_dcube48_topology();
  CrystalNetwork::Config cfg;
  // Jam every hopping channel near the sink, continuously and loudly.
  phy::InterferenceField field;
  phy::BurstJammer::Config jam;
  jam.position = topo.position(0);
  jam.tx_power_dbm = 10.0;
  jam.burst_us = sim::ms(50);
  jam.period_us = sim::ms(50);
  jam.channels.assign(cfg.hop_sequence.begin(), cfg.hop_sequence.end());
  field.add(std::make_unique<phy::BurstJammer>(jam));

  CrystalNetwork net(topo, field, cfg, 0, 6);
  auto stats = net.run_epoch();
  EXPECT_TRUE(stats.noise_detected);
  EXPECT_GT(stats.pairs_executed, cfg.max_silent_pairs);
}

TEST(Crystal, RejectsBadUsage) {
  phy::Topology topo = phy::make_dcube48_topology();
  phy::InterferenceField field;
  EXPECT_THROW(CrystalNetwork(topo, field, CrystalNetwork::Config{}, 99, 1),
               util::RequireError);
  CrystalNetwork::Config no_hop;
  no_hop.hop_sequence.clear();
  EXPECT_THROW(CrystalNetwork(topo, field, no_hop, 0, 1),
               util::RequireError);
  CrystalNetwork net(topo, field, CrystalNetwork::Config{}, 0, 1);
  EXPECT_THROW(net.offer_packet(0), util::RequireError);  // sink
  EXPECT_THROW(net.offer_packet(99), util::RequireError);
}

TEST(Crystal, RejectsMalformedConfig) {
  // Regression: a zero epoch period never advanced time, so
  // run_crystal_collection spun forever; a NaN noise threshold or a negative
  // extension silently turned noise detection's extra pairs off. Only the
  // constructor runs here.
  phy::Topology topo = phy::make_dcube48_topology();
  phy::InterferenceField field;
  const CrystalNetwork::Config defaults;
  CrystalNetwork::Config cfg = defaults;
  for (sim::TimeUs period : {sim::TimeUs{0}, -sim::seconds(1)}) {
    cfg.epoch_period = period;
    EXPECT_THROW(CrystalNetwork(topo, field, cfg, 0, 1), util::RequireError);
  }
  cfg.epoch_period = defaults.epoch_period;
  for (double threshold : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    cfg.noise_threshold_dbm = threshold;
    EXPECT_THROW(CrystalNetwork(topo, field, cfg, 0, 1), util::RequireError);
  }
  cfg.noise_threshold_dbm = defaults.noise_threshold_dbm;
  cfg.extra_pairs_on_noise = -1;
  EXPECT_THROW(CrystalNetwork(topo, field, cfg, 0, 1), util::RequireError);
  // No extension at all is a valid configuration.
  cfg.extra_pairs_on_noise = 0;
  EXPECT_NO_THROW(CrystalNetwork(topo, field, cfg, 0, 1));
}

TEST(CrystalCollection, CleanRunIsFullyReliable) {
  phy::Topology topo = phy::make_dcube48_topology();
  phy::InterferenceField field;
  CrystalNetwork net(topo, field, CrystalNetwork::Config{}, 0, 7);
  auto res = run_crystal_collection(net, 5, sim::seconds(5),
                                    sim::minutes(2), 7);
  EXPECT_GT(res.sent, 10);
  EXPECT_DOUBLE_EQ(res.reliability, 1.0);
  EXPECT_GT(res.radio_duty, 0.0);
  EXPECT_LT(res.radio_duty, 0.3);
}

TEST(CrystalCollection, RejectsBadArguments) {
  phy::Topology topo = phy::make_dcube48_topology();
  phy::InterferenceField field;
  CrystalNetwork net(topo, field, CrystalNetwork::Config{}, 0, 8);
  EXPECT_THROW(run_crystal_collection(net, 0, sim::seconds(5),
                                      sim::minutes(1), 1),
               util::RequireError);
  EXPECT_THROW(run_crystal_collection(net, 5, 0, sim::minutes(1), 1),
               util::RequireError);
}

}  // namespace
}  // namespace dimmer::baselines
