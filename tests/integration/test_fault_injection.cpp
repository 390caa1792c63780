// Crash-fault injection: nodes dropping out of (and rejoining) a live
// network. Exercises the pessimistic-feedback path the paper's design
// implies: a coordinator cannot distinguish a crashed node from a jammed
// one, so missing feedback escalates N_TX until the operator prunes the
// feedback subset.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/pid.hpp"
#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "fault/plan.hpp"
#include "phy/topology.hpp"
#include "util/stats.hpp"

namespace dimmer {
namespace {

std::vector<phy::NodeId> sources_excluding(int n, phy::NodeId skip) {
  std::vector<phy::NodeId> s;
  for (int i = 1; i < n; ++i)
    if (i != skip) s.push_back(i);
  s.push_back(0);
  return s;
}

TEST(FaultInjection, NetworkSurvivesALeafCrash) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field, core::ProtocolConfig{},
                          std::make_unique<core::StaticController>(3), 0, 1);
  net.set_node_failed(17, true);  // far-end leaf
  auto sources = sources_excluding(18, 17);
  util::RunningStats rel;
  for (int r = 0; r < 20; ++r) rel.add(net.run_round(sources).reliability);
  // Remaining destinations still get everything.
  EXPECT_GT(rel.mean(), 0.999);
}

TEST(FaultInjection, CrashedNodeConsumesNoEnergy) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field, core::ProtocolConfig{},
                          std::make_unique<core::StaticController>(3), 0, 2);
  net.set_node_failed(9, true);
  core::RoundStats before = net.run_round(sources_excluding(18, 9));
  (void)before;
  // The failed node's stats collector never advances.
  EXPECT_EQ(net.stats(9).reception_slots_seen(), 0u);
}

TEST(FaultInjection, CrashedSourceYieldsSilentSlots) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field, core::ProtocolConfig{},
                          std::make_unique<core::StaticController>(3), 0, 3);
  net.set_node_failed(5, true);
  // Node 5 stays in the schedule (the coordinator does not know yet).
  std::vector<phy::NodeId> sources;
  for (int i = 1; i < 18; ++i) sources.push_back(i);
  core::RoundStats rs = net.run_round(sources);
  EXPECT_FALSE(rs.lossless);      // everyone misses node 5's packets
  EXPECT_LT(rs.reliability, 1.0);
  EXPECT_FALSE(rs.sink_received[4]);  // slot of source 5 (index 4)
}

TEST(FaultInjection, MissingFeedbackEscalatesAdaptiveController) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field, core::ProtocolConfig{},
                          std::make_unique<baselines::PidController>(), 0, 4);
  auto sources = sources_excluding(18, -1);  // everyone reports
  for (int r = 0; r < 5; ++r) net.run_round(sources);
  EXPECT_LE(net.commanded_n_tx(), 4);  // calm network, cheap parameter
  // Node 11 crashes but stays scheduled: its silence reads as losses and
  // 0% reliability, so the controller escalates.
  net.set_node_failed(11, true);
  for (int r = 0; r < 10; ++r) net.run_round(sources);
  EXPECT_EQ(net.commanded_n_tx(), 8);
}

TEST(FaultInjection, FeedbackSubsetPruningRestoresCalm) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::ProtocolConfig cfg;
  for (int i = 0; i < 18; ++i)
    if (i != 11) cfg.feedback_nodes.push_back(i);  // 11 pre-excluded
  core::DimmerNetwork net(topo, field, cfg,
                          std::make_unique<baselines::PidController>(), 0, 5);
  net.set_node_failed(11, true);
  auto sources = sources_excluding(18, 11);
  for (int r = 0; r < 10; ++r) net.run_round(sources);
  EXPECT_LE(net.commanded_n_tx(), 4);  // the crash is invisible and harmless
}

TEST(FaultInjection, RecoveredNodeResynchronizes) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field, core::ProtocolConfig{},
                          std::make_unique<core::StaticController>(3), 0, 6);
  auto sources = sources_excluding(18, -1);  // node 13 stays scheduled
  net.set_node_failed(13, true);
  for (int r = 0; r < 5; ++r) {
    core::RoundStats down = net.run_round(sources);
    EXPECT_LT(down.reliability, 1.0);  // its slots are silent
  }
  EXPECT_TRUE(net.node_failed(13));
  net.set_node_failed(13, false);
  core::RoundStats rs{};
  for (int r = 0; r < 4; ++r) rs = net.run_round(sources);
  // Back in sync: the node hears schedules, sources again, and its header
  // reaches the coordinator.
  EXPECT_TRUE(net.snapshot(0).fresh(13));
  EXPECT_GT(rs.reliability, 0.99);
}

TEST(FaultInjection, SetNodeFailedRejectsOutOfRange) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field, core::ProtocolConfig{},
                          std::make_unique<core::StaticController>(3), 0, 7);
  EXPECT_THROW(net.set_node_failed(99, true), util::RequireError);
  EXPECT_THROW(net.set_node_failed(-1, true), util::RequireError);
}

// ---- Coordinator failover --------------------------------------------------

core::ProtocolConfig failover_config(core::FailoverConfig::Mode mode) {
  core::ProtocolConfig cfg;
  cfg.failover.backups = {1, 2};
  cfg.failover.takeover_silent_rounds = 3;
  cfg.failover.mode = mode;
  return cfg;
}

TEST(Failover, CoordinatorCrashOrphansRoundsWithoutBackups) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field, core::ProtocolConfig{},
                          std::make_unique<core::StaticController>(3), 0, 21);
  auto sources = sources_excluding(18, -1);
  for (int r = 0; r < 5; ++r) net.run_round(sources);
  net.set_node_failed(0, true);  // no backups configured: orphaned for good
  core::RoundStats rs{};
  for (int r = 0; r < 6; ++r) {
    rs = net.run_round(sources);
    EXPECT_TRUE(rs.orphaned);
    EXPECT_FALSE(rs.coordinator_lossless);
  }
  // Everyone coasts past max_sync_age and desynchronizes; the network dies
  // quietly instead of throwing.
  EXPECT_EQ(rs.desynchronized, 18);
  EXPECT_EQ(rs.reliability, 0.0);
  EXPECT_EQ(net.failover_count(), 0);
}

TEST(Failover, BackupTakesOverWithinKRoundsAndNetworkReconverges) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field,
                          failover_config(core::FailoverConfig::Mode::kWarm),
                          std::make_unique<core::StaticController>(3), 0, 22);
  auto sources = sources_excluding(18, -1);
  for (int r = 0; r < 5; ++r) net.run_round(sources);
  net.set_node_failed(0, true);

  int orphaned = 0, failover_round = -1;
  core::RoundStats rs{};
  for (int r = 0; r < 10; ++r) {
    rs = net.run_round(sources);
    if (rs.orphaned) ++orphaned;
    if (rs.failover && failover_round < 0) failover_round = r;
  }
  // Exactly K rounds of silence, then backup 1 takes over.
  EXPECT_EQ(orphaned, 3);
  EXPECT_EQ(failover_round, 3);
  EXPECT_EQ(net.coordinator(), 1);
  EXPECT_EQ(net.failover_count(), 1);
  EXPECT_GT(net.last_rounds_to_resync(), 0);
  // The dead coordinator stays scheduled, so its slots are silent; every
  // surviving destination pair works again.
  util::RunningStats rel;
  for (int r = 0; r < 5; ++r) rel.add(net.run_round(sources).reliability);
  double n_pairs = 18.0 * 17.0, dead_pairs = 17.0 + 16.0;
  EXPECT_GT(rel.mean(), (n_pairs - dead_pairs) / n_pairs - 0.01);
  EXPECT_EQ(rs.coordinator, 1);
}

TEST(Failover, WarmKeepsControllerMemoryColdResetsIt) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  double integral[2] = {0.0, 0.0};
  const core::FailoverConfig::Mode modes[2] = {
      core::FailoverConfig::Mode::kWarm, core::FailoverConfig::Mode::kCold};
  for (int m = 0; m < 2; ++m) {
    core::DimmerNetwork net(topo, field, failover_config(modes[m]),
                            std::make_unique<baselines::PidController>(), 0,
                            23);
    auto sources = sources_excluding(18, -1);
    // 40 calm rounds drain the PID integral via energy pressure.
    for (int r = 0; r < 40; ++r) net.run_round(sources);
    net.set_node_failed(0, true);
    for (int r = 0; r < 4; ++r) net.run_round(sources);  // 3 orphans + takeover
    ASSERT_EQ(net.failover_count(), 1) << "mode " << m;
    integral[m] =
        dynamic_cast<const baselines::PidController&>(net.controller())
            .integral();
  }
  // Both modes see the same big lossy error on the takeover round (the dead
  // ex-coordinator's slots are silent), but warm carries the drained
  // pre-crash integral into it while cold starts from zero — so the cold
  // integral ends strictly higher, by roughly the drained amount.
  EXPECT_GT(integral[1], integral[0] + 2.0);
  EXPECT_NEAR(integral[1] - integral[0], 40 * 0.18, 1.5);
}

TEST(Failover, ColdAbortsForwarderEpisodeNetworkWide) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::ProtocolConfig cfg = failover_config(core::FailoverConfig::Mode::kCold);
  cfg.forwarder_selection = true;
  cfg.mab_calm_rounds = 1;
  core::DimmerNetwork net(topo, field, cfg,
                          std::make_unique<core::StaticController>(3), 0, 24);
  auto sources = sources_excluding(18, -1);
  // Long calm phase: the bandits learn and some devices turn passive.
  for (int r = 0; r < 120; ++r) net.run_round(sources);
  ASSERT_NE(net.forwarder_selection(), nullptr);
  std::uint64_t epoch_before = net.forwarder_selection()->epoch();
  net.set_node_failed(0, true);
  for (int r = 0; r < 4; ++r) net.run_round(sources);
  ASSERT_EQ(net.failover_count(), 1);
  // Episode aborted: every device is an active forwarder again and the
  // epoch advanced (fresh turn order excluding the new coordinator).
  EXPECT_EQ(net.forwarder_selection()->active_count(), 18);
  EXPECT_GT(net.forwarder_selection()->epoch(), epoch_before);
}

TEST(Failover, SecondBackupTakesOverWhenFirstAlsoDies) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field,
                          failover_config(core::FailoverConfig::Mode::kWarm),
                          std::make_unique<core::StaticController>(3), 0, 25);
  auto sources = sources_excluding(18, -1);
  for (int r = 0; r < 3; ++r) net.run_round(sources);
  net.set_node_failed(0, true);
  for (int r = 0; r < 5; ++r) net.run_round(sources);
  ASSERT_EQ(net.coordinator(), 1);
  net.set_node_failed(1, true);  // the first backup dies too
  for (int r = 0; r < 5; ++r) net.run_round(sources);
  EXPECT_EQ(net.coordinator(), 2);
  EXPECT_EQ(net.failover_count(), 2);
  util::RunningStats rel;
  for (int r = 0; r < 5; ++r) rel.add(net.run_round(sources).reliability);
  EXPECT_GT(rel.mean(), 0.7);  // two dead scheduled sources, rest delivered
}

TEST(Failover, LateRejoinerResyncsUnderTheNewCoordinator) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field,
                          failover_config(core::FailoverConfig::Mode::kWarm),
                          std::make_unique<core::StaticController>(3), 0, 26);
  auto sources = sources_excluding(18, -1);
  for (int r = 0; r < 3; ++r) net.run_round(sources);
  net.set_node_failed(17, true);  // leaf down before the coordinator dies
  net.set_node_failed(0, true);
  for (int r = 0; r < 6; ++r) net.run_round(sources);
  ASSERT_EQ(net.coordinator(), 1);
  net.set_node_failed(17, false);  // rejoins under the *new* coordinator
  for (int r = 0; r < 4; ++r) net.run_round(sources);
  EXPECT_FALSE(net.node_failed(17));
  // The rejoiner hears the new coordinator's schedules and reports again.
  EXPECT_TRUE(net.snapshot(1).fresh(17));
}

TEST(FaultInjection, HalfTheNetworkCanDieAndTheRestStillFloods) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::DimmerNetwork net(topo, field, core::ProtocolConfig{},
                          std::make_unique<core::StaticController>(4), 0, 8);
  // Kill every second node (odd ids); even ids remain a connected chain.
  std::vector<phy::NodeId> sources;
  for (int i = 1; i < 18; ++i) {
    if (i % 2 == 1)
      net.set_node_failed(i, true);
    else
      sources.push_back(i);
  }
  util::RunningStats rel;
  for (int r = 0; r < 20; ++r) rel.add(net.run_round(sources).reliability);
  EXPECT_GT(rel.mean(), 0.9);  // sparser, but alive
}

// ---- Scripted fault plans --------------------------------------------------

TEST(FaultPlanIntegration, ScriptedCoordinatorCrashDrivesFailover) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::ProtocolConfig cfg = failover_config(core::FailoverConfig::Mode::kWarm);
  cfg.fault_plan.crash_coordinator(5);
  core::DimmerNetwork net(topo, field, cfg,
                          std::make_unique<core::StaticController>(3), 0, 31);
  auto sources = sources_excluding(18, -1);
  int orphaned = 0;
  for (int r = 0; r < 15; ++r)
    if (net.run_round(sources).orphaned) ++orphaned;
  EXPECT_EQ(orphaned, 3);  // rounds 5,6,7 orphaned; takeover at round 8
  EXPECT_EQ(net.coordinator(), 1);
  EXPECT_EQ(net.failover_count(), 1);
  ASSERT_NE(net.fault_injector(), nullptr);
  EXPECT_EQ(net.fault_injector()->events_applied(), 1u);
}

TEST(FaultPlanIntegration, BlackoutWindowDegradesThenRecovers) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::ProtocolConfig cfg;
  cfg.fault_plan.blackout(5, 10, 1.0);  // everyone deaf for 5 rounds
  core::DimmerNetwork net(topo, field, cfg,
                          std::make_unique<core::StaticController>(3), 0, 32);
  auto sources = sources_excluding(18, -1);
  util::RunningStats during, after;
  for (int r = 0; r < 16; ++r) {
    core::RoundStats rs = net.run_round(sources);
    if (r >= 5 && r < 10) during.add(rs.reliability);
    if (r >= 12) after.add(rs.reliability);
  }
  EXPECT_LT(during.mean(), 0.1);  // total blackout: nothing gets through
  EXPECT_GT(after.mean(), 0.99);  // window over, everyone resyncs
}

TEST(FaultPlanIntegration, ControlCorruptionDelaysSyncByOneRound) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::ProtocolConfig cfg;
  cfg.fault_plan.corrupt_control(4);
  core::DimmerNetwork net(topo, field, cfg,
                          std::make_unique<core::StaticController>(3), 0, 33);
  auto sources = sources_excluding(18, -1);
  for (int r = 0; r < 4; ++r) net.run_round(sources);
  // max_sync_age = 2, so a single corrupt schedule does not desynchronize
  // anyone — but nobody (except the coordinator) refreshed its sync age.
  core::RoundStats rs = net.run_round(sources);
  EXPECT_EQ(rs.desynchronized, 0);
  EXPECT_GT(rs.reliability, 0.99);
  core::RoundStats next = net.run_round(sources);
  EXPECT_GT(next.reliability, 0.99);
}

// ---- Zero-perturbation and determinism -------------------------------------

TEST(FaultDeterminism, EmptyPlanAndFailoverConfigPerturbNothing) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::ProtocolConfig plain;  // no failover, no plan
  core::ProtocolConfig armed = failover_config(core::FailoverConfig::Mode::kCold);
  ASSERT_TRUE(armed.fault_plan.empty());
  core::DimmerNetwork a(topo, field, plain,
                        std::make_unique<baselines::PidController>(), 0, 41);
  core::DimmerNetwork b(topo, field, armed,
                        std::make_unique<baselines::PidController>(), 0, 41);
  auto sources = sources_excluding(18, -1);
  for (int r = 0; r < 30; ++r) {
    core::RoundStats ra = a.run_round(sources);
    core::RoundStats rb = b.run_round(sources);
    ASSERT_EQ(ra.reliability, rb.reliability) << "round " << r;
    ASSERT_EQ(ra.total_radio_on_us, rb.total_radio_on_us) << "round " << r;
    ASSERT_EQ(ra.n_tx, rb.n_tx) << "round " << r;
    ASSERT_EQ(ra.desynchronized, rb.desynchronized) << "round " << r;
  }
}

exp::TrialResult faulted_trial(const exp::TrialSpec& spec, util::Pcg32& rng) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::ProtocolConfig cfg;
  cfg.failover.backups = {1, 2};
  cfg.failover.takeover_silent_rounds = 3;
  cfg.failover.mode = spec.tags.count("mode") && spec.tags.at("mode") == "cold"
                          ? core::FailoverConfig::Mode::kCold
                          : core::FailoverConfig::Mode::kWarm;
  cfg.fault_plan = spec.fault_plan;
  core::DimmerNetwork net(topo, field,
                          std::move(cfg),
                          std::make_unique<baselines::PidController>(), 0,
                          rng.next_u64());
  std::vector<phy::NodeId> sources;
  for (int i = 1; i < 18; ++i) sources.push_back(i);
  sources.push_back(0);

  exp::TrialResult res;
  auto& rel_series = res.series["reliability"];
  for (int r = 0; r < 40; ++r) {
    core::RoundStats rs = net.run_round(sources);
    rel_series.push_back(rs.reliability);
    res.stats["reliability"].add(rs.reliability);
  }
  res.metrics["failovers"] = net.failover_count();
  res.metrics["rounds_to_resync"] = net.last_rounds_to_resync();
  res.metrics["final_n_tx"] = net.commanded_n_tx();
  return res;
}

std::string faulted_sweep_json(int jobs) {
  std::vector<exp::TrialSpec> specs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    exp::TrialSpec spec;
    spec.scenario = s % 2 ? "cold" : "warm";
    spec.seed = s;
    spec.tags["mode"] = spec.scenario;
    spec.fault_plan.crash_coordinator(10).blackout(20, 25, 0.35).crash(15, 9);
    specs.push_back(std::move(spec));
  }
  exp::Runner runner(exp::Runner::Options{jobs});
  std::vector<exp::Trial> trials = runner.run(std::move(specs), faulted_trial);
  for (const exp::Trial& t : trials) EXPECT_TRUE(t.result.ok) << t.result.error;
  exp::JsonOptions opt;
  opt.include_timing = false;
  return exp::to_json("fault_determinism", trials, opt);
}

TEST(FaultDeterminism, FaultedSweepIsBitIdenticalAcrossRerunsAndJobCounts) {
  std::string serial = faulted_sweep_json(1);
  std::string serial_again = faulted_sweep_json(1);
  std::string parallel = faulted_sweep_json(4);
  EXPECT_EQ(serial, serial_again);  // rerun: bit-identical
  EXPECT_EQ(serial, parallel);      // any job count: bit-identical
  // The plan actually did something (failovers happened).
  EXPECT_NE(serial.find("\"failovers\": 1"), std::string::npos);
  EXPECT_NE(serial.find("\"fault_events\": 4"), std::string::npos);
}

}  // namespace
}  // namespace dimmer
