#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/scenarios.hpp"
#include "flood/glossy.hpp"
#include "phy/topology.hpp"

namespace dimmer::flood {
namespace {

std::vector<NodeFloodConfig> uniform_configs(int n, int n_tx) {
  return std::vector<NodeFloodConfig>(static_cast<std::size_t>(n),
                                      NodeFloodConfig{n_tx, true});
}

TEST(GlossyFlood, CleanNetworkDeliversToEveryone) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(1);
  FloodResult r = engine.run(0, uniform_configs(18, 3), FloodParams{}, rng);
  EXPECT_EQ(r.receiver_count(), 17);
  EXPECT_DOUBLE_EQ(r.delivery_ratio(), 1.0);
}

TEST(GlossyFlood, StepTimingMatchesPaperSlot) {
  phy::RadioConstants radio;
  FloodParams p;  // 30 B payload, 20 ms slot
  // One step = 1152 us airtime + 25 us turnaround.
  EXPECT_EQ(GlossyFlood::step_len_us(p, radio), 1177);
  // N_max = 8 must be achievable: the initiator transmits at even steps
  // 0..14, so at least 15 steps must fit in the slot.
  EXPECT_GE(GlossyFlood::max_steps(p, radio), 15);
}

TEST(GlossyFlood, InitiatorTransmitsEvenWithZeroBudget) {
  phy::Topology topo = phy::make_line_topology(3, 8.0);
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(2);
  auto cfgs = uniform_configs(3, 0);  // everyone passive
  FloodResult r = engine.run(0, cfgs, FloodParams{}, rng);
  EXPECT_GE(r.nodes[0].transmissions, 1);
}

TEST(GlossyFlood, PassiveReceiverNeverForwards) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(3);
  auto cfgs = uniform_configs(18, 3);
  cfgs[5].n_tx = 0;
  FloodResult r = engine.run(0, cfgs, FloodParams{}, rng);
  EXPECT_EQ(r.nodes[5].transmissions, 0);
  EXPECT_TRUE(r.nodes[5].received);
}

TEST(GlossyFlood, PassiveReceiverSavesEnergy) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(4);

  auto active = uniform_configs(18, 3);
  FloodResult ra = engine.run(0, active, FloodParams{}, rng);

  auto passive = uniform_configs(18, 3);
  passive[9].n_tx = 0;
  util::Pcg32 rng2(4);
  FloodResult rp = engine.run(0, passive, FloodParams{}, rng2);

  ASSERT_TRUE(rp.nodes[9].received);
  EXPECT_LT(rp.nodes[9].radio_on_us, ra.nodes[9].radio_on_us);
}

TEST(GlossyFlood, NonParticipantIsUntouched) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(5);
  auto cfgs = uniform_configs(18, 3);
  cfgs[7].participates = false;
  FloodResult r = engine.run(0, cfgs, FloodParams{}, rng);
  EXPECT_FALSE(r.nodes[7].received);
  EXPECT_EQ(r.nodes[7].transmissions, 0);
  EXPECT_EQ(r.nodes[7].radio_on_us, 0);
  // Delivery ratio ignores the non-participant.
  EXPECT_DOUBLE_EQ(r.delivery_ratio(), 1.0);
}

TEST(GlossyFlood, RadioOnBoundedBySlot) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(6);
  FloodParams params;
  FloodResult r = engine.run(0, uniform_configs(18, 8), params, rng);
  for (const auto& node : r.nodes) {
    EXPECT_LE(node.radio_on_us, params.slot_len_us);
    EXPECT_GT(node.radio_on_us, 0);
  }
}

TEST(GlossyFlood, HigherBudgetCostsMoreEnergy) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  double prev = 0.0;
  for (int n_tx : {1, 3, 5, 8}) {
    util::Pcg32 rng(7);
    FloodResult r = engine.run(0, uniform_configs(18, n_tx), FloodParams{}, rng);
    double total = 0.0;
    for (const auto& node : r.nodes) total += static_cast<double>(node.radio_on_us);
    EXPECT_GT(total, prev);
    prev = total;
  }
}

TEST(GlossyFlood, UnreachedNodeListensWholeSlot) {
  phy::Topology topo = phy::make_line_topology(3, 500.0);  // disconnected
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(8);
  FloodParams params;
  FloodResult r = engine.run(0, uniform_configs(3, 3), params, rng);
  EXPECT_FALSE(r.nodes[2].received);
  EXPECT_EQ(r.nodes[2].radio_on_us, params.slot_len_us);
}

TEST(GlossyFlood, GoldenRadioOnAccountingOnThreeHopLine) {
  // Golden accounting on a 3-node line where each node only reaches its
  // neighbour (15 m spacing, clean channel, N_TX = 1). The timeline is fully
  // determined — every reception has p_ok ~ 1 over its single hop:
  //   step 0: node 0 transmits; node 1 receives (step length 1177 us).
  //   step 1: node 1 relays; node 2 receives; node 0 is done (budget spent).
  //   step 2: node 2 relays into silence and finishes.
  // Radio-on is charged per step the radio is up: 1 step for node 0, 2 for
  // node 1, 3 for node 2.
  phy::Topology topo = phy::make_line_topology(3, 15.0);
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  FloodParams params;  // 30 B payload -> 1152 us airtime + 25 us turnaround

  for (std::uint64_t seed : {1u, 7u, 1234u}) {
    util::Pcg32 rng(seed);
    FloodResult r = engine.run(0, uniform_configs(3, 1), params, rng);
    EXPECT_EQ(r.steps_simulated, 3);
    EXPECT_EQ(r.nodes[0].radio_on_us, 1177);
    EXPECT_EQ(r.nodes[1].radio_on_us, 2354);
    EXPECT_EQ(r.nodes[2].radio_on_us, 3531);
    EXPECT_EQ(r.nodes[1].first_rx_step, 0);
    EXPECT_EQ(r.nodes[2].first_rx_step, 1);
    for (const auto& node : r.nodes) {
      EXPECT_TRUE(node.received);
      EXPECT_EQ(node.transmissions, 1);
    }
  }
}

TEST(GlossyFlood, FullResultDeterministicUnderJamming) {
  // Same RNG state -> identical FloodResult in every field, including under
  // interference where each reception consumes fading + bernoulli draws.
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  dimmer::core::add_static_jamming(field, topo, 0.3);
  GlossyFlood engine(topo, field);
  FloodParams params;
  params.slot_start_us = sim::seconds(9);  // mid-burst phase
  util::Pcg32 a(77), b(77);
  FloodResult ra = engine.run(4, uniform_configs(18, 2), params, a);
  FloodResult rb = engine.run(4, uniform_configs(18, 2), params, b);
  EXPECT_EQ(ra.steps_simulated, rb.steps_simulated);
  EXPECT_EQ(ra.initiator, rb.initiator);
  for (int i = 0; i < 18; ++i) {
    EXPECT_EQ(ra.nodes[i].received, rb.nodes[i].received);
    EXPECT_EQ(ra.nodes[i].first_rx_step, rb.nodes[i].first_rx_step);
    EXPECT_EQ(ra.nodes[i].transmissions, rb.nodes[i].transmissions);
    EXPECT_EQ(ra.nodes[i].radio_on_us, rb.nodes[i].radio_on_us);
  }
  EXPECT_EQ(a.next_u32(), b.next_u32());  // streams fully consumed in lockstep
}

TEST(GlossyFlood, DeterministicGivenRngState) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  dimmer::core::add_static_jamming(field, topo, 0.3);
  GlossyFlood engine(topo, field);
  util::Pcg32 a(11), b(11);
  FloodResult ra = engine.run(0, uniform_configs(18, 3), FloodParams{}, a);
  FloodResult rb = engine.run(0, uniform_configs(18, 3), FloodParams{}, b);
  for (int i = 0; i < 18; ++i) {
    EXPECT_EQ(ra.nodes[i].received, rb.nodes[i].received);
    EXPECT_EQ(ra.nodes[i].radio_on_us, rb.nodes[i].radio_on_us);
  }
}

TEST(GlossyFlood, BudgetIsRespected) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(12);
  for (int n_tx : {1, 2, 4, 8}) {
    FloodResult r = engine.run(0, uniform_configs(18, n_tx), FloodParams{}, rng);
    for (const auto& node : r.nodes) EXPECT_LE(node.transmissions, n_tx);
  }
}

TEST(GlossyFlood, RejectsBadArguments) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(13);
  EXPECT_THROW(engine.run(-1, uniform_configs(18, 3), FloodParams{}, rng),
               util::RequireError);
  EXPECT_THROW(engine.run(0, uniform_configs(17, 3), FloodParams{}, rng),
               util::RequireError);
  auto bad = uniform_configs(18, 3);
  bad[0].participates = false;  // initiator must participate
  EXPECT_THROW(engine.run(0, bad, FloodParams{}, rng), util::RequireError);
  auto neg = uniform_configs(18, 3);
  neg[4].n_tx = -1;
  EXPECT_THROW(engine.run(0, neg, FloodParams{}, rng), util::RequireError);
}

TEST(GlossyFlood, RejectsNonFiniteTxPowerAndBadPayload) {
  // Regression: a NaN tx_power_dbm used to sail into the LinkModel, where
  // NaN != NaN defeated the cache check (rebuild every flood) and poisoned
  // every SINR. Non-positive payloads similarly made airtime meaningless.
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(13);
  FloodParams nan_power;
  nan_power.tx_power_dbm = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(engine.run(0, uniform_configs(18, 3), nan_power, rng),
               util::RequireError);
  FloodParams inf_power;
  inf_power.tx_power_dbm = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.run(0, uniform_configs(18, 3), inf_power, rng),
               util::RequireError);
  FloodParams no_payload;
  no_payload.payload_bytes = 0;
  EXPECT_THROW(engine.run(0, uniform_configs(18, 3), no_payload, rng),
               util::RequireError);
  FloodParams neg_payload;
  neg_payload.payload_bytes = -4;
  EXPECT_THROW(engine.run(0, uniform_configs(18, 3), neg_payload, rng),
               util::RequireError);
}

TEST(GlossyFlood, RejectsCoherenceGainOutsideUnitInterval) {
  // Regression: a NaN coherence_gain made every signal NaN, which mw_to_dbm
  // reads as -300 dBm, so floods reached no receiver without an error;
  // gains below 0 or above 1 were accepted too.
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  GlossyFlood engine(topo, field);
  util::Pcg32 rng(13);
  for (double gain : {std::numeric_limits<double>::quiet_NaN(), -5.0, -0.01,
                      1.01, 3.0}) {
    FloodParams p;
    p.coherence_gain = gain;
    EXPECT_THROW(engine.run(0, uniform_configs(18, 3), p, rng),
                 util::RequireError)
        << "coherence_gain=" << gain;
  }
  for (double gain : {0.0, 1.0}) {
    FloodParams p;
    p.coherence_gain = gain;
    EXPECT_NO_THROW(engine.run(0, uniform_configs(18, 3), p, rng));
  }
}

TEST(GlossyFlood, MaxStepsBoundaryAtDocumentedCap) {
  // Regression: max_steps used to push the 64-bit slot/step quotient through
  // static_cast<int>, so a pathological slot_len_us wrapped into a tiny or
  // negative step count. The quotient is now checked against kMaxFloodSteps.
  phy::RadioConstants radio;
  FloodParams p;  // 30 B payload + 6 B PHY overhead -> 1152 us + 25 us
  const sim::TimeUs step = GlossyFlood::step_len_us(p, radio);
  ASSERT_GT(step, 0);

  p.slot_len_us = step * static_cast<sim::TimeUs>(kMaxFloodSteps);
  EXPECT_EQ(GlossyFlood::max_steps(p, radio), kMaxFloodSteps);

  // One step past the cap (and far past it) must throw, not wrap.
  p.slot_len_us = step * (static_cast<sim::TimeUs>(kMaxFloodSteps) + 1);
  EXPECT_THROW(GlossyFlood::max_steps(p, radio), util::RequireError);
  p.slot_len_us = std::numeric_limits<sim::TimeUs>::max();
  EXPECT_THROW(GlossyFlood::max_steps(p, radio), util::RequireError);
}

// Property: the paper's central premise — under JamLab bursts, delivery
// improves monotonically (on average) with the retransmission budget.
class NtxReliabilityProperty : public ::testing::TestWithParam<double> {};

TEST_P(NtxReliabilityProperty, MoreRetransmissionsMoreDelivery) {
  double duty = GetParam();
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  dimmer::core::add_static_jamming(field, topo, duty);
  GlossyFlood engine(topo, field);

  auto mean_delivery = [&](int n_tx) {
    util::Pcg32 rng(17);
    double acc = 0.0;
    const int floods = 150;
    for (int f = 0; f < floods; ++f) {
      FloodParams params;
      params.slot_start_us = f * sim::ms(22);  // spread over burst phases
      FloodResult r =
          engine.run(f % 18, uniform_configs(18, n_tx), params, rng);
      acc += r.delivery_ratio();
    }
    return acc / floods;
  };

  double d1 = mean_delivery(1);
  double d4 = mean_delivery(4);
  double d8 = mean_delivery(8);
  EXPECT_GT(d4, d1);
  EXPECT_GE(d8, d4 - 0.005);
  EXPECT_GT(d8, 0.97);
}

INSTANTIATE_TEST_SUITE_P(JamDuty, NtxReliabilityProperty,
                         ::testing::Values(0.10, 0.20, 0.30));

}  // namespace
}  // namespace dimmer::flood
