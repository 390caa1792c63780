// End-to-end instrumentation: the protocol stack with sinks attached must
// (a) behave bit-identically to the uninstrumented stack, (b) emit valid
// structured events at every layer, and (c) record coherent metrics.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/features.hpp"
#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "core/trace_env.hpp"
#include "flood/glossy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/topology.hpp"
#include "rl/dqn.hpp"
#include "util/json_parse.hpp"

namespace dimmer {
namespace {

core::DimmerNetwork make_net(const phy::Topology& topo,
                             const phy::InterferenceField& field,
                             bool with_mab) {
  core::ProtocolConfig cfg;
  cfg.forwarder_selection = with_mab;
  cfg.mab_calm_rounds = 0;
  return core::DimmerNetwork(topo, field, cfg,
                             std::make_unique<core::StaticController>(3), 0,
                             77);
}

std::vector<phy::NodeId> all_sources(const phy::Topology& topo) {
  std::vector<phy::NodeId> s;
  for (int i = 0; i < topo.size(); ++i) s.push_back(i);
  return s;
}

TEST(Instrumentation, DoesNotPerturbSimulationResults) {
  phy::Topology topo = phy::make_line_topology(6, 12.0);
  phy::InterferenceField field;
  core::add_static_jamming(field, topo, 0.20);
  auto sources = all_sources(topo);

  core::DimmerNetwork plain = make_net(topo, field, true);
  core::DimmerNetwork instrumented = make_net(topo, field, true);
  obs::MetricsRegistry metrics;
  obs::RingBufferSink ring(4096);
  instrumented.set_instrumentation({&ring, &metrics});

  for (int r = 0; r < 40; ++r) {
    core::RoundStats a = plain.run_round(sources);
    core::RoundStats b = instrumented.run_round(sources);
    ASSERT_EQ(a.reliability, b.reliability) << "round " << r;
    ASSERT_EQ(a.radio_on_ms, b.radio_on_ms) << "round " << r;
    ASSERT_EQ(a.n_tx, b.n_tx) << "round " << r;
    ASSERT_EQ(a.lossless, b.lossless) << "round " << r;
    ASSERT_EQ(a.active_forwarders, b.active_forwarders) << "round " << r;
    ASSERT_EQ(a.total_radio_on_us, b.total_radio_on_us) << "round " << r;
  }
  EXPECT_GT(ring.total(), 0u);
  EXPECT_FALSE(metrics.empty());
}

TEST(Instrumentation, EmitsEventsFromEveryLayer) {
  phy::Topology topo = phy::make_line_topology(5, 12.0);
  phy::InterferenceField field;
  auto sources = all_sources(topo);

  core::DimmerNetwork net = make_net(topo, field, true);
  obs::RingBufferSink ring(1 << 16);
  obs::MetricsRegistry metrics;
  net.set_instrumentation({&ring, &metrics});
  for (int r = 0; r < 30; ++r) net.run_round(sources);

  std::set<std::string> kinds;
  for (const obs::TraceEvent& e : ring.events()) {
    kinds.insert(e.kind);
    EXPECT_NO_THROW(util::json::parse(e.to_jsonl())) << e.to_jsonl();
  }
  EXPECT_TRUE(kinds.count("flood"));
  EXPECT_TRUE(kinds.count("lwb_round"));
  EXPECT_TRUE(kinds.count("round"));
  EXPECT_TRUE(kinds.count("exp3"));  // mab_calm_rounds = 0: learning rounds

  // Metrics from every layer under their subsystem prefixes.
  EXPECT_GT(metrics.counters().at("flood.runs"), 0u);
  EXPECT_GT(metrics.counters().at("lwb.rounds"), 0u);
  EXPECT_EQ(metrics.counters().at("protocol.rounds"), 30u);
  EXPECT_GT(metrics.counters().at("mab.updates"), 0u);
  // One flood per slot: control + |sources| data slots per round.
  EXPECT_EQ(metrics.counters().at("flood.runs"),
            30u * (1u + sources.size()));
}

TEST(Instrumentation, DqnControllerTracesQValues) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  auto sources = all_sources(topo);

  core::FeatureConfig fcfg;
  core::FeatureBuilder fb(fcfg);
  rl::Mlp policy({fb.input_size(), 30, 3}, 1);  // untrained: tracing only
  core::ProtocolConfig cfg;
  core::DimmerNetwork net(
      topo, field, cfg,
      std::make_unique<core::DqnController>(rl::QuantizedMlp(policy), fcfg),
      0, 5);

  obs::RingBufferSink ring(4096);
  net.set_instrumentation({&ring, nullptr});
  for (int r = 0; r < 5; ++r) net.run_round(sources);

  bool saw_controller = false;
  for (const obs::TraceEvent& e : ring.events()) {
    if (e.kind != "controller") continue;
    saw_controller = true;
    std::set<std::string> keys;
    for (const auto& [k, v] : e.fields) keys.insert(k);
    EXPECT_TRUE(keys.count("q0") && keys.count("q1") && keys.count("q2"));
    EXPECT_TRUE(keys.count("action") && keys.count("n_tx"));
  }
  EXPECT_TRUE(saw_controller);
}

TEST(Instrumentation, DqnAgentEmitsStepEvents) {
  rl::DqnConfig cfg;
  cfg.architecture = {4, 8, 3};
  cfg.min_replay_before_training = 32;
  cfg.batch_size = 8;
  rl::DqnAgent agent(cfg, 11);
  obs::RingBufferSink ring(256);
  obs::MetricsRegistry metrics;
  agent.set_instrumentation({&ring, &metrics});

  util::Pcg32 rng(3);
  std::vector<double> s(4, 0.5);
  for (int i = 0; i < 64; ++i) {
    int a = agent.select_action(s, rng);
    agent.observe(rl::Transition{s, a, 0.5, s, false, -1.0}, rng);
  }
  EXPECT_EQ(ring.total(), 64u);
  EXPECT_EQ(metrics.counters().at("dqn.observations"), 64u);
  EXPECT_GT(metrics.counters().at("dqn.train_steps"), 0u);
  for (const obs::TraceEvent& e : ring.events()) {
    EXPECT_EQ(e.kind, "dqn_step");
    EXPECT_NO_THROW(util::json::parse(e.to_jsonl()));
  }
}

TEST(Instrumentation, GlossyFloodChargesNoRngWhenObserved) {
  // The flood engine must consume the identical RNG stream with and without
  // a sink: same seeds in, same FloodResult out.
  phy::Topology topo = phy::make_line_topology(5, 12.0);
  phy::InterferenceField field;
  std::vector<flood::NodeFloodConfig> cfgs(5, flood::NodeFloodConfig{2, true});
  flood::FloodParams params;

  flood::GlossyFlood plain(topo, field);
  flood::GlossyFlood observed(topo, field);
  obs::MetricsRegistry metrics;
  obs::RingBufferSink ring(64);
  observed.set_instrumentation({&ring, &metrics});

  util::Pcg32 rng_a(99), rng_b(99);
  for (int i = 0; i < 20; ++i) {
    flood::FloodResult a = plain.run(0, cfgs, params, rng_a);
    flood::FloodResult b = observed.run(0, cfgs, params, rng_b);
    // Both streams advance by one comparison draw, staying aligned.
    ASSERT_EQ(rng_a.next_u32(), rng_b.next_u32()) << "RNG streams diverged";
    ASSERT_EQ(a.steps_simulated, b.steps_simulated);
    for (std::size_t n = 0; n < a.nodes.size(); ++n) {
      ASSERT_EQ(a.nodes[n].received, b.nodes[n].received);
      ASSERT_EQ(a.nodes[n].radio_on_us, b.nodes[n].radio_on_us);
    }
  }
  EXPECT_EQ(metrics.counters().at("flood.runs"), 20u);
}

TEST(Instrumentation, TrainerConfigForwardsInstrumentation) {
  phy::Topology topo = phy::make_line_topology(4, 12.0);
  phy::InterferenceField field;
  core::TraceCollectionConfig tc;
  tc.steps = 60;
  core::TraceDataset ds = core::collect_traces(topo, field, tc);

  core::TraceEnv::Config env_cfg;
  env_cfg.episode_len = 10;
  core::TrainerConfig cfg;
  cfg.total_steps = 40;
  cfg.dqn.min_replay_before_training = 16;
  cfg.dqn.batch_size = 8;
  obs::MetricsRegistry metrics;
  cfg.instrumentation = {nullptr, &metrics};

  core::train_dqn_on_traces(ds, env_cfg, cfg);
  EXPECT_EQ(metrics.counters().at("dqn.observations"), 40u);
  EXPECT_EQ(metrics.counters().at("trace_env.steps"), 40u);
  EXPECT_GT(metrics.counters().at("trace_env.episodes"), 0u);
}

}  // namespace
}  // namespace dimmer
