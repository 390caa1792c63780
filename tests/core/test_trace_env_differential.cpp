// TraceEnv's in-place steps and DqnController's feature path against the
// frozen snapshot-and-deque versions in reference_trace_env, bit for bit:
// state vectors, rewards, done flags, N_TX and the RNG stream over random
// action sequences (DESIGN.md §17).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/scenarios.hpp"
#include "core/trace_env.hpp"
#include "phy/topology.hpp"
#include "reference_trace_env.hpp"
#include "rl/mlp.hpp"
#include "rl/quantized.hpp"
#include "util/rng.hpp"

namespace dimmer::core {
namespace {

void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want, const std::string& at) {
  ASSERT_EQ(got.size(), want.size()) << at;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << at << ", feature " << i << ": " << got[i] << " vs " << want[i];
}

/// A dataset of random outcomes: about `fresh_p` of the nodes report each
/// round, reliabilities repeat (so the row sort breaks ties on ids) and
/// reach below 50%, radio-on times overrun the slot now and then, stale
/// entries hold garbage, and every 7th step nobody reports.
TraceDataset random_dataset(int n_nodes, std::size_t steps, double fresh_p,
                            std::uint64_t seed) {
  static const float kReliabilities[] = {0.0f, 0.25f, 0.5f, 0.75f,
                                         0.875f, 0.9f, 1.0f};
  TraceDataset ds(n_nodes, 20.0);
  util::Pcg32 rng(seed);
  const auto n = static_cast<std::size_t>(n_nodes);
  for (std::size_t s = 0; s < steps; ++s) {
    TraceStep step;
    for (TraceOutcome& o : step.by_n_tx) {
      o.reliability.resize(n);
      o.radio_on_ms.resize(n);
      o.fresh.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        o.fresh[i] = s % 7 != 3 && rng.bernoulli(fresh_p) ? 1 : 0;
        o.reliability[i] = rng.bernoulli(0.5)
                               ? kReliabilities[rng.uniform_below(7)]
                               : static_cast<float>(rng.uniform());
        o.radio_on_ms[i] = static_cast<float>(rng.uniform(0.0, 24.0));
      }
      o.true_lossless = rng.bernoulli(0.6);
      o.coordinator_lossless = rng.bernoulli(0.6);
      o.true_reliability = static_cast<float>(rng.uniform());
      o.true_radio_on_ms = static_cast<float>(rng.uniform(1.0, 20.0));
    }
    ds.push(std::move(step));
  }
  return ds;
}

/// Runs `episodes` episodes of random actions through both environments
/// from the same seed and requires every observable to match.
void expect_same_episodes(const TraceDataset& ds, const TraceEnv::Config& cfg,
                          std::uint64_t seed, int episodes) {
  TraceEnv env(ds, cfg);
  reference::TraceEnv ref(ds, cfg);
  util::Pcg32 rng(seed), ref_rng(seed), actions(util::hash_u64(seed, 0xAC7ULL));
  int steps = 0;
  for (int e = 0; e < episodes; ++e) {
    const std::string at = "episode " + std::to_string(e);
    const std::vector<double>& s0 = env.reset(rng);
    expect_bits_equal(s0, ref.reset(ref_rng), at + " reset");
    ASSERT_EQ(&s0, &env.state());
    ASSERT_EQ(env.current_n_tx(), ref.current_n_tx()) << at;
    for (;;) {
      const int a = actions.uniform_int(0, env.action_count() - 1);
      const TraceEnv::StepResult got = env.step(a);
      const reference::TraceEnv::StepResult want = ref.step(a);
      const std::string where = at + ", step " + std::to_string(steps++);
      expect_bits_equal(env.state(), want.state, where);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.reward),
                std::bit_cast<std::uint64_t>(want.reward))
          << where;
      ASSERT_EQ(got.done, want.done) << where;
      ASSERT_EQ(env.current_n_tx(), ref.current_n_tx()) << where;
      if (got.done) break;
    }
  }
  EXPECT_EQ(rng.next_u64(), ref_rng.next_u64()) << "RNG streams diverged";
  EXPECT_GE(steps, episodes);
}

TEST(TraceEnvDifferential, PaperConfigurationOnRandomOutcomes) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const TraceDataset ds = random_dataset(18, 120, 0.8, seed);
    for (int len : {1, 5, 40}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", episode_len " +
                   std::to_string(len));
      TraceEnv::Config cfg;
      cfg.episode_len = len;
      expect_same_episodes(ds, cfg, seed * 13 + 1, 30);
    }
  }
}

TEST(TraceEnvDifferential, KBeyondTheReportingNodesPadsCyclically) {
  // 6 and 18 nodes under K = 10, 12, 20, and 1- and 0-node datasets whose
  // rows all repeat (the empty one reads as a single silent row).
  for (int nodes : {0, 1, 6, 18}) {
    const TraceDataset ds = random_dataset(nodes, 60, 0.7, 40 + nodes);
    for (int k : {10, 12, 20}) {
      SCOPED_TRACE(std::to_string(nodes) + " nodes, K = " + std::to_string(k));
      TraceEnv::Config cfg;
      cfg.features.k = k;
      cfg.episode_len = 8;
      expect_same_episodes(ds, cfg, static_cast<std::uint64_t>(nodes * 100 + k),
                           25);
    }
  }
}

TEST(TraceEnvDifferential, HistoryDepths) {
  const TraceDataset ds = random_dataset(18, 80, 0.8, 9);
  for (int m : {0, 1, 4}) {
    for (int len : {2, 40}) {
      SCOPED_TRACE("M = " + std::to_string(m) + ", episode_len " +
                   std::to_string(len));
      TraceEnv::Config cfg;
      cfg.features.history = m;
      cfg.episode_len = len;
      expect_same_episodes(ds, cfg, static_cast<std::uint64_t>(m * 10 + len),
                           30);
    }
  }
}

TEST(TraceEnvDifferential, ActionPerValueAndSmallerNMax) {
  const TraceDataset ds = random_dataset(18, 80, 0.75, 21);
  for (int n_max : {8, 5}) {
    SCOPED_TRACE("N_max " + std::to_string(n_max));
    TraceEnv::Config cfg;
    cfg.action_per_value = true;
    cfg.features.n_max = n_max;
    cfg.reward_c = 0.5;
    expect_same_episodes(ds, cfg, static_cast<std::uint64_t>(n_max), 30);
  }
}

TEST(TraceEnvDifferential, DatasetsShorterThanAnEpisode) {
  for (std::size_t steps : {2u, 3u, 7u}) {
    SCOPED_TRACE(std::to_string(steps) + " steps");
    const TraceDataset ds = random_dataset(18, steps, 0.8, steps);
    TraceEnv::Config cfg;
    cfg.episode_len = 40;
    expect_same_episodes(ds, cfg, steps, 10);
  }
}

TEST(TraceEnvDifferential, CollectedTracesWithSilentNodes) {
  // Heavy jamming leaves nodes without fresh feedback in collected traces.
  const phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  add_static_jamming(field, topo, 0.35);
  TraceCollectionConfig tc;
  tc.steps = 40;
  tc.seed = 5;
  const TraceDataset ds = collect_traces(topo, field, tc);
  int silent = 0;
  for (std::size_t s = 0; s < ds.size(); ++s)
    for (int n = 1; n <= kNMax; ++n)
      for (std::uint8_t f : ds.step(s).at(n).fresh) silent += f == 0 ? 1 : 0;
  EXPECT_GT(silent, 0);
  TraceEnv::Config cfg;
  cfg.episode_len = 10;
  expect_same_episodes(ds, cfg, 77, 40);
}

TEST(TraceEnvDifferential, DqnControllerFeaturesMatchTheFrozenBuild) {
  // Random snapshots with stale, never-heard and unaccounted nodes and
  // varying freshness windows; the controller's history against a deque
  // kept the original way, across a reset.
  struct Shape {
    int nodes;
    int k;
    int m;
  };
  for (const Shape shape : {Shape{18, 10, 2}, Shape{6, 12, 4}, Shape{18, 10, 0}}) {
    SCOPED_TRACE(std::to_string(shape.nodes) + " nodes, K = " +
                 std::to_string(shape.k) + ", M = " + std::to_string(shape.m));
    FeatureConfig fc;
    fc.k = shape.k;
    fc.history = shape.m;
    const int inputs = 2 * fc.k + fc.n_max + 1 + fc.history;
    const rl::QuantizedMlp policy(rl::Mlp({inputs, 30, 3}, 5));
    DqnController c(policy, fc);
    std::deque<bool> history;
    util::Pcg32 rng(static_cast<std::uint64_t>(shape.nodes * 7 + shape.k));
    int n_tx = 3;
    for (std::uint64_t round = 1; round <= 300; ++round) {
      if (round == 150) {
        c.reset();
        history.clear();
      }
      GlobalSnapshot snap(shape.nodes);
      snap.current_round = round;
      snap.freshness_rounds = 1 + rng.uniform_below(3);
      for (NodeFeedback& e : snap.entries) {
        e.reliability = rng.bernoulli(0.4) ? 0.75 : rng.uniform();
        e.radio_on_ms = rng.uniform(0.0, 24.0);
        e.ever_heard = rng.bernoulli(0.9);
        e.round = round - std::min<std::uint64_t>(round, rng.uniform_below(4));
        e.accounted = rng.bernoulli(0.85);
      }
      const bool lossless = rng.bernoulli(0.6);
      history.push_front(lossless);
      while (static_cast<int>(history.size()) > std::max(1, fc.history))
        history.pop_back();
      const int next = c.decide(snap, lossless, n_tx);
      const std::vector<double> want =
          reference::build_features(fc, snap, n_tx, history);
      expect_bits_equal(c.last_features(), want,
                        "round " + std::to_string(round));
      ASSERT_EQ(next, apply_action(n_tx,
                                   static_cast<AdaptAction>(
                                       policy.greedy_action(want)),
                                   fc.n_max));
      n_tx = next;
    }
  }
}

}  // namespace
}  // namespace dimmer::core
