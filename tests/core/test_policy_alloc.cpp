// Allocation audit for policy evaluation and the deployed DQN controller
// (DESIGN.md §17): a TraceEnv step and a greedy_action allocate nothing, so
// evaluate_policy makes as many allocations for 100 episodes as for 1, and
// an uninstrumented DqnController::decide allocates nothing after its first
// call.
//
// The audit instruments global operator new/delete with a counter, so it
// lives in its own binary (like dimmer_test_flood_alloc). Only the bracketed
// regions between alloc_count snapshots are attributed to the code under
// test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "core/controller.hpp"
#include "core/trace_env.hpp"
#include "rl/mlp.hpp"
#include "rl/quantized.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<long> g_allocs{0};

long alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dimmer::core {
namespace {

/// 18 nodes of random feedback, some silent, over 200 steps.
TraceDataset random_dataset() {
  TraceDataset ds(18, 20.0);
  util::Pcg32 rng(3);
  for (int s = 0; s < 200; ++s) {
    TraceStep step;
    for (TraceOutcome& o : step.by_n_tx) {
      for (int i = 0; i < 18; ++i) {
        o.fresh.push_back(rng.bernoulli(0.85) ? 1 : 0);
        o.reliability.push_back(static_cast<float>(rng.uniform()));
        o.radio_on_ms.push_back(static_cast<float>(rng.uniform(1.0, 20.0)));
      }
      o.true_lossless = rng.bernoulli(0.7);
      o.true_reliability = static_cast<float>(rng.uniform());
      o.true_radio_on_ms = static_cast<float>(rng.uniform(1.0, 20.0));
    }
    ds.push(std::move(step));
  }
  return ds;
}

long allocations_of(const std::function<void()>& f) {
  const long before = alloc_count();
  f();
  return alloc_count() - before;
}

TEST(PolicyAlloc, EvaluatePolicyAllocatesNothingPerStep) {
  const TraceDataset ds = random_dataset();
  const rl::QuantizedMlp policy(rl::Mlp({31, 30, 3}, 8));
  const TraceEnv::Config cfg;
  // Both overloads: the quantized policy and a generic callback.
  const std::function<int(const std::vector<double>&)> callback =
      [&policy](const std::vector<double>& x) {
        return policy.greedy_action(x);
      };
  auto quantized = [&](int episodes) {
    return allocations_of(
        [&] { (void)evaluate_policy(ds, policy, cfg, episodes, 5); });
  };
  auto generic = [&](int episodes) {
    return allocations_of(
        [&] { (void)evaluate_policy(ds, callback, cfg, episodes, 5); });
  };
  EXPECT_GT(quantized(1), 0);  // the environment's own buffers
  EXPECT_EQ(quantized(100), quantized(1));
  EXPECT_EQ(generic(100), generic(1));
}

TEST(PolicyAlloc, TraceEnvStepsAndInferenceAllocateNothing) {
  const TraceDataset ds = random_dataset();
  const rl::QuantizedMlp policy(rl::Mlp({31, 30, 3}, 8));
  TraceEnv::Config cfg;
  cfg.episode_len = 5;
  TraceEnv env(ds, cfg);
  util::Pcg32 rng(4);
  env.reset(rng);
  const long before = alloc_count();
  for (int t = 0; t < 2000; ++t) {
    const TraceEnv::StepResult sr = env.step(policy.greedy_action(env.state()));
    if (sr.done) env.reset(rng);
  }
  EXPECT_EQ(alloc_count() - before, 0);
}

TEST(PolicyAlloc, DqnControllerDecideAllocatesNothingAfterItsFirstCall) {
  DqnController c(rl::QuantizedMlp(rl::Mlp({31, 30, 3}, 6)), FeatureConfig{});
  util::Pcg32 rng(9);
  std::vector<GlobalSnapshot> snaps;
  for (int r = 0; r < 64; ++r) {
    GlobalSnapshot snap(18);
    snap.current_round = 5;
    for (NodeFeedback& e : snap.entries) {
      e.reliability = rng.uniform();
      e.radio_on_ms = rng.uniform(1.0, 20.0);
      e.ever_heard = rng.bernoulli(0.9);
      e.round = rng.bernoulli(0.8) ? 5 : 3;
      e.accounted = rng.bernoulli(0.9);
    }
    snaps.push_back(std::move(snap));
  }
  int n_tx = c.decide(snaps[0], true, 3);
  const long before = alloc_count();
  for (int r = 0; r < 1000; ++r)
    n_tx = c.decide(snaps[static_cast<std::size_t>(r) % snaps.size()],
                    r % 3 != 0, n_tx);
  EXPECT_EQ(alloc_count() - before, 0);
  EXPECT_EQ(c.last_features().size(), 31u);
}

}  // namespace
}  // namespace dimmer::core
