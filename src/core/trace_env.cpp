#include "core/trace_env.hpp"

#include <deque>
#include <memory>

#include "core/protocol.hpp"
#include "util/check.hpp"

namespace dimmer::core {

// ---- TraceDataset ----------------------------------------------------------

TraceDataset::TraceDataset(int n_nodes, double slot_ms)
    : n_nodes_(n_nodes), slot_ms_(slot_ms) {
  DIMMER_REQUIRE(n_nodes >= 0, "n_nodes must be >= 0");
}

void TraceDataset::push(TraceStep s) {
  const auto n = static_cast<std::size_t>(n_nodes_);
  for (const TraceOutcome& o : s.by_n_tx)
    DIMMER_REQUIRE(o.reliability.size() == n && o.radio_on_ms.size() == n &&
                       o.fresh.size() == n,
                   "trace outcome needs one entry per node");
  steps_.push_back(std::move(s));
}

// ---- Trace collection ------------------------------------------------------

TraceDataset collect_traces(const phy::Topology& topo,
                            const phy::InterferenceField& interference,
                            const TraceCollectionConfig& cfg) {
  DIMMER_REQUIRE(cfg.steps > 0, "need at least one trace step");
  const int n = topo.size();

  // One shadow network per candidate N_TX, sharing the interference timeline.
  std::vector<std::unique_ptr<DimmerNetwork>> nets;
  nets.reserve(kNMax);
  for (int v = 1; v <= kNMax; ++v) {
    ProtocolConfig pc;
    pc.round_period = cfg.round_period;
    pc.start_time = cfg.start_time;
    pc.initial_n_tx = v;
    pc.stats_window_slots = cfg.stats_window_slots;
    nets.push_back(std::make_unique<DimmerNetwork>(
        topo, interference, pc, std::make_unique<StaticController>(v), 0,
        util::hash_u64(cfg.seed, static_cast<std::uint64_t>(v))));
  }

  std::vector<phy::NodeId> sources;
  for (phy::NodeId i = 1; i < n; ++i) sources.push_back(i);
  // The coordinator also sources a data slot (all-to-all traffic, 18 slots).
  sources.push_back(0);

  TraceDataset ds(n, sim::to_ms(nets[0]->config().round.slot_len_us));
  for (std::size_t s = 0; s < cfg.steps; ++s) {
    TraceStep step;
    for (int v = 1; v <= kNMax; ++v) {
      DimmerNetwork& net = *nets[static_cast<std::size_t>(v - 1)];
      RoundStats rs = net.run_round(sources);
      TraceOutcome& o = step.by_n_tx[static_cast<std::size_t>(v - 1)];
      o.coordinator_lossless = rs.coordinator_lossless;
      o.true_lossless = rs.lossless;
      o.true_reliability = static_cast<float>(rs.reliability);
      o.true_radio_on_ms = static_cast<float>(rs.radio_on_ms);
      o.reliability.resize(static_cast<std::size_t>(n));
      o.radio_on_ms.resize(static_cast<std::size_t>(n));
      o.fresh.resize(static_cast<std::size_t>(n));
      const GlobalSnapshot& snap = net.snapshot(net.coordinator());
      for (phy::NodeId i = 0; i < n; ++i) {
        bool fresh = snap.fresh(i);
        const auto& e = snap.entries[static_cast<std::size_t>(i)];
        o.fresh[static_cast<std::size_t>(i)] = fresh ? 1 : 0;
        o.reliability[static_cast<std::size_t>(i)] =
            fresh ? static_cast<float>(e.reliability) : 0.0f;
        o.radio_on_ms[static_cast<std::size_t>(i)] =
            fresh ? static_cast<float>(e.radio_on_ms)
                  : static_cast<float>(ds.slot_ms());
      }
    }
    ds.push(std::move(step));
  }
  return ds;
}

// ---- TraceEnv --------------------------------------------------------------

TraceEnv::TraceEnv(const TraceDataset& dataset, Config cfg)
    : ds_(&dataset),
      cfg_(cfg),
      features_(cfg.features),
      rows_(static_cast<std::size_t>(dataset.n_nodes())),
      state_(static_cast<std::size_t>(features_.input_size())) {
  DIMMER_REQUIRE(dataset.size() >= 2, "dataset too small");
  DIMMER_REQUIRE(cfg_.episode_len >= 1, "episode_len must be >= 1");
}

int TraceEnv::action_count() const {
  return cfg_.action_per_value ? cfg_.features.n_max : 3;
}

const TraceOutcome& TraceEnv::current_outcome() const {
  return ds_->outcome(pos_, n_tx_);
}

void TraceEnv::write_state() {
  const TraceOutcome& o = current_outcome();
  // Feedback latency: blend radio-on with the previous round's parameter.
  const TraceOutcome* prev = pos_ > 0 && prev_n_tx_ != n_tx_
                                 ? &ds_->outcome(pos_ - 1, prev_n_tx_)
                                 : nullptr;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto id = static_cast<phy::NodeId>(i);
    if (!o.fresh[i]) {
      rows_[i] = features_.silent_row(id);
      continue;
    }
    auto radio_ms = static_cast<double>(o.radio_on_ms[i]);
    if (prev != nullptr && prev->fresh[i])
      radio_ms = 0.5 * radio_ms + 0.5 * static_cast<double>(prev->radio_on_ms[i]);
    rows_[i] = {id, static_cast<double>(o.reliability[i]), radio_ms};
  }
  features_.encode(rows_, n_tx_, history_, state_);
}

const std::vector<double>& TraceEnv::reset(util::Pcg32& rng) {
  // Random window with room for a full episode; random initial N_TX.
  std::size_t span = static_cast<std::size_t>(cfg_.episode_len) + 1;
  std::size_t max_start = ds_->size() > span ? ds_->size() - span : 0;
  pos_ = max_start > 0
             ? rng.uniform_below(static_cast<std::uint32_t>(max_start + 1))
             : 0;
  n_tx_ = rng.uniform_int(1, cfg_.features.n_max);
  prev_n_tx_ = n_tx_;
  steps_taken_ = 0;
  history_.clear();
  history_.shift_in(current_outcome().true_lossless);
  if (instr_.metrics) instr_.metrics->counter("trace_env.episodes") += 1;
  write_state();
  return state_;
}

TraceEnv::StepResult TraceEnv::step(int action) {
  DIMMER_REQUIRE(action >= 0 && action < action_count(), "action out of range");
  StepResult out;
  // dimmer-lint: hot-path begin — one trace step rewrites the env's own
  // buffers; tests/core/test_policy_alloc.cpp counts its allocations.
  prev_n_tx_ = n_tx_;
  if (cfg_.action_per_value) {
    n_tx_ = action + 1;
  } else {
    n_tx_ = apply_action(n_tx_, static_cast<AdaptAction>(action),
                         cfg_.features.n_max);
  }

  ++pos_;
  ++steps_taken_;
  DIMMER_CHECK(pos_ < ds_->size());
  const TraceOutcome& o = current_outcome();
  out.reward = dimmer_reward(o.true_lossless, n_tx_, cfg_.features.n_max,
                             cfg_.reward_c);
  history_.shift_in(o.true_lossless);
  write_state();
  out.done = steps_taken_ >= cfg_.episode_len || pos_ + 1 >= ds_->size();
  // dimmer-lint: hot-path end
  if (instr_.metrics) {
    obs::MetricsRegistry& m = *instr_.metrics;
    m.counter("trace_env.steps") += 1;
    if (!o.true_lossless) m.counter("trace_env.lossy_steps") += 1;
    m.gauge("trace_env.n_tx") = static_cast<double>(n_tx_);
  }
  return out;
}

// ---- Training and evaluation -----------------------------------------------

rl::Mlp train_dqn_on_traces(const TraceDataset& dataset,
                            const TraceEnv::Config& env_cfg,
                            TrainerConfig cfg) {
  DIMMER_REQUIRE(cfg.n_step >= 1, "n_step must be >= 1");
  TraceEnv env(dataset, env_cfg);
  env.set_instrumentation(cfg.instrumentation);
  rl::DqnConfig dqn_cfg = cfg.dqn;
  dqn_cfg.architecture = {env.state_size(), 30, env.action_count()};
  rl::DqnAgent agent(dqn_cfg, util::hash_u64(cfg.seed, 0xD40ULL));
  agent.set_instrumentation(cfg.instrumentation);
  util::Pcg32 rng(util::hash_u64(cfg.seed, 0xE47ULL));

  // n-step return assembly: emit the oldest pending (s, a) once its n
  // successor rewards are known (or the episode ends).
  struct Pending {
    std::vector<double> state;
    int action;
    double reward;
  };
  std::deque<Pending> window;
  const double gamma = dqn_cfg.gamma;
  auto flush_front = [&](const std::vector<double>& bootstrap_state,
                         bool done) {
    double ret = 0.0, g = 1.0;
    for (const Pending& p : window) {
      ret += g * p.reward;
      g *= gamma;
    }
    agent.observe(rl::Transition{window.front().state, window.front().action,
                                 ret, bootstrap_state, done, g},
                  rng);
    window.pop_front();
  };

  env.reset(rng);
  for (std::size_t t = 0; t < cfg.total_steps; ++t) {
    int action = agent.select_action(env.state(), rng);
    // The window keeps a copy: step() rewrites the env's state in place.
    window.push_back(Pending{env.state(), action, 0.0});
    TraceEnv::StepResult sr = env.step(action);
    window.back().reward = sr.reward;
    if (static_cast<int>(window.size()) == cfg.n_step)
      flush_front(env.state(), sr.done);
    if (sr.done) {
      while (!window.empty()) flush_front(env.state(), true);
      env.reset(rng);
    }
  }
  return agent.online_network();
}

PolicyEvaluation evaluate_policy(const TraceDataset& dataset,
                                 const rl::QuantizedMlp& policy,
                                 const TraceEnv::Config& env_cfg,
                                 int episodes, std::uint64_t seed) {
  return evaluate_policy(
      dataset,
      [&policy](const std::vector<double>& x) {
        return policy.greedy_action(x);
      },
      env_cfg, episodes, seed);
}

PolicyEvaluation evaluate_policy(
    const TraceDataset& dataset,
    const std::function<int(const std::vector<double>&)>& policy,
    const TraceEnv::Config& env_cfg, int episodes, std::uint64_t seed) {
  DIMMER_REQUIRE(episodes > 0, "episodes must be positive");
  TraceEnv env(dataset, env_cfg);
  util::Pcg32 rng(seed);
  PolicyEvaluation ev;
  long steps = 0, losses = 0;
  for (int e = 0; e < episodes; ++e) {
    env.reset(rng);
    for (;;) {
      int action = policy(env.state());
      TraceEnv::StepResult sr = env.step(action);
      const TraceOutcome& o = env.current_outcome();
      ev.avg_reward += sr.reward;
      ev.avg_reliability += static_cast<double>(o.true_reliability);
      ev.avg_radio_on_ms += static_cast<double>(o.true_radio_on_ms);
      ev.avg_n_tx += env.current_n_tx();
      if (!o.true_lossless) ++losses;
      ++steps;
      if (sr.done) break;
    }
  }
  double inv = 1.0 / static_cast<double>(steps);
  ev.avg_reward *= inv;
  ev.avg_reliability *= inv;
  ev.avg_radio_on_ms *= inv;
  ev.avg_n_tx *= inv;
  ev.loss_rate = static_cast<double>(losses) * inv;
  return ev;
}

// ---- Tabular baseline ------------------------------------------------------

std::size_t TabularDiscretizer::state(const std::vector<double>& x) const {
  FeatureBuilder fb(features);
  DIMMER_REQUIRE(static_cast<int>(x.size()) == fb.input_size(),
                 "feature vector size mismatch");
  auto bucket = [](double v, int buckets) {
    // v in [-1,1] -> 0..buckets-1
    double f = (v + 1.0) / 2.0;
    int b = static_cast<int>(f * buckets);
    return std::min(std::max(b, 0), buckets - 1);
  };
  const int k = features.k;
  int rel_b = bucket(x[static_cast<std::size_t>(k)], rel_buckets);
  int radio_b = bucket(x[0], radio_buckets);
  int n = 0;
  for (int v = 0; v <= features.n_max; ++v)
    if (x[static_cast<std::size_t>(2 * k + v)] > 0.5) n = v;
  int hist = 0;
  if (features.history > 0)
    hist = x[static_cast<std::size_t>(2 * k + features.n_max + 1)] > 0 ? 1 : 0;
  std::size_t idx = static_cast<std::size_t>(rel_b);
  idx = idx * radio_buckets + static_cast<std::size_t>(radio_b);
  idx = idx * (features.n_max + 1) + static_cast<std::size_t>(n);
  idx = idx * 2 + static_cast<std::size_t>(hist);
  DIMMER_CHECK(idx < n_states());
  return idx;
}

rl::TabularQ train_tabular_on_traces(const TraceDataset& dataset,
                                     const TraceEnv::Config& env_cfg,
                                     const TabularDiscretizer& disc,
                                     const TabularTrainerConfig& cfg) {
  TraceEnv env(dataset, env_cfg);
  rl::TabularQ agent(disc.n_states(), static_cast<std::size_t>(env.action_count()),
                     cfg.alpha, cfg.gamma);
  util::Pcg32 rng(util::hash_u64(cfg.seed, 0x7AB1ULL));
  std::size_t s = disc.state(env.reset(rng));
  for (std::size_t t = 0; t < cfg.total_steps; ++t) {
    double frac = std::min(
        1.0, static_cast<double>(t) / (0.5 * static_cast<double>(cfg.total_steps)));
    double eps = cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start);
    std::size_t a = agent.select(s, eps, rng);
    TraceEnv::StepResult sr = env.step(static_cast<int>(a));
    std::size_t s2 = disc.state(env.state());
    agent.update(s, a, sr.reward, s2, sr.done);
    if (sr.done) {
      s = disc.state(env.reset(rng));
    } else {
      s = s2;
    }
  }
  return agent;
}

}  // namespace dimmer::core
