// Fig. 4b — DQN feature selection.
//
//  (i)  Radio-on time (and reliability) as a function of K, the number of
//       lowest-reliability devices fed to the DQN. The paper finds K=1..5
//       too conservative (wasted energy), K=18 overfitting, and picks K=10.
//  (ii) Reliability as a function of the number of historical features M.
//       The paper reports ~98.5% without history vs ~99% with M=2.
//
// Plus the paper's §IV-B action-space ablation: the 3-action incremental
// space versus one action per N_TX value (argued to overfit).
//
// Methodology mirrors §V-B: an evaluation dataset with mild and heavy
// interference and interference-free episodes; several models per
// configuration, averaged; error bars are standard deviations across models.
#include <iostream>

#include "bench/common.hpp"
#include "core/scenarios.hpp"
#include "core/trace_env.hpp"
#include "phy/topology.hpp"
#include "rl/quantized.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace dimmer;

namespace {

core::TraceDataset make_dataset(std::size_t steps, std::uint64_t seed,
                                sim::TimeUs start) {
  phy::Topology topo = phy::make_office18_topology();
  core::TraceCollectionConfig tc;
  tc.steps = steps;
  tc.seed = seed;
  tc.start_time = start;
  phy::InterferenceField field;
  core::add_training_schedule(
      field, topo,
      tc.start_time + static_cast<sim::TimeUs>(tc.steps) * tc.round_period,
      util::hash_u64(seed, 0xF16ULL));
  return core::collect_traces(topo, field, tc);
}

struct ConfigResult {
  util::RunningStats radio, rel, reward;
};

ConfigResult run_config(const core::TraceDataset& train,
                        const core::TraceDataset& eval,
                        const core::TraceEnv::Config& env_cfg, int models,
                        std::size_t train_steps, int episodes,
                        std::uint64_t seed) {
  ConfigResult out;
  for (int m = 0; m < models; ++m) {
    core::TrainerConfig tr;
    tr.total_steps = train_steps;
    tr.dqn.epsilon_anneal_steps = train_steps / 2;
    tr.seed = util::hash_u64(seed, static_cast<std::uint64_t>(m));
    rl::Mlp net = core::train_dqn_on_traces(train, env_cfg, tr);
    core::PolicyEvaluation ev = core::evaluate_policy(
        eval, rl::QuantizedMlp(net), env_cfg, episodes,
        util::hash_u64(seed, static_cast<std::uint64_t>(m), 0xE7ULL));
    out.radio.add(ev.avg_radio_on_ms);
    out.rel.add(ev.avg_reliability);
    out.reward.add(ev.avg_reward);
  }
  return out;
}

int bench_main(const bench::Env& env) {
  const int models = env.scaled(3);
  const auto train_steps = static_cast<std::size_t>(env.scaled(50000));
  const int episodes = env.scaled(60);

  std::cerr << "[fig4b] building train/eval trace datasets...\n";
  core::TraceDataset train = make_dataset(
      static_cast<std::size_t>(env.scaled(2200)), 31, sim::hours(9));
  core::TraceDataset eval = make_dataset(
      static_cast<std::size_t>(env.scaled(900)), 77, sim::hours(10));

  std::cout << "Fig. 4b(i): number of device inputs K (M = 2 fixed; " << models
            << " models per K)\n\n";
  util::Table t1({"K", "radio-on [ms]", "stddev", "reliability", "stddev"});
  for (int k : {1, 2, 5, 10, 18}) {
    core::TraceEnv::Config env_cfg;
    env_cfg.features.k = k;
    ConfigResult r = run_config(train, eval, env_cfg, models, train_steps,
                                episodes, 0x4B00 + static_cast<std::uint64_t>(k));
    t1.add_row({std::to_string(k), util::Table::num(r.radio.mean()),
                util::Table::num(r.radio.stddev()),
                util::Table::pct(r.rel.mean(), 2),
                util::Table::pct(r.rel.stddev(), 2)});
  }
  t1.print(std::cout);
  std::cout << "(paper: K=1..5 conservative/high radio-on, K=18 overfits;"
               " K=10 minimizes radio-on)\n\n";

  std::cout << "Fig. 4b(ii): history size M (K = 10 fixed; short episodes"
               " probe transient-vs-persistent discrimination)\n\n";
  util::Table t2({"M", "reliability", "stddev", "radio-on [ms]"});
  for (int m_hist : {0, 1, 2, 4}) {
    core::TraceEnv::Config env_cfg;
    env_cfg.features.history = m_hist;
    env_cfg.episode_len = 2;  // paper: 1000 episodes of 2 decisions
    ConfigResult r =
        run_config(train, eval, env_cfg, models, train_steps,
                   env.scaled(500), 0x4B40 + static_cast<std::uint64_t>(m_hist));
    t2.add_row({std::to_string(m_hist), util::Table::pct(r.rel.mean(), 2),
                util::Table::pct(r.rel.stddev(), 2),
                util::Table::num(r.radio.mean())});
  }
  t2.print(std::cout);
  std::cout << "(paper: ~98.5% without history vs ~99% with M=2; more than"
               " 2 adds little)\n\n";

  std::cout << "SIV-B ablation: incremental 3-action space vs one action per"
               " N_TX value\n\n";
  util::Table t3({"action space", "reward", "reliability", "radio-on [ms]"});
  for (bool per_value : {false, true}) {
    core::TraceEnv::Config env_cfg;
    env_cfg.action_per_value = per_value;
    ConfigResult r = run_config(train, eval, env_cfg, models, train_steps,
                                episodes, per_value ? 0x4B81 : 0x4B80);
    t3.add_row({per_value ? "one per value (8)" : "inc/keep/dec (3)",
                util::Table::num(r.reward.mean(), 3),
                util::Table::pct(r.rel.mean(), 2),
                util::Table::num(r.radio.mean())});
  }
  t3.print(std::cout);
  std::cout << "(paper argues the per-value space overfits environment"
               " specifics and behaves worse on unseen dynamics)\n";
  return 0;
}

}  // namespace

int main() { return bench::run_main(bench_main); }
