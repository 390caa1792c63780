// Ablation — the reward trade-off constant C (paper Eq. 3, C = 3/10).
//
// "Low values favor high reliability, higher values encourage energy
// efficiency." This harness trains models with different C values on the
// same traces and reports where each policy settles: the reliability /
// radio-on operating point it chooses on the evaluation dataset.
//
// Each (C, model) pair trains as one trial via bench::run_sweep — the
// dominant cost here is DQN training, which parallelises across DIMMER_JOBS
// workers (or campaign shards) over a shared read-only trace dataset.
#include <iostream>

#include "bench/common.hpp"
#include "core/scenarios.hpp"
#include "core/trace_env.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
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
      util::hash_u64(seed, 0xAB1ULL));
  return core::collect_traces(topo, field, tc);
}

int bench_main(const bench::Env& env) {
  const int models = env.scaled(2);
  const auto train_steps = static_cast<std::size_t>(env.scaled(50000));
  const double c_values[] = {0.0, 0.15, 0.3, 0.6, 0.9};

  std::cerr << "[ablation] building trace datasets...\n";
  core::TraceDataset train = make_dataset(
      static_cast<std::size_t>(env.scaled(2000)), 55, sim::hours(9));
  core::TraceDataset eval = make_dataset(
      static_cast<std::size_t>(env.scaled(800)), 99, sim::hours(11));

  std::vector<exp::TrialSpec> specs;
  for (double c : c_values) {
    for (int m = 0; m < models; ++m) {
      exp::TrialSpec s;
      s.scenario = "C=" + util::Table::num(c, 2);
      s.seed = util::hash_u64(0xC0ULL, static_cast<std::uint64_t>(c * 100),
                              static_cast<std::uint64_t>(m));
      s.params["c"] = c;
      s.params["model"] = m;
      specs.push_back(std::move(s));
    }
  }

  auto trial = [&](const exp::TrialSpec& spec, util::Pcg32&) {
    core::TraceEnv::Config env_cfg;
    env_cfg.reward_c = spec.params.at("c");
    core::TrainerConfig tr;
    tr.total_steps = train_steps;
    tr.dqn.epsilon_anneal_steps = train_steps / 2;
    tr.seed = spec.seed;
    rl::Mlp net = core::train_dqn_on_traces(train, env_cfg, tr);
    core::PolicyEvaluation ev = core::evaluate_policy(
        eval, rl::QuantizedMlp(net), env_cfg, env.scaled(50),
        util::hash_u64(tr.seed, 0xE7ULL));
    exp::TrialResult r;
    r.metrics["reliability"] = ev.avg_reliability;
    r.metrics["radio_on_ms"] = ev.avg_radio_on_ms;
    r.metrics["n_tx"] = ev.avg_n_tx;
    r.metrics["loss_rate"] = ev.loss_rate;
    r.metrics["reward"] = ev.avg_reward;
    return r;
  };

  std::vector<exp::Trial> trials =
      bench::run_sweep(env, std::move(specs), trial);
  bench::require_all_ok(trials);

  util::Table table({"C", "reliability", "radio-on [ms]", "mean N_TX",
                     "loss rate"});
  for (double c : c_values) {
    std::string scenario = "C=" + util::Table::num(c, 2);
    util::RunningStats rel = exp::metric_stats(trials, scenario, "reliability");
    util::RunningStats radio =
        exp::metric_stats(trials, scenario, "radio_on_ms");
    util::RunningStats ntx = exp::metric_stats(trials, scenario, "n_tx");
    util::RunningStats loss = exp::metric_stats(trials, scenario, "loss_rate");
    table.add_row({util::Table::num(c, 2), util::Table::pct(rel.mean(), 2),
                   util::Table::num(radio.mean()),
                   util::Table::num(ntx.mean(), 1),
                   util::Table::pct(loss.mean(), 1)});
  }

  std::cout << "Reward-constant ablation (paper uses C = 0.30)\n\n";
  table.print(std::cout);
  std::cout << "\n(expected: radio-on time decreases with C — higher C"
               " trades reliability for energy)\n";
  const bool wrote =
      exp::write_json("ablation_reward", trials, {.dir = env.out}, &std::cerr);
  return wrote ? 0 : 1;
}

}  // namespace

int main() { return bench::run_main(bench_main); }
