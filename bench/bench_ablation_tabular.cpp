// Ablation — tabular Q-learning vs the deep Q-network (paper §III-B):
// "Traditional, tabular Q-learning provides learning with low-complexity
// costs, yet only supports problems with low-dimensional states... This
// high-dimensionality makes tabular Q-learning unfit."
//
// We train both on identical traces and compare on (a) the in-distribution
// evaluation set and (b) an unseen interference pattern — the
// generalization axis where function approximation is supposed to win.
// The table also reports how much of the tabular state space was never
// visited during training (the coverage problem).
//
// The two agents train as parallel trials via bench::run_sweep over a
// shared read-only trace dataset (DQN training dominates the wall-clock).
#include <iostream>

#include "bench/common.hpp"
#include "core/scenarios.hpp"
#include "core/trace_env.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "phy/topology.hpp"
#include "rl/quantized.hpp"
#include "util/table.hpp"

using namespace dimmer;

namespace {
core::TraceDataset make_dataset(std::size_t steps, std::uint64_t seed,
                                sim::TimeUs start, bool wifi_flavoured) {
  phy::Topology topo = phy::make_office18_topology();
  core::TraceCollectionConfig tc;
  tc.steps = steps;
  tc.seed = seed;
  tc.start_time = start;
  phy::InterferenceField field;
  if (wifi_flavoured) {
    // Unseen dynamics: WiFi-style long bursts instead of JamLab periodic.
    phy::WifiInterferer::Config w;
    w.position = core::office_jammer_position(topo, 0);
    w.wifi_channel = 13;  // covers channel 26
    w.duty = 0.3;
    w.tx_power_dbm = 8.0;
    w.seed = seed;
    field.add(std::make_unique<phy::WifiInterferer>(w));
    core::add_office_ambient(field, topo, seed);
  } else {
    core::add_training_schedule(
        field, topo,
        start + static_cast<sim::TimeUs>(steps) * tc.round_period,
        util::hash_u64(seed, 0x7ABULL));
  }
  return core::collect_traces(topo, field, tc);
}

int bench_main(const bench::Env& env) {
  std::cerr << "[tabular] building datasets...\n";
  core::TraceDataset train = make_dataset(
      static_cast<std::size_t>(env.scaled(2200)), 61, sim::hours(9), false);
  core::TraceDataset eval_seen = make_dataset(
      static_cast<std::size_t>(env.scaled(800)), 67, sim::hours(10), false);
  core::TraceDataset eval_unseen = make_dataset(
      static_cast<std::size_t>(env.scaled(800)), 71, sim::hours(11), true);

  core::TraceEnv::Config env_cfg;
  const auto steps = static_cast<std::size_t>(env.scaled(120000));
  const int episodes = env.scaled(60);

  struct Case {
    const char* key;
    const core::TraceDataset* ds;
  };
  const Case cases[] = {{"seen", &eval_seen}, {"unseen", &eval_unseen}};

  std::vector<exp::TrialSpec> specs(2);
  specs[0].scenario = "dqn";
  specs[0].seed = 5;
  specs[1].scenario = "tabular";
  specs[1].seed = 5;

  auto evaluate_into = [&](exp::TrialResult& r, const Case& c,
                           const core::PolicyEvaluation& ev) {
    std::string p = std::string(c.key) + "_";
    r.metrics[p + "reward"] = ev.avg_reward;
    r.metrics[p + "reliability"] = ev.avg_reliability;
    r.metrics[p + "radio_on_ms"] = ev.avg_radio_on_ms;
    r.metrics[p + "n_tx"] = ev.avg_n_tx;
  };

  auto trial = [&](const exp::TrialSpec& spec, util::Pcg32&) {
    exp::TrialResult r;
    if (spec.scenario == "dqn") {
      std::cerr << "[tabular] training DQN (" << steps << " steps)...\n";
      core::TrainerConfig tr;
      tr.total_steps = steps;
      tr.dqn.epsilon_anneal_steps = steps / 2;
      tr.dqn.lr_decay_steps = steps * 3 / 4;
      tr.seed = spec.seed;
      rl::Mlp net = core::train_dqn_on_traces(train, env_cfg, tr);
      rl::QuantizedMlp qnet(net);
      for (const Case& c : cases)
        evaluate_into(r, c, core::evaluate_policy(*c.ds, qnet, env_cfg,
                                                  episodes, 3));
    } else {
      std::cerr << "[tabular] training tabular Q (" << steps << " steps)...\n";
      core::TabularDiscretizer disc;
      disc.features = env_cfg.features;
      core::TabularTrainerConfig tt;
      tt.total_steps = steps;
      tt.seed = spec.seed;
      rl::TabularQ table =
          core::train_tabular_on_traces(train, env_cfg, disc, tt);
      auto policy = [&](const std::vector<double>& x) {
        return static_cast<int>(table.greedy(disc.state(x)));
      };
      for (const Case& c : cases)
        evaluate_into(r, c, core::evaluate_policy(*c.ds, policy, env_cfg,
                                                  episodes, 3));
      r.metrics["n_states"] = static_cast<double>(disc.n_states());
      r.metrics["unvisited_states"] =
          static_cast<double>(table.unvisited_states());
    }
    return r;
  };

  std::vector<exp::Trial> trials =
      bench::run_sweep(env, std::move(specs), trial);
  bench::require_all_ok(trials);
  const exp::TrialResult& dq = trials[0].result;
  const exp::TrialResult& tb = trials[1].result;

  util::Table out({"agent", "dataset", "reward", "reliability",
                   "radio-on [ms]", "mean N_TX"});
  struct Row {
    const char* key;
    const char* label;
  };
  const Row rows[] = {{"seen", "seen (802.15.4)"}, {"unseen", "unseen (WiFi)"}};
  for (const Row& row : rows) {
    std::string p = std::string(row.key) + "_";
    out.add_row({"DQN", row.label, util::Table::num(dq.metrics.at(p + "reward"), 3),
                 util::Table::pct(dq.metrics.at(p + "reliability"), 2),
                 util::Table::num(dq.metrics.at(p + "radio_on_ms")),
                 util::Table::num(dq.metrics.at(p + "n_tx"), 1)});
    out.add_row({"tabular Q", row.label,
                 util::Table::num(tb.metrics.at(p + "reward"), 3),
                 util::Table::pct(tb.metrics.at(p + "reliability"), 2),
                 util::Table::num(tb.metrics.at(p + "radio_on_ms")),
                 util::Table::num(tb.metrics.at(p + "n_tx"), 1)});
  }

  std::cout << "Tabular-vs-deep ablation (SIII-B)\n\n";
  out.print(std::cout);
  std::cout << "\ntabular state space: "
            << static_cast<long>(tb.metrics.at("n_states")) << " states, "
            << static_cast<long>(tb.metrics.at("unvisited_states"))
            << " never visited during training\n"
            << "(the coarse table collapses the continuous per-node feedback"
               " the DQN exploits; the paper's\n full input space would need"
               " a table exponential in K and is unrepresentable)\n";
  const bool wrote =
      exp::write_json("ablation_tabular", trials, {.dir = env.out}, &std::cerr);
  return wrote ? 0 : 1;
}

}  // namespace

int main() { return bench::run_main(bench_main); }
