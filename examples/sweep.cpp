// Minimal exp::Runner walkthrough: a seed sweep of static LWB at several
// N_TX settings on the office topology, run on --jobs workers (default:
// hardware concurrency), printed as a table and written to
// ./BENCH_example_sweep.json.
//
//   ./build/examples/sweep [--jobs 8]
//
// Results are bit-identical for every --jobs value: each trial owns its
// topology/network, and aggregation happens in spec order after the worker
// pool drains.
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "phy/topology.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace dimmer;

int example_main(const util::Cli& cli) {
  const int jobs = static_cast<int>(
      cli.get_int("jobs", 0, 0, std::numeric_limits<int>::max()));
  const int n_tx_values[] = {1, 2, 3, 5, 8};
  const int seeds_per_setting = 4;
  const int rounds = 60;  // 4 minutes at 4 s rounds

  // One spec per (N_TX, seed) cell.
  std::vector<exp::TrialSpec> specs;
  for (int n : n_tx_values) {
    for (int s = 0; s < seeds_per_setting; ++s) {
      exp::TrialSpec spec;
      spec.scenario = "n_tx=" + std::to_string(n);
      spec.seed = util::hash_u64(0x5EEDULL, n, s);
      spec.params["n_tx"] = n;
      specs.push_back(std::move(spec));
    }
  }

  // The trial function: builds everything it touches, returns metrics.
  auto trial = [&](const exp::TrialSpec& spec, util::Pcg32&) {
    phy::Topology topo = phy::make_office18_topology();
    phy::InterferenceField field;
    core::add_office_ambient(field, topo);
    core::add_static_jamming(field, topo, 0.15);

    core::ProtocolConfig cfg;
    cfg.start_time = sim::hours(10);
    core::DimmerNetwork net(
        topo, field, cfg,
        std::make_unique<core::StaticController>(
            static_cast<int>(spec.params.at("n_tx"))),
        0, spec.seed);
    std::vector<phy::NodeId> sources;
    for (phy::NodeId i = 1; i < topo.size(); ++i) sources.push_back(i);
    sources.push_back(0);

    util::RunningStats rel, radio;
    for (int r = 0; r < rounds; ++r) {
      core::RoundStats rs = net.run_round(sources);
      rel.add(rs.reliability);
      radio.add(rs.radio_on_ms);
    }
    exp::TrialResult res;
    res.metrics["reliability"] = rel.mean();
    res.metrics["radio_on_ms"] = radio.mean();
    res.stats["reliability"] = rel;
    return res;
  };

  const exp::Runner runner({.jobs = jobs});
  std::cout << "running " << specs.size() << " trials on " << runner.jobs()
            << " worker(s)...\n\n";
  std::vector<exp::Trial> trials = runner.run(std::move(specs), trial);

  util::Table table(
      {"N_TX", "reliability", "stddev", "radio-on [ms]", "rounds"});
  for (int n : n_tx_values) {
    std::string scenario = "n_tx=" + std::to_string(n);
    util::RunningStats rel = exp::metric_stats(trials, scenario, "reliability");
    util::RunningStats radio =
        exp::metric_stats(trials, scenario, "radio_on_ms");
    util::RunningStats merged = exp::merged_stat(trials, scenario,
                                                 "reliability");
    table.add_row({std::to_string(n), util::Table::pct(rel.mean(), 2),
                   util::Table::pct(rel.stddev(), 2),
                   util::Table::num(radio.mean()),
                   std::to_string(merged.count())});
  }
  table.print(std::cout);
  std::cout << "\n15% jamming: reliability climbs with N_TX while radio-on"
               " cost grows — the trade-off Dimmer's DQN navigates.\n";
  return exp::write_json("example_sweep", trials, {}, &std::cout) ? 0 : 1;
}

int main(int argc, char** argv) {
  return util::run_main(argc, argv, example_main);
}
