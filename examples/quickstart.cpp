// Quickstart: simulate the paper's 18-node office deployment running plain
// LWB at a few retransmission settings, with and without JamLab-style
// interference, and print reliability / radio-on time per configuration.
//
//   ./examples/quickstart [--rounds 100] [--duty 0.30] [--seed 1]
//
// This touches the main public surfaces: topology factories, interference
// fields, DimmerNetwork with a StaticController, and the round metrics.
#include <iostream>
#include <limits>
#include <memory>

#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "phy/topology.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace dimmer;

int example_main(const util::Cli& cli) {
  const int rounds = static_cast<int>(
      cli.get_int("rounds", 100, 1, std::numeric_limits<int>::max()));
  const double duty = cli.get_double("duty", 0.30);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  phy::Topology topo = phy::make_office18_topology();
  auto hops = topo.hop_counts(0);
  int max_hop = 0;
  for (int h : hops) max_hop = std::max(max_hop, h);
  std::cout << "18-node office topology, diameter " << max_hop << " hops\n\n";

  std::vector<phy::NodeId> sources;
  for (int i = 1; i < topo.size(); ++i) sources.push_back(i);
  sources.push_back(0);

  util::Table table({"interference", "N_TX", "reliability", "radio-on [ms]",
                     "desync nodes"});
  for (bool jam : {false, true}) {
    phy::InterferenceField field;
    if (jam) core::add_static_jamming(field, topo, duty);
    for (int n_tx : {1, 3, 5, 8}) {
      core::ProtocolConfig cfg;
      cfg.initial_n_tx = n_tx;
      core::DimmerNetwork net(topo, field, cfg,
                              std::make_unique<core::StaticController>(n_tx),
                              /*coordinator=*/0, seed);
      util::RunningStats rel, radio;
      int desync = 0;
      for (int r = 0; r < rounds; ++r) {
        core::RoundStats rs = net.run_round(sources);
        rel.add(rs.reliability);
        radio.add(rs.radio_on_ms);
        desync = std::max(desync, rs.desynchronized);
      }
      table.add_row({jam ? util::Table::pct(duty, 0) + " jamming" : "none",
                     std::to_string(n_tx), util::Table::pct(rel.mean()),
                     util::Table::num(radio.mean()), std::to_string(desync)});
    }
  }
  table.print(std::cout);
  std::cout << "\nHigher N_TX buys reliability under interference at an"
               " energy cost —\nthe trade-off Dimmer's DQN learns to navigate"
               " automatically.\n";
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main(argc, argv, example_main);
}
