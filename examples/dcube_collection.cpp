// The paper's Fig. 7 scenario, one protocol at a time: aperiodic data
// collection on the 48-node D-Cube-like deployment under controlled WiFi
// interference, with channel-hopping and application-layer ACKs.
//
//   ./examples/dcube_collection [--protocol dimmer|lwb|crystal]
//                               [--wifi 0|1|2] [--minutes 10] [--seed 9]
#include <iostream>
#include <limits>
#include <memory>

#include "baselines/crystal.hpp"
#include "core/collection.hpp"
#include "core/pretrained.hpp"
#include "core/scenarios.hpp"
#include "phy/topology.hpp"
#include "rl/quantized.hpp"
#include "util/cli.hpp"

using namespace dimmer;

int example_main(const util::Cli& cli) {
  const std::string protocol = cli.get("protocol", "dimmer");
  const int wifi = static_cast<int>(cli.get_int("wifi", 2, 0, 2));
  const long minutes =
      cli.get_int("minutes", 10, 1, std::numeric_limits<int>::max());
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 9));

  phy::Topology topo = phy::make_dcube48_topology();
  phy::InterferenceField field;
  if (wifi > 0) phy::add_dcube_wifi_level(field, topo, wifi);

  core::CollectionConfig workload;
  workload.duration = sim::minutes(minutes);
  workload.seed = seed;

  if (protocol == "crystal") {
    baselines::CrystalNetwork::Config ccfg;
    baselines::CrystalNetwork net(topo, field, ccfg, /*sink=*/0, seed);
    auto res = baselines::run_crystal_collection(
        net, workload.n_sources, workload.mean_interarrival,
        workload.duration, seed);
    std::cout << "crystal: sent " << res.sent << ", delivered "
              << res.delivered << " (" << res.reliability * 100
              << "%), radio duty " << res.radio_duty * 100 << "%\n";
    return 0;
  }

  core::ProtocolConfig cfg;
  cfg.round_period = sim::seconds(1);  // paper: 1 s rounds in D-Cube
  // Interference evaluation accounts only the traffic-bearing subset
  // (sources + sink), with a freshness window spanning arrival gaps.
  for (int i = 1; i <= workload.n_sources; ++i) cfg.feedback_nodes.push_back(i);
  cfg.feedback_nodes.push_back(0);
  cfg.feedback_freshness_rounds = 2;
  cfg.stats_window_slots = 12;
  cfg.radio_window_slots = 7;  // ~2 rounds of slots, as on the testbed
  std::unique_ptr<core::AdaptivityController> controller;
  if (protocol == "dimmer") {
    // "We reuse the DQN trained for 18 nodes against 802.15.4 interference"
    core::PretrainedOptions opt;
    rl::Mlp net = core::load_or_train_policy(
        cli.get("policy", "dimmer_dqn.mlp"), opt, &std::cout);
    controller = std::make_unique<core::DqnController>(rl::QuantizedMlp(net),
                                                       opt.features);
    cfg.round.hop_sequence.assign(phy::default_hopping_sequence().begin(),
                                  phy::default_hopping_sequence().end());
    workload.acks = true;  // "simply add application-layer ACKs"
  } else {
    controller = std::make_unique<core::StaticController>(3);
    workload.acks = false;  // plain LWB is single-channel best-effort
  }

  core::DimmerNetwork net(topo, field, cfg, std::move(controller),
                          /*coordinator=*/0, seed);
  core::CollectionResult res = core::run_collection(net, workload);
  std::cout << protocol << ": sent " << res.sent << ", delivered "
            << res.delivered << " (" << res.reliability * 100
            << "%), radio duty " << res.radio_duty * 100 << "%, mean N_TX "
            << res.avg_n_tx << '\n';
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main(argc, argv, example_main);
}
