// Fig. 7 — Dimmer on the 48-device D-Cube deployment, without retraining.
//
// Aperiodic data collection (Data Collection V1): known sources, a known
// sink, packets at random intervals; reliability is the fraction of packets
// received at the sink. Protocols: static LWB (single-channel best-effort),
// Dimmer (the 18-node-trained DQN with channel-hopping and application-layer
// ACKs — no retraining), and Crystal (EWSN'19 configuration). Episodes:
// interference-free, WiFi level 1, WiFi level 2.
//
// Paper numbers: LWB 100 / 93.6 / 27 %, Dimmer 100 / 98.3 / 95.8 %,
// Crystal 100 / 100 / 99 %. Energy: LWB cheapest when calm and degraded by
// lost synchronization under jamming; Dimmer's rises with interference as
// N_TX ramps to N_max, comparable to the dependability-tuned Crystal.
//
// Every (episode, protocol, run) cell is a trial run via bench::run_sweep
// (exp::Runner, or the campaign engine under DIMMER_CAMPAIGN_DIR); workers
// share nothing mutable, so the table is job- and shard-count independent.
#include <iostream>
#include <memory>
#include <string>

#include "baselines/crystal.hpp"
#include "bench/common.hpp"
#include "core/collection.hpp"
#include "core/controller.hpp"
#include "core/pretrained.hpp"
#include "core/scenarios.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "phy/energy.hpp"
#include "phy/topology.hpp"
#include "rl/quantized.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace dimmer;

namespace {

int bench_main(const bench::Env& env) {
  rl::Mlp policy = bench::shared_policy(env);
  core::PretrainedOptions popt;

  const int runs = env.scaled(3);
  const long minutes = env.scaled(8);
  const char* protocols[] = {"lwb", "dimmer", "crystal"};
  const char* episodes[] = {"no interference", "WiFi level 1",
                            "WiFi level 2"};

  std::vector<exp::TrialSpec> specs;
  for (int wifi = 0; wifi <= 2; ++wifi) {
    for (const char* proto : protocols) {
      for (int run = 0; run < runs; ++run) {
        exp::TrialSpec s;
        s.scenario = std::string(proto) + "@wifi" + std::to_string(wifi);
        s.seed = util::hash_u64(0xF700ULL, static_cast<std::uint64_t>(wifi),
                                static_cast<std::uint64_t>(run));
        s.params["wifi"] = wifi;
        s.tags["protocol"] = proto;
        s.tags["episode"] = episodes[wifi];
        specs.push_back(std::move(s));
      }
    }
  }

  auto trial = [&](const exp::TrialSpec& spec, util::Pcg32&) {
    phy::Topology topo = phy::make_dcube48_topology();
    int wifi = static_cast<int>(spec.params.at("wifi"));
    const std::string& proto = spec.tags.at("protocol");
    std::uint64_t seed = spec.seed;

    phy::InterferenceField field;
    if (wifi > 0)
      phy::add_dcube_wifi_level(field, topo, wifi,
                                util::hash_u64(seed, 0xA9ULL));

    core::CollectionConfig workload;
    workload.duration = sim::minutes(minutes);
    workload.seed = seed;

    exp::TrialResult r;
    if (proto == "crystal") {
      baselines::CrystalNetwork::Config ccfg;
      baselines::CrystalNetwork net(topo, field, ccfg, /*sink=*/0, seed);
      auto res = baselines::run_crystal_collection(
          net, workload.n_sources, workload.mean_interarrival,
          workload.duration, seed);
      r.metrics["reliability"] = res.reliability;
      r.metrics["radio_duty"] = res.radio_duty;
      return r;
    }

    core::ProtocolConfig cfg;
    cfg.round_period = sim::seconds(1);  // paper: 1 s rounds in D-Cube
    for (int i = 1; i <= workload.n_sources; ++i)
      cfg.feedback_nodes.push_back(i);
    cfg.feedback_nodes.push_back(0);
    cfg.feedback_freshness_rounds = 2;
    cfg.stats_window_slots = 12;
    cfg.radio_window_slots = 7;

    std::unique_ptr<core::AdaptivityController> controller;
    if (proto == "dimmer") {
      controller = std::make_unique<core::DqnController>(
          rl::QuantizedMlp(policy), popt.features);
      cfg.round.hop_sequence.assign(
          phy::default_hopping_sequence().begin(),
          phy::default_hopping_sequence().end());
      workload.acks = true;
    } else {
      controller = std::make_unique<core::StaticController>(3);
      workload.acks = false;
    }
    core::DimmerNetwork net(topo, field, cfg, std::move(controller), 0,
                            seed);
    core::CollectionResult res = core::run_collection(net, workload);
    r.metrics["reliability"] = res.reliability;
    r.metrics["radio_duty"] = res.radio_duty;
    r.metrics["avg_n_tx"] = res.avg_n_tx;
    r.metrics["radio_on_ms"] = res.radio_on_ms;
    return r;
  };

  std::vector<exp::Trial> trials =
      bench::run_sweep(env, std::move(specs), trial);
  bench::require_all_ok(trials);

  phy::EnergyModel energy;
  util::Table table({"episode", "protocol", "reliability", "stddev",
                     "radio duty", "avg power [mW]", "mean N_TX"});
  for (int wifi = 0; wifi <= 2; ++wifi) {
    for (const char* proto : protocols) {
      std::string scenario =
          std::string(proto) + "@wifi" + std::to_string(wifi);
      util::RunningStats rel =
          exp::metric_stats(trials, scenario, "reliability");
      util::RunningStats duty =
          exp::metric_stats(trials, scenario, "radio_duty");
      util::RunningStats ntx =
          exp::metric_stats(trials, scenario, "avg_n_tx");
      table.add_row({episodes[wifi], proto, util::Table::pct(rel.mean()),
                     util::Table::pct(rel.stddev()),
                     util::Table::pct(duty.mean(), 2),
                     util::Table::num(energy.average_power_mw(duty.mean()), 2),
                     ntx.count() ? util::Table::num(ntx.mean(), 1) : "-"});
    }
  }

  std::cout << "Fig. 7: 48-node D-Cube aperiodic collection (" << runs
            << " x " << minutes << "-minute runs per cell)\n\n";
  table.print(std::cout);
  std::cout << "\n(paper: LWB 100/93.6/27%; Dimmer 100/98.3/95.8% without"
               " retraining; Crystal 100/100/99%)\n";
  const bool wrote =
      exp::write_json("fig7_dcube", trials, {.dir = env.out}, &std::cerr);
  return wrote ? 0 : 1;
}

}  // namespace

int main() { return bench::run_main(bench_main); }
