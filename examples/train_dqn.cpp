// Offline DQN training tool (the paper's §IV-B workflow): collect traces on
// the 18-node office deployment under the training interference schedule,
// train the deep Q-network, report its quantized footprint, and save the
// weights for deployment.
//
//   ./examples/train_dqn [--out dimmer_dqn.mlp] [--trace-steps 2500]
//                        [--train-steps 120000] [--seed 2021]
#include <fstream>
#include <iostream>
#include <limits>

#include "core/pretrained.hpp"
#include "rl/export.hpp"
#include "core/trace_env.hpp"
#include "core/scenarios.hpp"
#include "phy/topology.hpp"
#include "rl/quantized.hpp"
#include "util/cli.hpp"

using namespace dimmer;

int example_main(const util::Cli& cli) {
  constexpr long kMaxSteps = std::numeric_limits<int>::max();
  core::PretrainedOptions opt;
  opt.trace_steps = static_cast<std::size_t>(
      cli.get_int("trace-steps", 2500, 1, kMaxSteps));
  opt.train_steps = static_cast<std::size_t>(
      cli.get_int("train-steps", 200000, 1, kMaxSteps));
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2021));
  const std::string out = cli.get("out", "dimmer_dqn.mlp");

  rl::Mlp net = core::train_default_policy(opt, &std::cout);

  std::ofstream os(out);
  if (!os.good()) {
    std::cerr << "cannot write " << out << '\n';
    return 1;
  }
  net.save(os);

  rl::QuantizedMlp q(net);
  std::cout << "[dimmer] saved policy to " << out << '\n'
            << "[dimmer] embedded footprint: " << q.flash_bytes()
            << " B flash (paper: ~2.1 kB), " << q.ram_bytes()
            << " B RAM (paper: ~400 B)\n";

  // Firmware artifact: the quantized network as a C header (int16 weights,
  // integer-only inference), ready to compile into an MCU build.
  const std::string header_out = cli.get("c-header", out + ".h");
  {
    std::ofstream hs(header_out);
    if (hs.good()) {
      hs << rl::export_quantized_c_header(q, "dimmer_dqn");
      std::cout << "[dimmer] exported C inference header to " << header_out
                << '\n';
    }
  }

  // Quick held-out evaluation on a fresh interference schedule.
  phy::Topology topo = phy::make_office18_topology();
  core::TraceCollectionConfig ec;
  ec.steps = 600;
  ec.seed = util::hash_u64(opt.seed, 0xE7A1ULL);
  ec.start_time = sim::hours(10);
  phy::InterferenceField field;
  core::add_training_schedule(
      field, topo,
      ec.start_time + static_cast<sim::TimeUs>(ec.steps) * ec.round_period,
      util::hash_u64(opt.seed, 0xFEEDULL));
  core::TraceDataset eval = core::collect_traces(topo, field, ec);

  core::TraceEnv::Config env_cfg;
  env_cfg.features = opt.features;
  core::PolicyEvaluation ev =
      core::evaluate_policy(eval, q, env_cfg, 40, 7);
  std::cout << "[dimmer] held-out eval: reward " << ev.avg_reward
            << ", reliability " << ev.avg_reliability * 100 << "%, radio-on "
            << ev.avg_radio_on_ms << " ms, mean N_TX " << ev.avg_n_tx << '\n';
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main(argc, argv, example_main);
}
