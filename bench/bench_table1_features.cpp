// Table I — the DQN input vector.
//
// Prints the paper's table (rows, normalization) from the live
// FeatureBuilder, verifies the 31-element layout, and shows a worked example
// of a snapshot being normalized, one-hot encoded, and history-tagged.
#include <iostream>

#include "bench/common.hpp"
#include "core/features.hpp"
#include "util/table.hpp"

namespace {

int bench_main(const dimmer::bench::Env&) {
  using namespace dimmer;
  core::FeatureConfig cfg;  // K=10, M=2, N_max=8: the paper's configuration
  core::FeatureBuilder fb(cfg);

  std::cout << "Table I: Input vector of Dimmer's DQN\n\n";
  util::Table table({"Input", "Number of rows", "Normalization"});
  table.add_row({"Radio-on time", "K (" + std::to_string(cfg.k) + ")",
                 "[0, 20ms] -> [-1, 1]"});
  table.add_row({"Reliability", "K (" + std::to_string(cfg.k) + ")",
                 "[50, 100%] -> [-1, 1]"});
  table.add_row({"N parameter",
                 "N_max+1 (" + std::to_string(cfg.n_max + 1) + ")",
                 "one-hot encoding"});
  table.add_row({"History", "M (" + std::to_string(cfg.history) + ")",
                 "-1 if losses, otherwise 1"});
  table.print(std::cout);
  std::cout << "\ntotal input size: " << fb.input_size()
            << " (paper: 31)\n\n";

  // Worked example: an 18-node snapshot with two suffering nodes.
  core::GlobalSnapshot snap(18);
  snap.current_round = 7;
  for (int i = 0; i < 18; ++i) {
    auto& e = snap.entries[static_cast<std::size_t>(i)];
    e.reliability = i == 4 ? 0.62 : (i == 9 ? 0.88 : 1.0);
    e.radio_on_ms = i == 4 ? 18.0 : 7.5;
    e.round = 7;
    e.ever_heard = i != 13;  // node 13 was never heard: pessimistic fill
  }
  core::LossHistory history = {false, true};  // losses last round
  std::vector<double> x = fb.build(snap, /*n_tx=*/3, history);

  std::cout << "example input vector (worst node first):\n  radio-on:   ";
  for (int i = 0; i < cfg.k; ++i) std::cout << x[static_cast<std::size_t>(i)] << ' ';
  std::cout << "\n  reliability:";
  for (int i = cfg.k; i < 2 * cfg.k; ++i)
    std::cout << ' ' << x[static_cast<std::size_t>(i)];
  std::cout << "\n  one-hot N=3:";
  for (int i = 2 * cfg.k; i < 2 * cfg.k + cfg.n_max + 1; ++i)
    std::cout << ' ' << x[static_cast<std::size_t>(i)];
  std::cout << "\n  history:    ";
  for (int i = 2 * cfg.k + cfg.n_max + 1; i < fb.input_size(); ++i)
    std::cout << ' ' << x[static_cast<std::size_t>(i)];
  std::cout << '\n';
  return 0;
}

}  // namespace

int main() { return dimmer::bench::run_main(bench_main); }
