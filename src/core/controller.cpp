#include "core/controller.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"

namespace dimmer::core {

int apply_action(int n_tx, AdaptAction a, int n_max) {
  int delta = static_cast<int>(a) - 1;  // kDecrease=-1, kMaintain=0, kIncrease=+1
  return std::clamp(n_tx + delta, 1, n_max);
}

StaticController::StaticController(int n_tx) : n_tx_(n_tx) {
  DIMMER_REQUIRE(n_tx >= 1 && n_tx <= kNMax, "static n_tx out of [1, N_max]");
}

DqnController::DqnController(rl::QuantizedMlp policy, FeatureConfig features)
    : policy_(std::move(policy)), features_(features) {
  DIMMER_REQUIRE(
      policy_.layers().front().in == features_.input_size(),
      "policy input width does not match the feature configuration");
  DIMMER_REQUIRE(policy_.layers().back().out == 3,
                 "policy must emit 3 Q-values (decrease/maintain/increase)");
}

int DqnController::decide(const GlobalSnapshot& snapshot, bool round_lossless,
                          int current_n_tx) {
  // The finished round's loss bit enters the history window first: with
  // M = 2 and 4 s rounds this is the paper's "data about losses over the
  // last 8 sec".
  history_.shift_in(round_lossless);
  features_.build_into(snapshot, current_n_tx, history_, rows_,
                       last_features_);
  auto action = static_cast<AdaptAction>(policy_.greedy_action(last_features_));
  int next_n_tx = apply_action(current_n_tx, action, features_.config().n_max);

  ++decisions_;
  if (instr_.metrics) {
    obs::MetricsRegistry& m = *instr_.metrics;
    m.counter("controller.decisions") += 1;
    const char* names[] = {"controller.action_decrease",
                           "controller.action_maintain",
                           "controller.action_increase"};
    m.counter(names[static_cast<int>(action)]) += 1;
    m.gauge("controller.n_tx") = static_cast<double>(next_n_tx);
  }
  if (instr_.trace) {
    // Q-values are recomputed in double precision purely for the trace; the
    // decision above came from the fixed-point path either way.
    std::vector<double> q = policy_.forward(last_features_);
    obs::TraceEvent e;
    e.kind = "controller";
    e.round = decisions_ - 1;
    e.f("action", static_cast<double>(action))
        .f("n_tx", next_n_tx)
        .f("prev_n_tx", current_n_tx)
        .f("lossless", round_lossless ? 1.0 : 0.0);
    for (std::size_t i = 0; i < q.size(); ++i) {
      // Built with += rather than `"q" + to_string(i)`: GCC 12's -Wrestrict
      // false-fires on the char*+string&& operator+ under -O2 inlining.
      std::string key = "q";
      key += std::to_string(i);
      e.f(key, q[i]);
    }
    instr_.trace->emit(e);
  }
  return next_n_tx;
}

}  // namespace dimmer::core
