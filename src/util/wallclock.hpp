// The repo's only sanctioned wall-clock access.
//
// Simulation results must be a pure function of (spec, seed): the dimmer-lint
// `det-clock` rule forbids std::chrono clock reads (and every other ambient
// time/randomness source) everywhere outside src/util/. Code that needs to
// *report* elapsed wall time — trial timing in exp::Runner, the bench
// harnesses' stderr timing lines — measures it through this header instead,
// which keeps the forbidden tokens in exactly one audited file.
#pragma once

#include <chrono>
#include <thread>

namespace dimmer::util {

/// Blocks the calling thread for (at least) `s` seconds. For supervision
/// paths only — worker respawn backoff, poll loops in the campaign engine —
/// never inside a simulation: like every wall-clock read, a sleep can shift
/// reported timing but must not be able to shift a single result bit.
/// Negative or zero durations return immediately.
inline void sleep_seconds(double s) {
  if (s <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Monotonic elapsed-time measurement, started at construction.
///
/// The pure(may-touch-clock) annotations mark this class as the audited
/// wall-clock seam: its readings feed reporting only, never a simulated
/// result, so the clock does not propagate to callers in dimmer-lint's
/// transitive analysis.
class Stopwatch {
 public:
  // dimmer-lint: pure(may-touch-clock)
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds since construction (or the last reset()).
  // dimmer-lint: pure(may-touch-clock)
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  // dimmer-lint: pure(may-touch-clock)
  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dimmer::util
