// Traced-run instrumentation for bench_perf, owned entirely by the harness.
//
// Per-layer time is measured only at calls the harness makes into public
// functions and seams of the program (tracing inside the program is a
// separate change):
//
//  - SpanClock is an obs::TraceSink that wall-stamps every event the program
//    already emits. Each event closes the span that began at the previous
//    event (or at the harness call, see open()), and the span is attributed
//    to the layer that emitted the closing event (rules in probe.cpp).
//  - TimedController is a forwarding AdaptivityController decorator: it
//    closes the span before `decide` and times `decide` itself.
//  - The flood counters come from the MetricsRegistry the program already
//    feeds (flood.steps / runs / receivers / transmissions).
//
// Time is read only through util::Stopwatch: the sink sits behind the
// name-widened `emit` calls of src/ hot regions, and Stopwatch is the
// audited clock seam that dimmer-lint does not propagate to callers.
// Nothing recorded here reaches a TrialResult, so traced and untraced
// trials serialize (and digest) identically.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/controller.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/wallclock.hpp"

namespace dimmer::perf {

/// The layer a span is attributed to.
enum class Span : int {
  kFlood,        ///< closed by a "flood" event (flood/)
  kLwbExecutor,  ///< closed by "lwb_round": round executor after the floods
  kLwbScheduler, ///< closed by "schedule" (lwb::Scheduler)
  kBookkeeping,  ///< closed by "round", other events, or the harness return
  kController,   ///< inside AdaptivityController::decide
  kForwarder,    ///< closed by "exp3" (Exp3 forwarder selection)
  kBarrier,      ///< federation barriers: bridging, accounting, composing
  kCount
};
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(Span::kCount);

/// Span sums, samples and counters of one traced trial, or of every traced
/// trial of a run once absorbed.
struct Ledger {
  std::array<double, kSpanKinds> span_s{};
  double trial_s = 0.0;    ///< traced trial wall time: the share denominator
  double crystal_s = 0.0;  ///< inside baselines::run_crystal_collection
  double decide_s = 0.0;
  std::vector<double> round_us;
  std::vector<double> decide_us;
  std::vector<double> epoch_ms;
  std::uint64_t flood_steps = 0;
  std::uint64_t flood_runs = 0;
  std::uint64_t flood_receivers = 0;
  std::uint64_t flood_transmissions = 0;

  double span(Span s) const { return span_s[static_cast<std::size_t>(s)]; }
  /// Adds `o`'s sums and appends its samples.
  void absorb(const Ledger& o);
  /// Adds the flood.* counters of a registry the program fed.
  void absorb_flood_counters(const obs::MetricsRegistry& m);
};

/// Per-trial span recorder (single-threaded, like the trial it observes).
class SpanClock final : public obs::TraceSink {
 public:
  /// A harness call into the program begins: the next span starts now.
  void open();
  /// Closes the current span as `s` (the next one starts now); returns its
  /// length in seconds.
  double close(Span s);
  /// Seconds since the clock was created.
  double elapsed() const { return clock_.seconds(); }

  void emit(const obs::TraceEvent& e) override;

  /// Trace sink and metrics registry to hand the program.
  obs::Instrumentation instrumentation() { return {this, &registry_}; }

  /// Stamps the trial's wall time, folds the registry's flood counters in,
  /// and adds everything to `run` under `mu`.
  void finish_into(Ledger& run, std::mutex& mu);

  Ledger& ledger() { return ledger_; }

 private:
  util::Stopwatch clock_;
  double mark_ = 0.0;
  double round_start_ = 0.0;
  bool after_round_ = false;
  obs::MetricsRegistry registry_;
  Ledger ledger_;
};

/// Forwarding decorator: the decision itself is untouched (same controller,
/// same inputs, same result); only the call is timed.
class TimedController final : public core::AdaptivityController {
 public:
  TimedController(std::unique_ptr<core::AdaptivityController> inner,
                  SpanClock& clock);

  int decide(const core::GlobalSnapshot& snapshot, bool round_lossless,
             int current_n_tx) override;
  const char* name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  void set_instrumentation(obs::Instrumentation instr) override {
    inner_->set_instrumentation(instr);
  }

 private:
  std::unique_ptr<core::AdaptivityController> inner_;
  SpanClock* clock_;
};

/// Wraps `c` in a TimedController when `clock` is non-null (traced trial).
std::unique_ptr<core::AdaptivityController> timed(
    std::unique_ptr<core::AdaptivityController> c, SpanClock* clock);

}  // namespace dimmer::perf
