#include "bench/perf/probe.hpp"

#include <string_view>
#include <utility>

namespace dimmer::perf {

void Ledger::absorb(const Ledger& o) {
  for (std::size_t i = 0; i < kSpanKinds; ++i) span_s[i] += o.span_s[i];
  trial_s += o.trial_s;
  crystal_s += o.crystal_s;
  decide_s += o.decide_s;
  round_us.insert(round_us.end(), o.round_us.begin(), o.round_us.end());
  decide_us.insert(decide_us.end(), o.decide_us.begin(), o.decide_us.end());
  epoch_ms.insert(epoch_ms.end(), o.epoch_ms.begin(), o.epoch_ms.end());
  flood_steps += o.flood_steps;
  flood_runs += o.flood_runs;
  flood_receivers += o.flood_receivers;
  flood_transmissions += o.flood_transmissions;
}

void Ledger::absorb_flood_counters(const obs::MetricsRegistry& m) {
  const auto& c = m.counters();
  auto count = [&c](std::string_view k) {
    auto it = c.find(k);
    return it == c.end() ? std::uint64_t{0} : it->second;
  };
  flood_steps += count("flood.steps");
  flood_runs += count("flood.runs");
  flood_receivers += count("flood.receivers");
  flood_transmissions += count("flood.transmissions");
}

void SpanClock::open() {
  mark_ = clock_.seconds();
  round_start_ = mark_;
  after_round_ = false;
}

double SpanClock::close(Span s) {
  const double now = clock_.seconds();
  const double len = now - mark_;
  ledger_.span_s[static_cast<std::size_t>(s)] += len;
  mark_ = now;
  return len;
}

// The span an event closes belongs to the layer that emitted it. Two
// positional rules: a "schedule" right after a "round" is a federation
// barrier (the previous phase's bridging and accounting ran in between),
// and a round starts at the harness call, the previous "round", or its
// cell's "schedule", whichever came last.
void SpanClock::emit(const obs::TraceEvent& e) {
  const std::string_view kind = e.kind;
  Span s = Span::kBookkeeping;
  if (kind == "flood") {
    s = Span::kFlood;
  } else if (kind == "lwb_round") {
    s = Span::kLwbExecutor;
  } else if (kind == "schedule") {
    s = after_round_ ? Span::kBarrier : Span::kLwbScheduler;
  } else if (kind == "exp3") {
    s = Span::kForwarder;
  } else if (kind == "controller") {
    s = Span::kController;
  }
  close(s);
  if (kind == "round") {
    ledger_.round_us.push_back((mark_ - round_start_) * 1e6);
    round_start_ = mark_;
    after_round_ = true;
  } else if (kind == "schedule") {
    round_start_ = mark_;
    after_round_ = false;
  } else {
    after_round_ = false;
  }
}

void SpanClock::finish_into(Ledger& run, std::mutex& mu) {
  ledger_.trial_s = clock_.seconds();
  ledger_.absorb_flood_counters(registry_);
  std::lock_guard<std::mutex> lock(mu);
  run.absorb(ledger_);
}

TimedController::TimedController(
    std::unique_ptr<core::AdaptivityController> inner, SpanClock& clock)
    : inner_(std::move(inner)), clock_(&clock) {}

int TimedController::decide(const core::GlobalSnapshot& snapshot,
                            bool round_lossless, int current_n_tx) {
  clock_->close(Span::kBookkeeping);
  const double t0 = clock_->elapsed();
  const int n_tx = inner_->decide(snapshot, round_lossless, current_n_tx);
  clock_->close(Span::kController);
  const double d = clock_->elapsed() - t0;
  Ledger& l = clock_->ledger();
  l.decide_s += d;
  l.decide_us.push_back(d * 1e6);
  return n_tx;
}

std::unique_ptr<core::AdaptivityController> timed(
    std::unique_ptr<core::AdaptivityController> c, SpanClock* clock) {
  if (clock == nullptr) return c;
  return std::make_unique<TimedController>(std::move(c), *clock);
}

}  // namespace dimmer::perf
