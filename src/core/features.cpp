#include "core/features.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dimmer::core {

LossHistory::LossHistory(std::initializer_list<bool> lossless_most_recent_first) {
  int m = 0;
  for (bool lossless : lossless_most_recent_first) {
    if (m < kMaxDepth && !lossless) lossy_ |= std::uint64_t{1} << m;
    ++m;
  }
}

FeatureBuilder::FeatureBuilder(FeatureConfig cfg) : cfg_(cfg) {
  DIMMER_REQUIRE(cfg_.k >= 1, "K must be >= 1");
  DIMMER_REQUIRE(cfg_.history >= 0 && cfg_.history <= LossHistory::kMaxDepth,
                 "M must be in [0, 64]");
  DIMMER_REQUIRE(cfg_.n_max >= 1, "N_max must be >= 1");
  DIMMER_REQUIRE(cfg_.slot_ms > 0.0, "slot_ms must be positive");
}

int FeatureBuilder::input_size() const {
  return 2 * cfg_.k + (cfg_.n_max + 1) + cfg_.history;
}

double FeatureBuilder::normalize_radio_on(double ms, double slot_ms) {
  double v = 2.0 * (ms / slot_ms) - 1.0;
  return std::clamp(v, -1.0, 1.0);
}

double FeatureBuilder::normalize_reliability(double reliability) {
  // [50%, 100%] -> [-1, 1]; "we depict any reliability below 50% [as] -1".
  double v = 4.0 * reliability - 3.0;
  return std::clamp(v, -1.0, 1.0);
}

std::vector<double> FeatureBuilder::build(const GlobalSnapshot& snapshot,
                                          int n_tx,
                                          const LossHistory& history) const {
  std::vector<FeatureRow> rows;
  std::vector<double> x;
  build_into(snapshot, n_tx, history, rows, x);
  return x;
}

void FeatureBuilder::build_into(const GlobalSnapshot& snapshot, int n_tx,
                                const LossHistory& history,
                                std::vector<FeatureRow>& rows,
                                std::vector<double>& out) const {
  rows.clear();
  rows.reserve(snapshot.entries.size());
  for (std::size_t i = 0; i < snapshot.entries.size(); ++i) {
    auto id = static_cast<phy::NodeId>(i);
    if (!snapshot.entries[i].accounted) continue;  // §IV-E subset rule
    const auto& e = snapshot.entries[i];
    rows.push_back(snapshot.fresh(id) ? FeatureRow{id, e.reliability, e.radio_on_ms}
                                      : silent_row(id));
  }
  out.resize(static_cast<std::size_t>(input_size()));
  encode(rows, n_tx, history, out);
}

void FeatureBuilder::encode(std::span<FeatureRow> rows, int n_tx,
                            const LossHistory& history,
                            std::span<double> out) const {
  DIMMER_REQUIRE(n_tx >= 0 && n_tx <= cfg_.n_max, "n_tx out of [0, N_max]");
  DIMMER_REQUIRE(out.size() == static_cast<std::size_t>(input_size()),
                 "output size must be input_size()");

  // K devices with lowest reliability; deterministic tie-break on id.
  std::sort(rows.begin(), rows.end(), [](const FeatureRow& a, const FeatureRow& b) {
    return a.rel != b.rel ? a.rel < b.rel : a.id < b.id;
  });
  // Fewer accounted reporters than K (small networks or a restricted
  // feedback subset): repeat the available rows cyclically, worst first.
  // Oversampling real reporters keeps the vector inside the distribution the
  // DQN trained on, unlike padding with synthetic "perfect" rows.
  const FeatureRow all_silent = silent_row(-1);
  const std::span<const FeatureRow> real =
      rows.empty() ? std::span<const FeatureRow>(&all_silent, 1) : rows;
  const auto k = static_cast<std::size_t>(cfg_.k);
  for (std::size_t i = 0; i < k; ++i) {
    const FeatureRow& r = real[i % real.size()];
    out[i] = normalize_radio_on(r.radio_ms, cfg_.slot_ms);
    out[k + i] = normalize_reliability(r.rel);
  }

  std::size_t at = 2 * k;
  for (int v = 0; v <= cfg_.n_max; ++v) out[at++] = v == n_tx ? 1.0 : 0.0;
  for (int m = 0; m < cfg_.history; ++m)
    out[at++] = history.lossless(m) ? 1.0 : -1.0;
}

}  // namespace dimmer::core
