#include "reference_trace_env.hpp"

#include <algorithm>

#include "core/controller.hpp"
#include "util/check.hpp"

namespace dimmer::core::reference {

namespace {

GlobalSnapshot to_snapshot(const TraceDataset& ds, const TraceOutcome& o) {
  const int n_nodes_ = ds.n_nodes();
  GlobalSnapshot snap(n_nodes_);
  snap.current_round = 1;
  for (int i = 0; i < n_nodes_; ++i) {
    auto& e = snap.entries[static_cast<std::size_t>(i)];
    if (o.fresh[static_cast<std::size_t>(i)]) {
      e.reliability = o.reliability[static_cast<std::size_t>(i)];
      e.radio_on_ms = o.radio_on_ms[static_cast<std::size_t>(i)];
      e.round = 1;
      e.ever_heard = true;
    }
  }
  return snap;
}

}  // namespace

std::vector<double> build_features(const FeatureConfig& cfg_,
                                   const GlobalSnapshot& snapshot, int n_tx,
                                   const std::deque<bool>& history) {
  DIMMER_REQUIRE(n_tx >= 0 && n_tx <= cfg_.n_max, "n_tx out of [0, N_max]");

  // Effective per-node values: fresh feedback or pessimistic fill
  // ("Absence of feedback is treated as 0% reliability, 100% radio-on").
  struct Row {
    phy::NodeId id;
    double rel;
    double radio_ms;
  };
  std::vector<Row> rows;
  rows.reserve(snapshot.entries.size());
  for (std::size_t i = 0; i < snapshot.entries.size(); ++i) {
    auto id = static_cast<phy::NodeId>(i);
    if (!snapshot.entries[i].accounted) continue;  // §IV-E subset rule
    if (snapshot.fresh(id)) {
      const auto& e = snapshot.entries[i];
      rows.push_back({id, e.reliability, e.radio_on_ms});
    } else {
      rows.push_back({id, 0.0, cfg_.slot_ms});
    }
  }

  // K devices with lowest reliability; deterministic tie-break on id.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.rel != b.rel ? a.rel < b.rel : a.id < b.id;
  });
  // Fewer accounted reporters than K (small networks or a restricted
  // feedback subset): repeat the available rows cyclically, worst first.
  // Oversampling real reporters keeps the vector inside the distribution the
  // DQN trained on, unlike padding with synthetic "perfect" rows.
  if (rows.empty()) rows.push_back({-1, 0.0, cfg_.slot_ms});  // all silent
  const std::size_t real_rows = rows.size();
  for (std::size_t i = 0; static_cast<int>(rows.size()) < cfg_.k; ++i) {
    Row repeat = rows[i % real_rows];
    rows.push_back(repeat);
  }

  std::vector<double> x;
  for (int i = 0; i < cfg_.k; ++i)
    x.push_back(FeatureBuilder::normalize_radio_on(
        rows[static_cast<std::size_t>(i)].radio_ms, cfg_.slot_ms));
  for (int i = 0; i < cfg_.k; ++i)
    x.push_back(FeatureBuilder::normalize_reliability(
        rows[static_cast<std::size_t>(i)].rel));

  for (int v = 0; v <= cfg_.n_max; ++v) x.push_back(v == n_tx ? 1.0 : 0.0);

  for (int m = 0; m < cfg_.history; ++m) {
    bool lossless =
        m < static_cast<int>(history.size()) ? history[static_cast<std::size_t>(m)] : true;
    x.push_back(lossless ? 1.0 : -1.0);
  }
  return x;
}

TraceEnv::TraceEnv(const TraceDataset& dataset, core::TraceEnv::Config cfg)
    : ds_(&dataset), cfg_(cfg) {
  DIMMER_REQUIRE(dataset.size() >= 2, "dataset too small");
  DIMMER_REQUIRE(cfg_.episode_len >= 1, "episode_len must be >= 1");
}

const TraceOutcome& TraceEnv::current_outcome() const {
  return ds_->step(pos_).at(n_tx_);
}

std::vector<double> TraceEnv::observe() const {
  GlobalSnapshot snap = to_snapshot(*ds_, current_outcome());
  // Feedback latency: blend radio-on with the previous round's parameter.
  if (pos_ > 0 && prev_n_tx_ != n_tx_) {
    const TraceOutcome& prev = ds_->step(pos_ - 1).at(prev_n_tx_);
    for (std::size_t i = 0; i < snap.entries.size(); ++i) {
      if (!prev.fresh[i]) continue;
      snap.entries[i].radio_on_ms = 0.5 * snap.entries[i].radio_on_ms +
                                    0.5 * static_cast<double>(prev.radio_on_ms[i]);
    }
  }
  return build_features(cfg_.features, snap, n_tx_, history_);
}

std::vector<double> TraceEnv::reset(util::Pcg32& rng) {
  // Random window with room for a full episode; random initial N_TX.
  std::size_t span = static_cast<std::size_t>(cfg_.episode_len) + 1;
  std::size_t max_start = ds_->size() > span ? ds_->size() - span : 0;
  pos_ = max_start > 0
             ? rng.uniform_below(static_cast<std::uint32_t>(max_start + 1))
             : 0;
  n_tx_ = rng.uniform_int(1, cfg_.features.n_max);
  prev_n_tx_ = n_tx_;
  steps_taken_ = 0;
  history_.clear();
  history_.push_front(current_outcome().true_lossless);
  return observe();
}

TraceEnv::StepResult TraceEnv::step(int action) {
  const int actions = cfg_.action_per_value ? cfg_.features.n_max : 3;
  DIMMER_REQUIRE(action >= 0 && action < actions, "action out of range");
  prev_n_tx_ = n_tx_;
  if (cfg_.action_per_value) {
    n_tx_ = action + 1;
  } else {
    n_tx_ = apply_action(n_tx_, static_cast<AdaptAction>(action),
                         cfg_.features.n_max);
  }

  ++pos_;
  ++steps_taken_;
  DIMMER_CHECK(pos_ < ds_->size());
  const TraceOutcome& o = current_outcome();

  StepResult out;
  out.reward = dimmer_reward(o.true_lossless, n_tx_, cfg_.features.n_max,
                             cfg_.reward_c);
  history_.push_front(o.true_lossless);
  while (static_cast<int>(history_.size()) >
         std::max(1, cfg_.features.history))
    history_.pop_back();
  out.state = observe();
  out.done = steps_taken_ >= cfg_.episode_len ||
             pos_ + 1 >= ds_->size();
  return out;
}

}  // namespace dimmer::core::reference
