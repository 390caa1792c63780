#include "bench/perf/workloads.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "baselines/crystal.hpp"
#include "baselines/pid.hpp"
#include "core/collection.hpp"
#include "core/controller.hpp"
#include "core/federation.hpp"
#include "core/pretrained.hpp"
#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "core/trace_env.hpp"
#include "rl/quantized.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dimmer::perf {

std::vector<exp::TrialSpec> Workload::batch(std::uint64_t seed,
                                            std::uint64_t index) const {
  std::vector<exp::TrialSpec> specs;
  const auto runs = static_cast<std::uint64_t>(runs_per_batch());
  for (std::uint64_t run = index * runs; run < (index + 1) * runs; ++run)
    for (int v = 0; v < variants(); ++v) specs.push_back(spec(seed, v, run));
  return specs;
}

namespace {

exp::TrialSpec base_spec(std::string scenario, std::uint64_t seed, int variant,
                         std::uint64_t run) {
  exp::TrialSpec s;
  s.scenario = std::move(scenario);
  s.seed = util::hash_u64(seed, static_cast<std::uint64_t>(variant), run);
  s.params["variant"] = variant;
  return s;
}

exp::TrialResult failed(std::string why) {
  exp::TrialResult r;
  r.ok = false;
  r.error = std::move(why);
  return r;
}

bool in_unit(double x) { return x >= 0.0 && x <= 1.0; }

std::unique_ptr<core::AdaptivityController> dqn(const rl::QuantizedMlp& q) {
  return std::make_unique<core::DqnController>(q, core::FeatureConfig{});
}

// ---- office18-dynamic: Fig. 4c/4d ------------------------------------------

class Office18Dynamic final : public Workload {
 public:
  int variants() const override { return 3; }
  int runs_per_batch() const override { return 4; }

  double build(const rl::Mlp& policy) override {
    util::Stopwatch sw;
    topo_ = phy::make_office18_topology();
    const double topo_s = sw.seconds();
    field_ = phy::InterferenceField{};
    core::add_office_ambient(field_, *topo_);
    core::add_dynamic_jamming(field_, *topo_, phy::kControlChannel, kOrigin);
    q_ = std::make_unique<rl::QuantizedMlp>(policy);
    sources_.clear();
    for (phy::NodeId i = 1; i < topo_->size(); ++i) sources_.push_back(i);
    sources_.push_back(0);
    return topo_s;
  }

  exp::TrialSpec spec(std::uint64_t seed, int variant,
                      std::uint64_t run) const override {
    static const char* const kNames[] = {"dimmer+mab", "pid", "lwb"};
    return base_spec(kNames[variant], seed, variant, run);
  }

  exp::TrialResult trial(const exp::TrialSpec& spec,
                         SpanClock* clock) const override {
    const int variant = static_cast<int>(spec.params.at("variant"));
    core::ProtocolConfig cfg;
    cfg.start_time = kOrigin;
    std::unique_ptr<core::AdaptivityController> ctrl;
    if (variant == 0) {
      ctrl = dqn(*q_);
      cfg.forwarder_selection = true;
    } else if (variant == 1) {
      ctrl = std::make_unique<baselines::PidController>();
    } else {
      ctrl = std::make_unique<core::StaticController>(3);
    }
    core::DimmerNetwork net(*topo_, field_, cfg, timed(std::move(ctrl), clock),
                            0, spec.seed);
    if (clock != nullptr) net.set_instrumentation(clock->instrumentation());

    core::RoundStats rs;
    util::RunningStats rel, radio, ntx, fwd;
    for (int rd = 0; rd < kRounds; ++rd) {
      if (clock != nullptr) clock->open();
      net.run_round_into(sources_, rs);
      if (clock != nullptr) clock->close(Span::kBookkeeping);
      rel.add(rs.reliability);
      radio.add(rs.radio_on_ms);
      ntx.add(rs.n_tx);
      fwd.add(rs.active_forwarders);
    }
    if (!in_unit(rel.min()) || !in_unit(rel.max()) || radio.min() <= 0.0 ||
        ntx.min() < 1.0 || ntx.max() > core::kNMax)
      return failed("office18: round statistics out of range");
    exp::TrialResult r;
    r.metrics["rounds"] = kRounds;
    r.metrics["reliability"] = rel.mean();
    r.metrics["radio_on_ms"] = radio.mean();
    r.metrics["n_tx"] = ntx.mean();
    r.metrics["active_forwarders"] = fwd.mean();
    r.stats["reliability"] = rel;
    r.stats["radio_on_ms"] = radio;
    return r;
  }

  FloodReplay replay() const override {
    // Inside the 30% jamming phase (minutes 7-12 of the timeline).
    return {&*topo_, &field_, 600, kOrigin + sim::minutes(8)};
  }

 private:
  static constexpr sim::TimeUs kOrigin = sim::hours(10);
  static constexpr int kRounds = 27 * 60 / 4;  // 27 minutes of 4 s rounds

  std::optional<phy::Topology> topo_;
  phy::InterferenceField field_;
  std::unique_ptr<rl::QuantizedMlp> q_;
  std::vector<phy::NodeId> sources_;
};

// ---- dcube48-wifi2: Fig. 7 collection at WiFi level 2 ----------------------

class Dcube48Wifi2 final : public Workload {
 public:
  int variants() const override { return 3; }
  int runs_per_batch() const override { return 2; }

  double build(const rl::Mlp& policy) override {
    util::Stopwatch sw;
    topo_ = phy::make_dcube48_topology();
    const double topo_s = sw.seconds();
    replay_field_ = phy::InterferenceField{};
    phy::add_dcube_wifi_level(replay_field_, *topo_, 2);
    q_ = std::make_unique<rl::QuantizedMlp>(policy);
    return topo_s;
  }

  exp::TrialSpec spec(std::uint64_t seed, int variant,
                      std::uint64_t run) const override {
    static const char* const kNames[] = {"lwb", "dimmer", "crystal"};
    return base_spec(kNames[variant], seed, variant, run);
  }

  exp::TrialResult trial(const exp::TrialSpec& spec,
                         SpanClock* clock) const override {
    const int variant = static_cast<int>(spec.params.at("variant"));
    const std::uint64_t seed = spec.seed;
    phy::InterferenceField field;
    phy::add_dcube_wifi_level(field, *topo_, 2, util::hash_u64(seed, 0xA9ULL));

    core::CollectionConfig workload;
    workload.duration = sim::minutes(kMinutes);
    workload.seed = seed;

    exp::TrialResult r;
    if (variant == 2) {
      baselines::CrystalNetwork::Config ccfg;
      baselines::CrystalNetwork net(*topo_, field, ccfg, /*sink=*/0, seed);
      const double t0 = clock != nullptr ? clock->elapsed() : 0.0;
      baselines::CrystalCollectionResult res =
          baselines::run_crystal_collection(net, workload.n_sources,
                                            workload.mean_interarrival,
                                            workload.duration, seed);
      if (clock != nullptr) clock->ledger().crystal_s += clock->elapsed() - t0;
      if (res.epochs <= 0 || !in_unit(res.reliability) ||
          !in_unit(res.radio_duty))
        return failed("crystal: collection result out of range");
      r.metrics["rounds"] = static_cast<double>(res.epochs);
      r.metrics["reliability"] = res.reliability;
      r.metrics["radio_duty"] = res.radio_duty;
      r.metrics["delivered"] = static_cast<double>(res.delivered);
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
    std::unique_ptr<core::AdaptivityController> ctrl;
    if (variant == 1) {
      ctrl = dqn(*q_);
      cfg.round.hop_sequence.assign(phy::default_hopping_sequence().begin(),
                                    phy::default_hopping_sequence().end());
      workload.acks = true;
    } else {
      ctrl = std::make_unique<core::StaticController>(3);
      workload.acks = false;
    }
    core::DimmerNetwork net(*topo_, field, cfg, timed(std::move(ctrl), clock),
                            0, seed);
    if (clock != nullptr) {
      net.set_instrumentation(clock->instrumentation());
      clock->open();
    }
    core::CollectionResult res = core::run_collection(net, workload);
    if (clock != nullptr) clock->close(Span::kBookkeeping);
    if (res.rounds != kMinutes * 60 || !in_unit(res.reliability) ||
        !in_unit(res.radio_duty) || res.avg_n_tx < 1.0)
      return failed("collection: result out of range");
    r.metrics["rounds"] = static_cast<double>(res.rounds);
    r.metrics["reliability"] = res.reliability;
    r.metrics["radio_duty"] = res.radio_duty;
    r.metrics["avg_n_tx"] = res.avg_n_tx;
    r.metrics["radio_on_ms"] = res.radio_on_ms;
    r.metrics["delivered"] = static_cast<double>(res.delivered);
    return r;
  }

  FloodReplay replay() const override {
    return {&*topo_, &replay_field_, 300, sim::minutes(1)};
  }

 private:
  static constexpr long kMinutes = 8;  // 480 rounds of 1 s

  std::optional<phy::Topology> topo_;
  phy::InterferenceField replay_field_;
  std::unique_ptr<rl::QuantizedMlp> q_;
};

// ---- city1024-fed: bench_city_scale ----------------------------------------

class City1024Fed final : public Workload {
 public:
  int variants() const override { return 4; }
  int runs_per_batch() const override { return 1; }

  double build(const rl::Mlp&) override {
    util::Stopwatch sw;
    topo_ = phy::make_campus_topology_culled(
        kNodes, 42, phy::gain_cull_floor_db(phy::RadioConstants{}, 20.0));
    const double topo_s = sw.seconds();
    field_ = phy::InterferenceField{};
    core::add_office_ambient(field_, *topo_);
    return topo_s;
  }

  // Variants: bit 0 = protocol (lwb, pid), bit 1 = scenario (steady,
  // coord-kill).
  exp::TrialSpec spec(std::uint64_t seed, int variant,
                      std::uint64_t run) const override {
    std::string name = (variant & 1) != 0 ? "pid" : "lwb";
    name += (variant & 2) != 0 ? "@coord-kill" : "@steady";
    return base_spec(std::move(name), seed, variant, run);
  }

  exp::TrialResult trial(const exp::TrialSpec& spec,
                         SpanClock* clock) const override {
    const int variant = static_cast<int>(spec.params.at("variant"));
    const bool pid = (variant & 1) != 0;
    const bool kill = (variant & 2) != 0;

    core::FederationConfig fc;
    fc.n_cells = kCells;
    fc.sink = 0;
    fc.sparse_links = true;
    fc.workers = 1;
    core::Federation fed(
        *topo_, field_, fc,
        [pid, clock](int) {
          std::unique_ptr<core::AdaptivityController> c;
          if (pid)
            c = std::make_unique<baselines::PidController>();
          else
            c = std::make_unique<core::StaticController>(3);
          return timed(std::move(c), clock);
        },
        spec.seed);
    if (clock != nullptr) fed.set_instrumentation(clock);

    // Two periodic flows per cell, mid-list and high, clear of the
    // auto-assigned leadership (the lowest non-gateway member ids).
    const sim::TimeUs ipi = fc.protocol.round_period;
    for (int c = 0; c < fed.cell_count(); ++c) {
      const auto& m = fed.cell(c).members();
      (void)fed.add_flow(m[m.size() / 2], ipi);
      phy::NodeId hi = m[m.size() - 2];
      if (hi == fed.gateway(c)) hi = m[m.size() - 3];
      (void)fed.add_flow(hi, ipi);
    }
    const int victim = deepest_cell(fed);

    util::RunningStats rel;
    std::uint64_t delivered_pre_kill = 0;
    for (int e = 0; e < kEpochs; ++e) {
      if (kill && e == kKillEpoch) {
        delivered_pre_kill = fed.packets_delivered();
        fed.fail_cell_leadership(victim);
      }
      const double t0 = clock != nullptr ? clock->elapsed() : 0.0;
      if (clock != nullptr) clock->open();
      core::FederationStats st = fed.run_epoch();
      if (clock != nullptr) {
        clock->close(Span::kBarrier);
        clock->ledger().epoch_ms.push_back((clock->elapsed() - t0) * 1e3);
      }
      rel.add(st.mean_reliability);
    }

    if (fed.packets_originated() == 0) return failed("no packets originated");
    if (kill && (fed.handoff_count() < 1 || fed.lost() ||
                 fed.packets_delivered() <= delivered_pre_kill))
      return failed("coordinator kill was not absorbed by a handoff");
    if (!kill && fed.handoff_count() != 0)
      return failed("spurious handoff in the steady scenario");

    exp::TrialResult r;
    r.metrics["rounds"] = static_cast<double>(kEpochs) * fed.cell_count();
    r.metrics["delivery_ratio"] =
        static_cast<double>(fed.packets_delivered()) /
        static_cast<double>(fed.packets_originated());
    r.metrics["mean_reliability"] = rel.mean();
    r.metrics["latency_epochs"] = fed.mean_delivery_latency_epochs();
    r.metrics["handoffs"] = fed.handoff_count();
    r.metrics["dropped"] = static_cast<double>(fed.packets_dropped());
    r.stats["mean_reliability"] = rel;
    for (int c = 0; c < fed.cell_count(); ++c)
      r.registry.merge(fed.cell_metrics(c));
    if (clock != nullptr) clock->ledger().absorb_flood_counters(r.registry);
    return r;
  }

  FloodReplay replay() const override {
    return {&*topo_, &field_, 4, sim::hours(10)};
  }

 private:
  static constexpr int kNodes = 1024;
  static constexpr int kCells = 8;
  static constexpr int kEpochs = 60;  // 4 min of 4 s rounds
  static constexpr int kKillEpoch = kEpochs / 3;

  /// The cell farthest from the root in the stripe path: the kill victim.
  static int deepest_cell(const core::Federation& fed) {
    int best = 0, best_depth = -1;
    for (int c = 0; c < fed.cell_count(); ++c) {
      int d = 0;
      for (int p = fed.parent(c); p != -1; p = fed.parent(p)) ++d;
      if (d > best_depth) {
        best_depth = d;
        best = c;
      }
    }
    return best;
  }

  std::optional<phy::Topology> topo_;
  phy::InterferenceField field_;
};

// ---- policy-eval-campaign: offline evaluation over a trace dataset ---------

class PolicyEvalCampaign final : public Workload {
 public:
  int variants() const override { return 4; }
  int runs_per_batch() const override { return 64; }
  bool campaign() const override { return true; }

  double build(const rl::Mlp& policy) override {
    util::Stopwatch sw;
    topo_ = phy::make_office18_topology();
    const double topo_s = sw.seconds();
    // The training-trace recipe of core::train_default_policy, at a fixed
    // seed: the dataset is an input of the workload, like its topology.
    core::TraceCollectionConfig tc;
    tc.steps = kTraceSteps;
    tc.seed = 0x7E57ULL;
    tc.start_time = sim::hours(9) + sim::minutes(30);
    field_ = phy::InterferenceField{};
    core::add_training_schedule(
        field_, *topo_,
        tc.start_time + static_cast<sim::TimeUs>(tc.steps) * tc.round_period,
        0x5C4EDULL);
    dataset_ = std::make_unique<core::TraceDataset>(
        core::collect_traces(*topo_, field_, tc));
    q_ = std::make_unique<rl::QuantizedMlp>(policy);
    return topo_s;
  }

  exp::TrialSpec spec(std::uint64_t seed, int variant,
                      std::uint64_t run) const override {
    static const char* const kNames[] = {"c=0.1", "c=0.2", "c=0.3", "c=0.5"};
    exp::TrialSpec s = base_spec(kNames[variant], seed, variant, run);
    s.params["reward_c"] = kRewardC[variant];
    return s;
  }

  exp::TrialResult trial(const exp::TrialSpec& spec,
                         SpanClock*) const override {
    core::TraceEnv::Config env;
    env.reward_c = spec.params.at("reward_c");
    long steps = 0;
    const rl::QuantizedMlp& q = *q_;
    const std::function<int(const std::vector<double>&)> policy =
        [&q, &steps](const std::vector<double>& x) {
          ++steps;
          return q.greedy_action(x);
        };
    core::PolicyEvaluation ev =
        core::evaluate_policy(*dataset_, policy, env, kEpisodes, spec.seed);
    if (steps != static_cast<long>(kEpisodes) * env.episode_len ||
        !in_unit(ev.avg_reliability) || !in_unit(ev.loss_rate) ||
        ev.avg_n_tx < 1.0 || ev.avg_n_tx > core::kNMax)
      return failed("policy evaluation out of range");
    exp::TrialResult r;
    r.metrics["rounds"] = static_cast<double>(steps);
    r.metrics["avg_reward"] = ev.avg_reward;
    r.metrics["avg_reliability"] = ev.avg_reliability;
    r.metrics["avg_radio_on_ms"] = ev.avg_radio_on_ms;
    r.metrics["avg_n_tx"] = ev.avg_n_tx;
    r.metrics["loss_rate"] = ev.loss_rate;
    return r;
  }

  FloodReplay replay() const override {
    return {&*topo_, &field_, 600, sim::hours(10)};
  }

 private:
  static constexpr std::size_t kTraceSteps = 300;
  static constexpr int kEpisodes = 100;
  static constexpr double kRewardC[] = {0.1, 0.2, 0.3, 0.5};

  std::optional<phy::Topology> topo_;
  phy::InterferenceField field_;
  std::unique_ptr<core::TraceDataset> dataset_;
  std::unique_ptr<rl::QuantizedMlp> q_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "office18-dynamic") return std::make_unique<Office18Dynamic>();
  if (name == "dcube48-wifi2") return std::make_unique<Dcube48Wifi2>();
  if (name == "city1024-fed") return std::make_unique<City1024Fed>();
  if (name == "policy-eval-campaign")
    return std::make_unique<PolicyEvalCampaign>();
  return nullptr;
}

}  // namespace dimmer::perf
