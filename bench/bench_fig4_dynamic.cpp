// Fig. 4c / 4d — adaptivity under dynamic interference.
//
// The 18-node office deployment during work hours. Timeline: 7 min calm,
// 5 min of 30% 802.15.4 jamming, 5 min calm, 5 min of 5% jamming, calm.
// Fig. 4c runs Dimmer's DQN; Fig. 4d runs the PID baseline; static LWB
// (N_TX = 3) is included for reference. For each controller the harness
// prints the N_TX time series plus the paper's headline aggregates
// (both ~99.3% reliable; Dimmer 12.3 ms vs PID 14.4 ms radio-on).
//
// The three controller runs execute as parallel trials via
// bench::run_sweep (exp::Runner with DIMMER_JOBS workers, or the sharded
// campaign engine under DIMMER_CAMPAIGN_DIR); each trial owns its topology,
// interference field and network, so the table below is identical for every
// job or shard count.
#include <cmath>
#include <iostream>
#include <memory>

#include "bench/common.hpp"
#include "core/controller.hpp"
#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "obs/trace.hpp"
#include "phy/topology.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace dimmer;

namespace {
const char* phase_at(double t_min) {
  if (t_min < 7) return "calm";
  if (t_min < 12) return "30% jam";
  if (t_min < 17) return "calm";
  if (t_min < 22) return "5% jam";
  return "calm";
}

int bench_main(const bench::Env& env) {
  const sim::TimeUs origin = sim::hours(10);
  const int rounds = 27 * 60 / 4;  // 27 minutes at 4 s rounds

  // DIMMER_TRACE=<path>: all trials share one JSONL sink; a per-trial
  // TaggedSink labels each line with its scenario (the file sink is
  // thread-safe, so lines interleave across workers but never tear). It is
  // opened before the policy loads, so an unopenable path fails at once.
  std::unique_ptr<obs::JsonlFileSink> trace;
  if (!env.trace.empty())
    trace = std::make_unique<obs::JsonlFileSink>(env.trace);

  rl::Mlp policy = bench::shared_policy(env);
  core::PretrainedOptions popt;

  struct Run {
    const char* figure;
    const char* name;
  };
  const Run runs[] = {{"Fig. 4c", "dimmer"},
                      {"Fig. 4d", "pid"},
                      {"(ref)", "lwb"}};

  std::vector<exp::TrialSpec> specs;
  for (const Run& run : runs) {
    exp::TrialSpec s;
    s.scenario = run.name;
    s.seed = 3;
    s.tags["figure"] = run.figure;
    specs.push_back(std::move(s));
  }

  auto trial = [&](const exp::TrialSpec& spec, util::Pcg32&) {
    phy::Topology topo = phy::make_office18_topology();
    phy::InterferenceField field;
    core::add_office_ambient(field, topo);
    core::add_dynamic_jamming(field, topo, phy::kControlChannel, origin);

    core::ProtocolConfig cfg;
    cfg.start_time = origin;
    core::DimmerNetwork net(
        topo, field, cfg,
        bench::make_controller(spec.scenario, policy, popt.features), 0,
        spec.seed);
    auto sources = bench::all_to_all_sources(topo);

    exp::TrialResult r;
    std::unique_ptr<obs::TaggedSink> tagged;
    if (trace)
      tagged = std::make_unique<obs::TaggedSink>(trace.get(), "scenario",
                                                 spec.scenario);
    net.set_instrumentation({tagged.get(), &r.registry});
    util::RunningStats rel, radio, ntx;
    for (int rd = 0; rd < rounds; ++rd) {
      core::RoundStats rs = net.run_round(sources);
      rel.add(rs.reliability);
      radio.add(rs.radio_on_ms);
      ntx.add(rs.n_tx);
      if (rd % 30 == 0) {
        r.series["t_min"].push_back(static_cast<double>(rd) * 4.0 / 60.0);
        r.series["n_tx"].push_back(rs.n_tx);
        r.series["reliability"].push_back(rs.reliability);
        r.series["radio_on_ms"].push_back(rs.radio_on_ms);
      }
    }
    r.metrics["reliability"] = rel.mean();
    r.metrics["radio_on_ms"] = radio.mean();
    r.metrics["n_tx"] = ntx.mean();
    r.stats["reliability"] = rel;
    r.stats["radio_on_ms"] = radio;
    r.stats["n_tx"] = ntx;
    return r;
  };

  std::vector<exp::Trial> trials =
      bench::run_sweep(env, std::move(specs), trial);
  bench::require_all_ok(trials);

  util::Table summary(
      {"figure", "controller", "reliability", "radio-on [ms]", "mean N_TX"});
  for (const exp::Trial& t : trials) {
    std::cout << t.spec.tags.at("figure") << " — " << t.spec.scenario
              << " under dynamic interference\n";
    util::Table series({"t [min]", "phase", "N_TX", "reliability",
                        "radio-on [ms]"});
    const exp::TrialResult& r = t.result;
    for (std::size_t i = 0; i < r.series.at("t_min").size(); ++i) {
      double t_min = r.series.at("t_min")[i];
      series.add_row(
          {util::Table::num(t_min, 0), phase_at(t_min),
           std::to_string(
               static_cast<int>(std::llround(r.series.at("n_tx")[i]))),
           util::Table::pct(r.series.at("reliability")[i]),
           util::Table::num(r.series.at("radio_on_ms")[i])});
    }
    series.print(std::cout);
    std::cout << '\n';
    summary.add_row({t.spec.tags.at("figure"), t.spec.scenario,
                     util::Table::pct(r.metrics.at("reliability")),
                     util::Table::num(r.metrics.at("radio_on_ms")),
                     util::Table::num(r.metrics.at("n_tx"))});
  }

  std::cout << "aggregates over the 27-minute experiment\n";
  summary.print(std::cout);
  std::cout << "(paper: Dimmer and PID both 99.3% reliable; Dimmer 12.3 ms"
               " vs PID 14.4 ms radio-on —\n the PID overshoots to N_max"
               " under light interference, Dimmer finds the setpoint)\n";
  const bool wrote =
      exp::write_json("fig4_dynamic", trials, {.dir = env.out}, &std::cerr);
  return wrote ? 0 : 1;
}

}  // namespace

int main() { return bench::run_main(bench_main); }
