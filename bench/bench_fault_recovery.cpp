// Fault-recovery bench: how fast does the network come back when the
// coordinator dies?
//
// The paper evaluates Dimmer under channel interference (Figs. 5-7) but its
// coordinator — where the DQN and the network-wide feedback live — is a
// single point of failure the evaluation never exercises. This harness
// measures the failover subsystem (src/fault, core failover): for each
// scenario a scripted FaultPlan kills the coordinator (and, in the "storm"
// variants, adds a severity-0.35 reception blackout plus leaf churn around
// the takeover window), and we report
//   - rounds-to-resync: takeover until every alive node holds a schedule,
//   - dip: the worst per-round reliability seen during recovery,
//   - orphaned rounds and the energy they burn (silent control slots),
//   - steady-state reliability / radio-on before vs after the handover,
// comparing warm takeover (controller state inherited) against cold
// (controller reset + Exp3 episode aborted network-wide).
//
// The PID controller keeps the bench self-contained (no policy training);
// warm-vs-cold differences show up in its integral state the same way they
// would in the DQN's history window.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/pid.hpp"
#include "bench/common.hpp"
#include "core/protocol.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "fault/plan.hpp"
#include "phy/topology.hpp"
#include "util/table.hpp"

using namespace dimmer;

namespace {

constexpr int kCrashRound = 30;

fault::FaultPlan plan_for(const std::string& kind) {
  fault::FaultPlan plan;
  if (kind == "baseline") return plan;  // fault-free reference
  plan.crash_coordinator(kCrashRound);
  if (kind == "storm") {
    // The takeover happens *inside* a lossy window with node churn: the
    // hard case — backups miss control floods for reasons other than the
    // coordinator being dead, and rejoiners need schedules mid-recovery.
    plan.blackout(kCrashRound, kCrashRound + 10, 0.35);
    plan.crash(kCrashRound + 15, 9);
    plan.reboot(kCrashRound + 30, 9);
  }
  return plan;
}

exp::TrialResult run_trial(const exp::TrialSpec& spec, util::Pcg32& rng,
                           int rounds) {
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;

  core::ProtocolConfig cfg;
  cfg.fault_plan = spec.fault_plan;
  if (spec.tags.at("faults") != "baseline") {
    cfg.failover.backups = {1, 2};
    cfg.failover.takeover_silent_rounds = 3;
    cfg.failover.mode = spec.tags.at("mode") == "cold"
                            ? core::FailoverConfig::Mode::kCold
                            : core::FailoverConfig::Mode::kWarm;
  }
  core::DimmerNetwork net(topo, field, std::move(cfg),
                          std::make_unique<baselines::PidController>(), 0,
                          rng.next_u64());

  exp::TrialResult r;
  net.set_instrumentation(obs::Instrumentation{nullptr, &r.registry});
  auto sources = bench::all_to_all_sources(topo);

  auto& rel_series = r.series["reliability"];
  util::RunningStats pre, post;
  double dip = 1.0;
  for (int round = 0; round < rounds; ++round) {
    core::RoundStats rs = net.run_round(sources);
    rel_series.push_back(rs.reliability);
    r.stats["reliability"].add(rs.reliability);
    r.stats["radio_on_ms_per_node"].add(
        static_cast<double>(rs.total_radio_on_us) / 1000.0 / topo.size());
    if (round < kCrashRound) pre.add(rs.reliability);
    if (round >= kCrashRound) {
      if (rs.reliability < dip) dip = rs.reliability;
      // "post" = steady state under the new coordinator, clear of both the
      // recovery transient and the storm window.
      if (round >= kCrashRound + 35) post.add(rs.reliability);
    }
  }

  r.metrics["pre_reliability"] = pre.mean();
  r.metrics["post_reliability"] =
      spec.tags.at("faults") == "baseline" ? pre.mean() : post.mean();
  r.metrics["dip"] = dip;
  r.metrics["failovers"] = net.failover_count();
  r.metrics["rounds_to_resync"] = net.last_rounds_to_resync();
  const auto& counters = r.registry.counters();
  auto counter_or_zero = [&](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  r.metrics["orphaned_rounds"] = counter_or_zero("fault.orphaned_rounds");
  r.metrics["orphaned_radio_on_ms"] =
      counter_or_zero("fault.orphaned_radio_on_us") / 1000.0;
  return r;
}

int bench_main(const bench::Env& env) {
  const int rounds = env.scaled(120, 80);
  const int seeds = env.scaled(5, 2);

  struct Case {
    const char* faults;  ///< "baseline" | "kill" | "storm"
    const char* mode;    ///< "warm" | "cold" (ignored for baseline)
  };
  const Case cases[] = {{"baseline", "warm"},
                        {"kill", "warm"},
                        {"kill", "cold"},
                        {"storm", "warm"},
                        {"storm", "cold"}};

  std::vector<exp::TrialSpec> specs;
  for (const Case& c : cases) {
    for (int s = 0; s < seeds; ++s) {
      exp::TrialSpec spec;
      spec.scenario = c.faults == std::string("baseline")
                          ? "baseline"
                          : std::string(c.faults) + "/" + c.mode;
      spec.seed = static_cast<std::uint64_t>(s);
      spec.tags["faults"] = c.faults;
      spec.tags["mode"] = c.mode;
      spec.fault_plan = plan_for(c.faults);
      specs.push_back(std::move(spec));
    }
  }

  auto trial = [&](const exp::TrialSpec& spec, util::Pcg32& rng) {
    return run_trial(spec, rng, rounds);
  };

  std::vector<exp::Trial> trials =
      bench::run_sweep(env, std::move(specs), trial);
  bench::require_all_ok(trials);

  util::Table out({"scenario", "pre rel.", "post rel.", "dip", "resync [rounds]",
                   "failovers", "orphaned [rounds]", "orphan cost [ms]"});
  std::vector<std::string> order = {"baseline", "kill/warm", "kill/cold",
                                    "storm/warm", "storm/cold"};
  for (const std::string& sc : order) {
    out.add_row(
        {sc,
         util::Table::pct(exp::metric_stats(trials, sc, "pre_reliability").mean(), 2),
         util::Table::pct(exp::metric_stats(trials, sc, "post_reliability").mean(), 2),
         util::Table::pct(exp::metric_stats(trials, sc, "dip").mean(), 2),
         util::Table::num(exp::metric_stats(trials, sc, "rounds_to_resync").mean(), 1),
         util::Table::num(exp::metric_stats(trials, sc, "failovers").mean(), 1),
         util::Table::num(exp::metric_stats(trials, sc, "orphaned_rounds").mean(), 1),
         util::Table::num(exp::metric_stats(trials, sc, "orphaned_radio_on_ms").mean(), 1)});
  }

  std::cout << "Coordinator failover & recovery (" << seeds
            << " seeds x " << rounds << " rounds, office18, PID controller)\n\n";
  out.print(std::cout);
  std::cout << "\nwarm inherits controller state across the takeover; cold"
               " resets it and aborts the\nExp3 episode network-wide."
               " 'dip' is the worst single-round reliability after the"
               " crash;\n'resync' counts rounds from takeover until every"
               " alive node holds a schedule again.\n";
  const bool wrote =
      exp::write_json("fault_recovery", trials, {.dir = env.out}, &std::cerr);
  return wrote ? 0 : 1;
}

}  // namespace

int main() { return bench::run_main(bench_main); }
