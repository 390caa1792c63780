// Fig. 6 — forwarder selection with multi-armed bandits.
//
// The 18-node deployment on channel 26 at night for 5 hours, DQN
// deactivated; each device sequentially gets 10 consecutive rounds to learn
// a role (active forwarder / passive receiver). Prints the number of active
// forwarders, reliability, and radio-on time over time, and the comparison
// against the same run without forwarder selection.
//
// Paper: 99.9% reliability over 5 h; 9.55 ms average radio-on with
// forwarder selection vs 11.04 ms without; breaking configurations (first
// around 30 min) are punished and reliability maintained.
#include <iostream>
#include <memory>

#include "bench/common.hpp"
#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "obs/trace.hpp"
#include "phy/topology.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace dimmer;

namespace {

int bench_main(const bench::Env& env) {
  phy::Topology topo = phy::make_office18_topology();
  auto sources = bench::all_to_all_sources(topo);
  const int rounds = env.scaled(5 * 3600 / 4);  // 5 hours at 4 s rounds

  phy::InterferenceField field;
  core::add_office_ambient(field, topo);  // night: nearly silent

  // --- With forwarder selection (the Fig. 6 run).
  core::ProtocolConfig cfg;
  cfg.start_time = sim::hours(22);
  cfg.forwarder_selection = true;
  cfg.mab_calm_rounds = 0;  // SV-D: learning every round, DQN off
  core::DimmerNetwork net(topo, field, cfg,
                          std::make_unique<core::StaticController>(3), 0, 6);

  // DIMMER_TRACE=<path>: per-round / per-flood / exp3 events as JSONL.
  std::unique_ptr<obs::JsonlFileSink> trace;
  if (!env.trace.empty())
    trace = std::make_unique<obs::JsonlFileSink>(env.trace);
  std::unique_ptr<obs::TaggedSink> tagged;
  if (trace) {
    tagged = std::make_unique<obs::TaggedSink>(trace.get(), "scenario", "mab");
    net.set_instrumentation({tagged.get(), nullptr});
  }

  std::cout << "Fig. 6: forwarder selection over "
            << rounds * 4 / 3600.0 << " hours (night, channel 26)\n\n";
  util::Table series({"t [h]", "active forwarders", "reliability",
                      "radio-on [ms]"});
  util::RunningStats rel_all, radio_all;
  util::RunningStats rel_win, radio_win, fwd_win;
  const int bin = std::max(1, rounds / 20);
  for (int r = 0; r < rounds; ++r) {
    core::RoundStats rs = net.run_round(sources);
    rel_all.add(rs.reliability);
    radio_all.add(rs.radio_on_ms);
    rel_win.add(rs.reliability);
    radio_win.add(rs.radio_on_ms);
    fwd_win.add(rs.active_forwarders);
    if ((r + 1) % bin == 0) {
      series.add_row({util::Table::num((r + 1) * 4.0 / 3600.0, 2),
                      util::Table::num(fwd_win.mean(), 1),
                      util::Table::pct(rel_win.mean(), 2),
                      util::Table::num(radio_win.mean())});
      rel_win = util::RunningStats{};
      radio_win = util::RunningStats{};
      fwd_win = util::RunningStats{};
    }
  }
  series.print(std::cout);

  // --- Reference: the same night without forwarder selection.
  core::ProtocolConfig ref_cfg;
  ref_cfg.start_time = sim::hours(22);
  core::DimmerNetwork ref(topo, field, ref_cfg,
                          std::make_unique<core::StaticController>(3), 0, 6);
  std::unique_ptr<obs::TaggedSink> ref_tagged;
  if (trace) {
    ref_tagged = std::make_unique<obs::TaggedSink>(trace.get(), "scenario",
                                                   "all-forward");
    ref.set_instrumentation({ref_tagged.get(), nullptr});
  }
  util::RunningStats ref_rel, ref_radio;
  for (int r = 0; r < rounds; ++r) {
    core::RoundStats rs = ref.run_round(sources);
    ref_rel.add(rs.reliability);
    ref_radio.add(rs.radio_on_ms);
  }

  std::cout << '\n';
  util::Table summary({"configuration", "reliability", "radio-on [ms]"});
  summary.add_row({"forwarder selection", util::Table::pct(rel_all.mean(), 2),
                   util::Table::num(radio_all.mean())});
  summary.add_row({"all nodes forward", util::Table::pct(ref_rel.mean(), 2),
                   util::Table::num(ref_radio.mean())});
  summary.print(std::cout);
  std::cout << "(paper: 99.9% reliability; 9.55 ms with forwarder selection"
               " vs 11.04 ms without)\n";
  return 0;
}

}  // namespace

int main() { return bench::run_main(bench_main); }
