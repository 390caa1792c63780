// The paper's Fig. 6 scenario: forwarder selection with multi-armed bandits,
// alone (DQN deactivated), on channel 26 during the night, for 5 hours.
// Nodes take 10-round turns learning whether to act as active forwarders or
// passive receivers; prints active-forwarder count, reliability, and
// radio-on time over time.
//
//   ./examples/forwarder_selection [--hours 5] [--seed 6]
#include <iostream>
#include <limits>
#include <memory>

#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "phy/topology.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace dimmer;

int example_main(const util::Cli& cli) {
  // 900 rounds of 4 s per hour, counted in an int.
  const long hours =
      cli.get_int("hours", 5, 1, std::numeric_limits<int>::max() / 900);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 6));

  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::add_office_ambient(field, topo);  // night profile: nearly silent

  core::ProtocolConfig cfg;
  cfg.start_time = sim::hours(22);  // "on channel 26 during the night"
  cfg.forwarder_selection = true;
  cfg.mab_calm_rounds = 0;  // §V-D: FS alone, learning every round
  core::DimmerNetwork net(topo, field, cfg,
                          std::make_unique<core::StaticController>(3), 0,
                          seed);

  std::vector<phy::NodeId> sources;
  for (int i = 1; i < topo.size(); ++i) sources.push_back(i);
  sources.push_back(0);

  const int rounds = static_cast<int>(hours * 3600 / 4);
  util::Table table(
      {"t [h]", "active forwarders", "reliability", "radio [ms]"});
  util::RunningStats rel_all, radio_all;
  util::RunningStats rel_win, radio_win, fwd_win;
  int fwd_min = topo.size();
  for (int r = 0; r < rounds; ++r) {
    core::RoundStats rs = net.run_round(sources);
    rel_all.add(rs.reliability);
    radio_all.add(rs.radio_on_ms);
    rel_win.add(rs.reliability);
    radio_win.add(rs.radio_on_ms);
    fwd_win.add(rs.active_forwarders);
    fwd_min = std::min(fwd_min, rs.active_forwarders);
    const int window = 15 * 60 / 4;  // 15-minute reporting bins
    if ((r + 1) % window == 0) {
      table.add_row({util::Table::num((r + 1) * 4.0 / 3600.0, 2),
                     util::Table::num(fwd_win.mean(), 1),
                     util::Table::pct(rel_win.mean(), 2),
                     util::Table::num(radio_win.mean())});
      rel_win = util::RunningStats{};
      radio_win = util::RunningStats{};
      fwd_win = util::RunningStats{};
    }
  }
  table.print(std::cout);
  std::cout << "\noverall: reliability " << util::Table::pct(rel_all.mean(), 2)
            << ", radio-on " << util::Table::num(radio_all.mean())
            << " ms, fewest simultaneous forwarders " << fwd_min << "\n"
            << "(paper: 99.9% reliability; 9.55 ms with forwarder selection"
               " vs 11.04 ms without)\n";
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main(argc, argv, example_main);
}
