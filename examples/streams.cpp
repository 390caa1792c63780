// LWB stream scheduling demo: heterogeneous periodic streams served by the
// centralized scheduler over a Dimmer network, with a mid-run membership
// change and a crash fault.
//
//   ./examples/streams [--minutes 3] [--seed 4]
#include <iostream>
#include <limits>
#include <memory>

#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "lwb/scheduler.hpp"
#include "phy/energy.hpp"
#include "phy/topology.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace dimmer;

int example_main(const util::Cli& cli) {
  const long minutes =
      cli.get_int("minutes", 3, 1, std::numeric_limits<int>::max());
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 4));

  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::add_office_ambient(field, topo);

  core::ProtocolConfig cfg;
  cfg.round_period = sim::seconds(1);
  core::DimmerNetwork net(topo, field, cfg,
                          std::make_unique<core::StaticController>(3), 0,
                          seed);

  // Streams: fast telemetry from 3 nodes, slow sensing from 5 nodes.
  lwb::Scheduler scheduler;
  for (phy::NodeId s : {3, 7, 12})
    scheduler.add_stream(s, sim::seconds(1), net.now());
  std::vector<std::size_t> slow_ids;
  for (phy::NodeId s : {2, 6, 9, 14, 16})
    slow_ids.push_back(scheduler.add_stream(s, sim::seconds(5), net.now()));

  const long rounds = minutes * 60;
  long slots_served = 0, delivered = 0;
  util::RunningStats duty;
  for (long r = 0; r < rounds; ++r) {
    if (r == rounds / 3) {
      std::cout << "[t=" << r << "s] node 16's stream leaves the bus\n";
      scheduler.remove_stream(slow_ids.back());
    }
    if (r == rounds / 2) {
      std::cout << "[t=" << r << "s] node 9 crashes (stays scheduled)\n";
      net.set_node_failed(9, true);
    }
    auto slots = scheduler.schedule_round(net.now(), /*max_slots=*/6);
    // Empty rounds still run their control slot (sync maintenance).
    core::RoundStats rs = net.run_round(slots);
    if (slots.empty()) continue;
    slots_served += static_cast<long>(slots.size());
    for (bool got : rs.sink_received) delivered += got;
    duty.add(static_cast<double>(rs.total_radio_on_us) /
             (topo.size() * static_cast<double>(cfg.round_period)));
  }

  phy::EnergyModel energy;
  std::cout << "\nserved " << slots_served << " stream slots, " << delivered
            << " delivered to the sink ("
            << util::Table::pct(static_cast<double>(delivered) /
                                static_cast<double>(slots_served))
            << ")\n"
            << "mean radio duty "
            << util::Table::pct(duty.mean(), 2) << " ≈ "
            << util::Table::num(energy.average_power_mw(duty.mean()), 2)
            << " mW average draw per node (CC2420 model)\n"
            << "(node 9's slots go silent after its crash — the scheduler "
               "keeps serving the rest)\n";
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main(argc, argv, example_main);
}
