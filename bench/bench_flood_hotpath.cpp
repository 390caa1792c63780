// Flood hot-path benchmark: frozen pre-refactor loop vs the shipped engine.
//
// Runs identical flood workloads through tests/flood/reference_glossy.cpp
// (the pre-refactor algorithm, kept as the differential oracle) and through
// GlossyFlood::run_into with a persistent workspace, verifies the results
// stay bit-identical while timing both, and writes
// BENCH_flood_hotpath.json with floods/sec, ns/step and the speedup per
// scenario. The refactor's acceptance bar is a >= 1.5x speedup on the
// office18 workloads. office18 and dcube48 run on full link rows (the
// contiguous sweep); the construction-culled campus runs on partial rows
// (the scatter) with listeners no link reaches, so its digest also pins the
// engine's draws for unreachable listeners to the reference's. dcube48
// under D-Cube WiFi level 2 (8 APs) pins the engine's interference table
// and per-step activity pass to the reference's per-listener sampling.
//
// Timing fields here are measurements, not simulation outputs: this file is
// exempt from the byte-identity rule that covers the figure benches.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/scenarios.hpp"
#include "exp/json.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "tests/flood/reference_glossy.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/wallclock.hpp"

using namespace dimmer;

namespace {

struct Scenario {
  std::string name;
  phy::Topology topo;
  phy::InterferenceField field;
  int n_tx = 3;
};

struct Timing {
  double seconds = 0.0;
  long long steps = 0;
  int floods = 0;

  double floods_per_sec() const {
    return seconds > 0.0 ? floods / seconds : 0.0;
  }
  double ns_per_step() const {
    return steps > 0 ? seconds * 1e9 / static_cast<double>(steps) : 0.0;
  }
};

double now_sec() { return util::wallclock_seconds(); }

flood::FloodParams params_for(int flood_idx) {
  flood::FloodParams p;
  p.slot_start_us = static_cast<sim::TimeUs>(flood_idx) * sim::ms(25);
  return p;
}

// Folds a FloodResult into a stream digest for the bit-identity smoke check
// (full per-field comparison lives in tests/flood/test_differential.cpp);
// the same fold as bench/perf's replay check.
std::uint64_t fold(std::uint64_t d, const flood::FloodResult& r) {
  d = util::hash_u64(d, static_cast<std::uint64_t>(r.steps_simulated));
  for (const flood::NodeFloodResult& n : r.nodes) {
    d = util::hash_u64(d, n.received ? 1u : 0u,
                       static_cast<std::uint64_t>(n.first_rx_step + 1));
    d = util::hash_u64(d, static_cast<std::uint64_t>(n.transmissions),
                       static_cast<std::uint64_t>(n.radio_on_us));
  }
  return d;
}

Timing time_reference(const Scenario& sc, int floods, std::uint64_t seed,
                      std::uint64_t* digest_out) {
  const int n = sc.topo.size();
  std::vector<flood::NodeFloodConfig> cfgs(
      static_cast<std::size_t>(n), flood::NodeFloodConfig{sc.n_tx, true});
  util::Pcg32 rng(seed);
  Timing t;
  std::uint64_t dg = 0;
  const double t0 = now_sec();
  for (int k = 0; k < floods; ++k) {
    flood::FloodResult r = flood::reference::run(
        sc.topo, sc.field, k % n, cfgs, params_for(k), rng);
    t.steps += r.steps_simulated;
    dg = fold(dg, r);
  }
  t.seconds = now_sec() - t0;
  t.floods = floods;
  *digest_out = dg;
  return t;
}

Timing time_optimized(const Scenario& sc, int floods, std::uint64_t seed,
                      std::uint64_t* digest_out) {
  const int n = sc.topo.size();
  std::vector<flood::NodeFloodConfig> cfgs(
      static_cast<std::size_t>(n), flood::NodeFloodConfig{sc.n_tx, true});
  flood::GlossyFlood engine(sc.topo, sc.field);
  flood::FloodWorkspace ws;
  flood::FloodResult r;
  util::Pcg32 rng(seed);
  Timing t;
  std::uint64_t dg = 0;
  const double t0 = now_sec();
  for (int k = 0; k < floods; ++k) {
    engine.run_into(k % n, cfgs, params_for(k), rng, ws, r);
    t.steps += r.steps_simulated;
    dg = fold(dg, r);
  }
  t.seconds = now_sec() - t0;
  t.floods = floods;
  *digest_out = dg;
  return t;
}

}  // namespace

int main() {
  std::vector<Scenario> scenarios;
  scenarios.push_back(Scenario{"office18/clean", phy::make_office18_topology(),
                               phy::InterferenceField{}, 3});
  scenarios.push_back(Scenario{"office18/jam30", phy::make_office18_topology(),
                               phy::InterferenceField{}, 3});
  core::add_static_jamming(scenarios.back().field, scenarios.back().topo,
                           0.30);
  scenarios.push_back(Scenario{"dcube48/clean", phy::make_dcube48_topology(),
                               phy::InterferenceField{}, 2});
  scenarios.push_back(Scenario{"dcube48/wifi2", phy::make_dcube48_topology(),
                               phy::InterferenceField{}, 2});
  phy::add_dcube_wifi_level(scenarios.back().field, scenarios.back().topo, 2);
  // Links weaker than -80 dB (~21 m) do not exist on this 64-node campus.
  scenarios.push_back(Scenario{"campus64-culled",
                               phy::make_campus_topology_culled(64, 1, -80.0),
                               phy::InterferenceField{}, 3});

  const int floods = bench::scaled(2000, 50);
  const int warmup = std::max(5, floods / 20);
  const std::uint64_t seed = 1234;

  std::string rows;
  bool identical = true;
  std::printf("%-18s %12s %12s %10s %10s %8s\n", "scenario", "ref fl/s",
              "opt fl/s", "ref ns/st", "opt ns/st", "speedup");
  for (const Scenario& sc : scenarios) {
    std::uint64_t dg_warm = 0;
    time_optimized(sc, warmup, seed, &dg_warm);  // warm caches, page in code
    time_reference(sc, warmup, seed, &dg_warm);

    std::uint64_t dg_ref = 0, dg_opt = 0;
    Timing ref = time_reference(sc, floods, seed, &dg_ref);
    Timing opt = time_optimized(sc, floods, seed, &dg_opt);
    if (dg_ref != dg_opt) {
      std::cerr << "BIT-IDENTITY VIOLATION in " << sc.name
                << ": reference digest " << dg_ref << " != optimized "
                << dg_opt << "\n";
      identical = false;
    }
    const double speedup =
        opt.seconds > 0.0 ? ref.seconds / opt.seconds : 0.0;
    std::printf("%-18s %12.0f %12.0f %10.1f %10.1f %7.2fx\n", sc.name.c_str(),
                ref.floods_per_sec(), opt.floods_per_sec(), ref.ns_per_step(),
                opt.ns_per_step(), speedup);

    if (!rows.empty()) rows += ",";
    rows += "{\"scenario\": " + util::json_quote(sc.name) +
            ", \"floods\": " + std::to_string(floods) +
            ", \"steps\": " + std::to_string(ref.steps) +
            ", \"identical\": " + (dg_ref == dg_opt ? "true" : "false") +
            ", \"reference\": {\"floods_per_sec\": " +
            util::json_number(ref.floods_per_sec()) +
            ", \"ns_per_step\": " + util::json_number(ref.ns_per_step()) +
            "}, \"optimized\": {\"floods_per_sec\": " +
            util::json_number(opt.floods_per_sec()) +
            ", \"ns_per_step\": " + util::json_number(opt.ns_per_step()) +
            "}, \"speedup\": " + util::json_number(speedup) + "}";
  }

  const std::string path = exp::output_path("flood_hotpath");
  try {
    util::write_file_atomic(
        path, "{\"bench\": \"flood_hotpath\", \"schema_version\": 1, "
              "\"scenarios\": [" + rows + "]}\n");
  } catch (const std::exception& e) {
    std::cerr << "cannot write " << path << ": " << e.what() << "\n";
    return 1;
  }
  std::cout << "\nwrote " << path << "\n";

  if (!identical) return 1;
  return 0;
}
