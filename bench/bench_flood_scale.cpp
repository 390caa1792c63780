// Flood scaling benchmark: culled vs unculled CSR link rows on 1000+-node
// campus topologies.
//
// For each size the harness times cycling-initiator floods through (a)
// GlossyFlood over SparseLinkModel::no_culling on make_campus_topology(n)
// (every link kept: full N-entry rows, every listener swept every step) and
// (b) GlossyFlood over SparseLinkModel with the default 20 dB culling margin
// (CSR scatter + zero-power listener skip). The culled leg runs on a
// construction-culled Topology (make_campus_topology_culled with the
// matching gain floor), so neither the topology nor the link model ever
// materializes N^2 entries. It reports ns/step, floods/sec and delivery
// ratio for both, plus the storage story at both layers: link-model nnz/CSR
// bytes and topology gain nnz/bytes against a dense 8*N^2 matrix. The
// unculled leg is skipped above kUnculledMaxNodes — holding (and sweeping)
// every link at 4096 nodes is exactly the cost culling exists to avoid.
//
// Timing fields here are measurements, not simulation outputs: this file is
// exempt from the byte-identity rule that covers the figure benches.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "exp/json.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "phy/sparse_link_model.hpp"
#include "phy/topology.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/simd/simd.hpp"
#include "util/wallclock.hpp"

using namespace dimmer;

namespace {

/// Largest size the unculled comparison leg still runs at (N^2 = 4M links,
/// 48 MiB of CSR; beyond this it is measured as absent, not slow).
constexpr int kUnculledMaxNodes = 2048;

struct Timing {
  double seconds = 0.0;
  long long steps = 0;
  int floods = 0;
  double delivery_sum = 0.0;

  double floods_per_sec() const {
    return seconds > 0.0 ? floods / seconds : 0.0;
  }
  double ns_per_step() const {
    return steps > 0 ? seconds * 1e9 / static_cast<double>(steps) : 0.0;
  }
  double mean_delivery() const {
    return floods > 0 ? delivery_sum / floods : 0.0;
  }
};

flood::FloodParams params_for(int flood_idx) {
  flood::FloodParams p;
  // Campus floods cross tens of hops: give the wave a 60 ms slot (~51
  // steps) instead of the paper's 20 ms office slot.
  p.slot_len_us = sim::ms(60);
  p.slot_start_us = static_cast<sim::TimeUs>(flood_idx) * sim::ms(80);
  return p;
}

Timing time_engine(const flood::GlossyFlood& engine, int n, int floods,
                   std::uint64_t seed) {
  std::vector<flood::NodeFloodConfig> cfgs(static_cast<std::size_t>(n),
                                           flood::NodeFloodConfig{2, true});
  flood::FloodWorkspace ws;
  flood::FloodResult r;
  util::Pcg32 rng(seed);
  engine.run_into(0, cfgs, params_for(0), rng, ws, r);  // warm-up: builds
                                                        // the link cache
  Timing t;
  const double t0 = util::wallclock_seconds();
  for (int k = 0; k < floods; ++k) {
    engine.run_into(k % n, cfgs, params_for(k), rng, ws, r);
    t.steps += r.steps_simulated;
    t.delivery_sum += r.delivery_ratio();
  }
  t.seconds = util::wallclock_seconds() - t0;
  t.floods = floods;
  return t;
}

}  // namespace

int main() {
  // DIMMER_BENCH_SCALE shrinks the node counts themselves (CI smoke at 0.1
  // runs 128/256/512); the full campaign covers 1k/2k/4k.
  const std::vector<int> sizes = {bench::scaled(1024, 128),
                                  bench::scaled(2048, 256),
                                  bench::scaled(4096, 512)};
  const int floods = bench::scaled(20, 5);
  const std::uint64_t seed = 2026;

  std::printf("simd backend: %s\n\n", util::simd::backend_name());
  std::printf("%-6s %10s %12s %12s %12s %10s %10s %8s %9s %9s\n", "nodes",
              "nnz", "sparse B", "topo B", "dense B", "sp ns/st", "un ns/st",
              "speedup", "sp deliv", "un deliv");

  std::string rows;
  bool ok = true;
  for (int n : sizes) {
    // Construction-culled topology with the floor matching the link model's
    // default 20 dB margin at 0 dBm TX: surviving gains are bit-identical to
    // make_campus_topology(n), and sub-floor links are never stored.
    const double gain_floor =
        phy::gain_cull_floor_db(phy::RadioConstants{}, 20.0);
    phy::Topology topo =
        phy::make_campus_topology_culled(n, 1, gain_floor);
    phy::InterferenceField field;  // clean band: pure engine scaling

    phy::SparseLinkModel sparse_links(topo);  // default 20 dB margin
    flood::GlossyFlood sparse_engine(sparse_links, field);
    Timing sp = time_engine(sparse_engine, n, floods, seed);

    const auto un = static_cast<std::size_t>(n);
    const std::size_t dense_bytes = sizeof(double) * un * un;
    const bool run_unculled = n <= kUnculledMaxNodes;
    Timing uc;
    if (run_unculled) {
      phy::Topology full_topo = phy::make_campus_topology(n);
      phy::SparseLinkModel unculled(
          full_topo, phy::SparseLinkModel::Config::no_culling());
      flood::GlossyFlood unculled_engine(unculled, field);
      uc = time_engine(unculled_engine, n, floods, seed);
    }

    const double speedup =
        run_unculled && sp.ns_per_step() > 0.0
            ? uc.ns_per_step() / sp.ns_per_step()
            : 0.0;
    std::printf("%-6d %10zu %12zu %12zu %12zu %10.1f %10s %7s %9.3f %9s\n", n,
                sparse_links.nnz(), sparse_links.storage_bytes(),
                topo.gain_storage_bytes(), dense_bytes, sp.ns_per_step(),
                run_unculled ? std::to_string(static_cast<long long>(
                                uc.ns_per_step()))
                                .c_str()
                          : "-",
                run_unculled
                    ? (std::to_string(speedup).substr(0, 5) + "x").c_str()
                    : "-",
                sp.mean_delivery(),
                run_unculled
                    ? std::to_string(uc.mean_delivery()).substr(0, 5).c_str()
                    : "-");

    // The point of culling: storage scales with survivors, not N^2. At
    // smoke sizes (a 128-node campus fits inside one culling radius) the CSR
    // bookkeeping can exceed the tiny dense matrix, so the bar only binds at
    // the campaign's real scales.
    if (n >= 1024 && sparse_links.storage_bytes() >= dense_bytes) {
      std::cerr << "SPARSE STORAGE NOT SMALLER THAN DENSE at n=" << n << "\n";
      ok = false;
    }
    if (n >= 1024 && topo.gain_storage_bytes() >= dense_bytes) {
      std::cerr << "TOPOLOGY GAIN STORAGE NOT SMALLER THAN DENSE at n=" << n
                << "\n";
      ok = false;
    }
    // Culling must not collapse the flood itself.
    if (sp.mean_delivery() < 0.5) {
      std::cerr << "SPARSE DELIVERY COLLAPSED at n=" << n << " ("
                << sp.mean_delivery() << ")\n";
      ok = false;
    }

    if (!rows.empty()) rows += ",";
    rows += "{\"nodes\": " + std::to_string(n) +
            ", \"floods\": " + std::to_string(floods) +
            ", \"nnz\": " + std::to_string(sparse_links.nnz()) +
            ", \"sparse_bytes\": " +
            std::to_string(sparse_links.storage_bytes()) +
            ", \"topo_gain_nnz\": " + std::to_string(topo.gain_nnz()) +
            ", \"topo_gain_bytes\": " +
            std::to_string(topo.gain_storage_bytes()) +
            ", \"dense_bytes\": " + std::to_string(dense_bytes) +
            ", \"sparse\": {\"floods_per_sec\": " +
            util::json_number(sp.floods_per_sec()) +
            ", \"ns_per_step\": " + util::json_number(sp.ns_per_step()) +
            ", \"delivery_ratio\": " + util::json_number(sp.mean_delivery()) +
            "}, \"unculled\": " +
            (run_unculled
                 ? "{\"floods_per_sec\": " +
                       util::json_number(uc.floods_per_sec()) +
                       ", \"ns_per_step\": " +
                       util::json_number(uc.ns_per_step()) +
                       ", \"delivery_ratio\": " +
                       util::json_number(uc.mean_delivery()) + "}"
                 : std::string("null")) +
            ", \"speedup_ns_per_step\": " + util::json_number(speedup) + "}";
  }

  const std::string path = exp::output_path("flood_scale");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"bench\": \"flood_scale\", \"schema_version\": 1, "
         "\"simd_backend\": "
      << util::json_quote(util::simd::backend_name()) << ", \"sizes\": ["
      << rows << "]}\n";
  out.close();
  std::cout << "\nwrote " << path << "\n";

  return ok ? 0 : 1;
}
