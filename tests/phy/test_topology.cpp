#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "phy/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::phy {
namespace {

TEST(PathLossModel, GrowsWithDistance) {
  PathLossModel m;
  EXPECT_LT(m.path_loss_db(1.0), m.path_loss_db(10.0));
  EXPECT_LT(m.path_loss_db(10.0), m.path_loss_db(50.0));
}

TEST(PathLossModel, ClampsTinyDistances) {
  PathLossModel m;
  EXPECT_DOUBLE_EQ(m.path_loss_db(0.0), m.path_loss_db(m.min_distance_m));
}

TEST(RadioConstants, AirtimeMatches802154Bitrate) {
  RadioConstants r;
  // 36 bytes on air at 250 kbps = 36*8/250000 s = 1152 us.
  EXPECT_NEAR(r.airtime_us(30), 1152.0, 1e-9);
}

TEST(Topology, GainIsSymmetric) {
  Topology t = make_office18_topology();
  for (NodeId a = 0; a < t.size(); ++a)
    for (NodeId b = 0; b < t.size(); ++b)
      EXPECT_DOUBLE_EQ(t.gain_db(a, b), t.gain_db(b, a));
}

TEST(Topology, SameSeedSameGains) {
  Topology a = make_office18_topology(99);
  Topology b = make_office18_topology(99);
  for (NodeId i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a.gain_db(0, i), b.gain_db(0, i));
}

TEST(Topology, DifferentSeedDifferentShadowing) {
  Topology a = make_office18_topology(1);
  Topology b = make_office18_topology(2);
  int same = 0;
  for (NodeId i = 1; i < a.size(); ++i)
    if (a.gain_db(0, i) == b.gain_db(0, i)) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Topology, RxPowerAddsTxPower) {
  Topology t = make_office18_topology();
  EXPECT_DOUBLE_EQ(t.rx_power_dbm(0, 1, 0.0) + 5.0, t.rx_power_dbm(0, 1, 5.0));
}

TEST(Topology, GainFromPointIsStablePerTag) {
  Topology t = make_office18_topology();
  Vec2 p{10.0, 5.0};
  EXPECT_DOUBLE_EQ(t.gain_from_point_db(p, 3, 7), t.gain_from_point_db(p, 3, 7));
  EXPECT_NE(t.gain_from_point_db(p, 3, 7), t.gain_from_point_db(p, 3, 8));
}

TEST(Topology, RejectsBadNodeIds) {
  Topology t = make_office18_topology();
#ifndef NDEBUG
  // Hot-path accessors validate bounds only in debug builds (DESIGN.md §10);
  // release builds rely on the flood-entry validation instead.
  EXPECT_THROW(t.gain_db(-1, 0), util::RequireError);
  EXPECT_THROW(t.gain_db(0, 18), util::RequireError);
#endif
  EXPECT_THROW(t.position(99), util::RequireError);
}

/// A 6-node line built from the given constants.
Topology line_with(const PathLossModel& model, const RadioConstants& radio) {
  std::vector<Vec2> pos;
  for (int i = 0; i < 6; ++i) pos.push_back({10.0 * i, 0.0});
  return Topology(pos, model, radio, 1);
}

TEST(Topology, RejectsMalformedRadioConstants) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const PathLossModel model;
  EXPECT_NO_THROW((void)line_with(model, RadioConstants{}));
  auto rejects = [&](auto mutate) {
    RadioConstants r;
    mutate(r);
    EXPECT_THROW((void)line_with(model, r), util::RequireError);
  };
  rejects([&](RadioConstants& r) { r.noise_floor_dbm = kNan; });
  rejects([&](RadioConstants& r) { r.noise_floor_dbm = -kInf; });
  rejects([&](RadioConstants& r) { r.default_tx_power_dbm = kInf; });
  rejects([&](RadioConstants& r) { r.sensitivity_dbm = kNan; });
  rejects([&](RadioConstants& r) { r.bitrate_bps = 0.0; });
  rejects([&](RadioConstants& r) { r.bitrate_bps = -250000.0; });
  rejects([&](RadioConstants& r) { r.bitrate_bps = kInf; });
  rejects([&](RadioConstants& r) { r.bitrate_bps = kNan; });
  rejects([&](RadioConstants& r) { r.phy_overhead_bytes = -30; });
  // No overhead at all is a valid (if unphysical) radio.
  RadioConstants bare;
  bare.phy_overhead_bytes = 0;
  EXPECT_NO_THROW((void)line_with(model, bare));
}

TEST(Topology, RejectsNonFinitePositions) {
  // Regression: an infinite coordinate stored a -inf gain, which an
  // unculled SparseLinkModel turned into a 0.0 mW link (stored powers must
  // be positive); a NaN one dropped every link of its node without a word.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (Vec2 bad : {Vec2{kInf, 0.0}, Vec2{-kInf, 0.0}, Vec2{0.0, kInf},
                   Vec2{kNan, 0.0}, Vec2{0.0, kNan}}) {
    const std::vector<Vec2> pos = {{0.0, 0.0}, {10.0, 0.0}, bad};
    EXPECT_THROW(Topology(pos, PathLossModel{}, RadioConstants{}, 1),
                 util::RequireError)
        << "x=" << bad.x << " y=" << bad.y;
  }
}

TEST(Topology, RejectsMalformedPathLossModel) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const RadioConstants radio;
  auto rejects = [&](auto mutate) {
    PathLossModel m;
    mutate(m);
    EXPECT_THROW((void)line_with(m, radio), util::RequireError);
  };
  rejects([&](PathLossModel& m) { m.pl_d0_db = kNan; });
  rejects([&](PathLossModel& m) { m.exponent = kInf; });
  rejects([&](PathLossModel& m) { m.d0_m = 0.0; });
  rejects([&](PathLossModel& m) { m.d0_m = -1.0; });
  rejects([&](PathLossModel& m) { m.d0_m = kInf; });
  rejects([&](PathLossModel& m) { m.min_distance_m = 0.0; });
  rejects([&](PathLossModel& m) { m.min_distance_m = kNan; });
  rejects([&](PathLossModel& m) { m.shadowing_sigma_db = -1.0; });
  rejects([&](PathLossModel& m) { m.shadowing_sigma_db = kNan; });
  rejects([&](PathLossModel& m) { m.fading_sigma_db = -2.0; });
  rejects([&](PathLossModel& m) { m.fading_sigma_db = kNan; });
  rejects([&](PathLossModel& m) { m.fading_sigma_db = kInf; });
  // Zero sigmas switch shadowing and fading off; that stays allowed.
  PathLossModel still;
  still.shadowing_sigma_db = 0.0;
  still.fading_sigma_db = 0.0;
  EXPECT_NO_THROW((void)line_with(still, radio));
}

TEST(Topology, SinrThresholdMonotoneInTarget) {
  // A stricter PER target needs a higher SINR.
  EXPECT_GT(Topology::sinr_threshold_db(36, 0.01),
            Topology::sinr_threshold_db(36, 0.5));
}

TEST(LineTopology, HopCountsIncreaseAlongChain) {
  Topology t = make_line_topology(6, 12.0);
  auto hops = t.hop_counts(0);
  EXPECT_EQ(hops[0], 0);
  for (std::size_t i = 1; i < hops.size(); ++i) {
    EXPECT_GE(hops[i], 1);
    EXPECT_GE(hops[i] + 1, hops[i - 1]);  // non-teleporting chain
  }
  EXPECT_GT(hops.back(), 1);  // 60 m chain is multi-hop at 0 dBm
}

TEST(LineTopology, FarNodesUnreachableWithHugeSpacing) {
  Topology t = make_line_topology(3, 500.0);
  auto hops = t.hop_counts(0);
  EXPECT_EQ(hops[1], -1);
  EXPECT_EQ(hops[2], -1);
}

TEST(GridTopology, SizeAndConnectivity) {
  Topology t = make_grid_topology(3, 4, 8.0);
  EXPECT_EQ(t.size(), 12);
  auto hops = t.hop_counts(0);
  EXPECT_TRUE(std::all_of(hops.begin(), hops.end(),
                          [](int h) { return h >= 0; }));
}

TEST(RandomTopology, IsConnectedFromNode0) {
  Topology t = make_random_topology(20, 60.0, 40.0, 5);
  EXPECT_EQ(t.size(), 20);
  auto hops = t.hop_counts(0);
  EXPECT_TRUE(std::all_of(hops.begin(), hops.end(),
                          [](int h) { return h >= 0; }));
}

TEST(RandomTopology, ImpossibleBoxThrows) {
  EXPECT_THROW(make_random_topology(3, 5000.0, 5000.0, 1),
               util::RequireError);
}

TEST(Office18, MatchesPaperDeployment) {
  Topology t = make_office18_topology();
  EXPECT_EQ(t.size(), 18);
  auto hops = t.hop_counts(0);
  int diameter = *std::max_element(hops.begin(), hops.end());
  // "our 18-device, 3-hop deployment". hop_counts() uses a strict
  // 10%-PER link criterion; floods reach farther through coherent
  // combining, so the conservative graph diameter is 2-4.
  EXPECT_GE(diameter, 2);
  EXPECT_LE(diameter, 4);
  EXPECT_TRUE(std::all_of(hops.begin(), hops.end(),
                          [](int h) { return h >= 0; }));
}

TEST(DCube48, FortyEightConnectedNodes) {
  Topology t = make_dcube48_topology();
  EXPECT_EQ(t.size(), 48);
  auto hops = t.hop_counts(0);
  EXPECT_TRUE(std::all_of(hops.begin(), hops.end(),
                          [](int h) { return h >= 0; }));
  EXPECT_GE(*std::max_element(hops.begin(), hops.end()), 2);
}

// Property: in every factory topology, closer node pairs have (on average)
// higher gain than the farthest pairs, despite shadowing.
class TopologyDistanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(TopologyDistanceProperty, GainDecaysWithDistanceOnAverage) {
  Topology t = GetParam() == 0   ? make_office18_topology()
               : GetParam() == 1 ? make_dcube48_topology()
                                 : make_grid_topology(4, 5, 10.0);
  double near_acc = 0, far_acc = 0;
  int near_n = 0, far_n = 0;
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b = a + 1; b < t.size(); ++b) {
      double d = distance(t.position(a), t.position(b));
      if (d < 12.0) {
        near_acc += t.gain_db(a, b);
        ++near_n;
      } else if (d > 35.0) {
        far_acc += t.gain_db(a, b);
        ++far_n;
      }
    }
  }
  ASSERT_GT(near_n, 0);
  ASSERT_GT(far_n, 0);
  EXPECT_GT(near_acc / near_n, far_acc / far_n + 10.0);
}

INSTANTIATE_TEST_SUITE_P(Factories, TopologyDistanceProperty,
                         ::testing::Values(0, 1, 2));

// ---- CSR adjacency + campus factory ------------------------------------

// The historical dense BFS, kept verbatim as the reference: scan all N
// candidate neighbors per dequeued node against the clean-SNR link
// predicate. hop_counts_from over good_neighbors must reproduce it exactly.
std::vector<int> dense_reference_hops(const Topology& t, NodeId root,
                                      int frame_bytes, double tx_power_dbm) {
  const double need_dbm =
      t.radio().noise_floor_dbm +
      Topology::sinr_threshold_db(frame_bytes, 0.1);
  std::vector<int> hops(static_cast<std::size_t>(t.size()), -1);
  std::vector<NodeId> queue;
  hops[static_cast<std::size_t>(root)] = 0;
  queue.push_back(root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    NodeId u = queue[head];
    for (NodeId v = 0; v < t.size(); ++v) {
      if (v == u || hops[static_cast<std::size_t>(v)] >= 0) continue;
      if (t.rx_power_dbm(u, v, tx_power_dbm) < need_dbm) continue;
      hops[static_cast<std::size_t>(v)] = hops[static_cast<std::size_t>(u)] + 1;
      queue.push_back(v);
    }
  }
  return hops;
}

TEST(NeighborCsrTest, HopCountsMatchDenseReferenceBfs) {
  const Topology topos[] = {make_line_topology(8, 12.0),
                            make_grid_topology(4, 4, 10.0),
                            make_office18_topology(), make_dcube48_topology(),
                            make_campus_topology(90)};
  for (const Topology& t : topos) {
    SCOPED_TRACE("n=" + std::to_string(t.size()));
    for (double power : {0.0, -7.0}) {
      NeighborCsr adj = t.good_neighbors(36, power);
      for (NodeId root : {0, t.size() / 2, t.size() - 1}) {
        EXPECT_EQ(t.hop_counts_from(root, adj),
                  dense_reference_hops(t, root, 36, power))
            << "root " << root << " power " << power;
        // The one-shot convenience must agree with the prebuilt-CSR path.
        EXPECT_EQ(t.hop_counts(root, 36, power),
                  t.hop_counts_from(root, adj));
      }
    }
  }
}

TEST(NeighborCsrTest, RowsAreAscendingSymmetricAndSelfFree) {
  Topology t = make_dcube48_topology();
  NeighborCsr adj = t.good_neighbors();
  ASSERT_EQ(adj.n, t.size());
  ASSERT_EQ(adj.row_ptr.size(), static_cast<std::size_t>(t.size()) + 1);
  EXPECT_EQ(adj.row_ptr.back(), adj.col.size());
  auto has_edge = [&](NodeId u, NodeId v) {
    for (std::size_t k = adj.row_ptr[static_cast<std::size_t>(u)];
         k < adj.row_ptr[static_cast<std::size_t>(u) + 1]; ++k)
      if (adj.col[k] == v) return true;
    return false;
  };
  for (NodeId u = 0; u < adj.n; ++u) {
    NodeId prev = -1;
    for (std::size_t k = adj.row_ptr[static_cast<std::size_t>(u)];
         k < adj.row_ptr[static_cast<std::size_t>(u) + 1]; ++k) {
      NodeId v = adj.col[k];
      EXPECT_NE(v, u);       // no self loops
      EXPECT_GT(v, prev);    // strictly ascending within the row
      EXPECT_TRUE(has_edge(v, u)) << u << "<->" << v;  // reciprocal links
      prev = v;
    }
    EXPECT_EQ(adj.degree(u),
              adj.row_ptr[static_cast<std::size_t>(u) + 1] -
                  adj.row_ptr[static_cast<std::size_t>(u)]);
  }
}

TEST(NeighborCsrTest, HopCountsFromRejectsMismatchedAdjacency) {
  Topology a = make_line_topology(8, 12.0);
  Topology b = make_line_topology(9, 12.0);
  NeighborCsr adj = b.good_neighbors();
  EXPECT_THROW((void)a.hop_counts_from(0, adj), util::RequireError);
  EXPECT_THROW((void)a.hop_counts_from(-1, a.good_neighbors()),
               util::RequireError);
}

TEST(CampusTopology, IsDeterministicPerSeed) {
  Topology a = make_campus_topology(200, 5);
  Topology b = make_campus_topology(200, 5);
  ASSERT_EQ(a.size(), b.size());
  for (NodeId i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.position(i).x, b.position(i).x);
    EXPECT_DOUBLE_EQ(a.position(i).y, b.position(i).y);
    EXPECT_DOUBLE_EQ(a.gain_db(0, i), b.gain_db(0, i));
  }
  Topology c = make_campus_topology(200, 6);
  int same = 0;
  for (NodeId i = 0; i < a.size(); ++i)
    if (a.position(i).x == c.position(i).x) ++same;
  EXPECT_LT(same, a.size() / 10);  // different seed, different jitter
}

TEST(CampusTopology, ExactSizeIncludingNonSquareCounts) {
  for (int n : {2, 48, 200, 257, 1024}) {
    EXPECT_EQ(make_campus_topology(n).size(), n) << "n=" << n;
  }
  EXPECT_THROW((void)make_campus_topology(1), util::RequireError);
  EXPECT_THROW((void)make_campus_topology(0), util::RequireError);
}

TEST(CampusTopology, IsConnectedByConstruction) {
  // The factory's whole point: no placement-retry loop, yet every node is
  // reachable from the coordinator corner. Checked across sizes and seeds.
  for (int n : {48, 200, 513}) {
    for (std::uint64_t seed : {1ULL, 9ULL}) {
      Topology t = make_campus_topology(n, seed);
      auto hops = t.hop_counts(0);
      EXPECT_TRUE(std::all_of(hops.begin(), hops.end(),
                              [](int h) { return h >= 0; }))
          << "n=" << n << " seed=" << seed;
    }
  }
  // Diameter grows with scale (sqrt(n) grid, multi-hop floods at 200+).
  Topology big = make_campus_topology(200);
  auto hops = big.hop_counts(0);
  EXPECT_GE(*std::max_element(hops.begin(), hops.end()), 3);
}

TEST(CulledTopology, SurvivorsBitIdenticalToDense) {
  const int n = 200;
  const std::uint64_t seed = 7;
  Topology dense = make_campus_topology(n, seed);
  const double floor_db = gain_cull_floor_db(dense.radio(), 10.0);
  Topology culled = make_campus_topology_culled(n, seed, floor_db);
  EXPECT_EQ(culled.gain_floor_db(), floor_db);
  std::size_t survivors = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      const double dg = dense.gain_db(a, b);
      const double cg = culled.gain_db(a, b);
      if (a == b || dg >= floor_db) {
        // Bitwise: same distance expression, same hashed shadowing draw.
        EXPECT_EQ(dg, cg) << "a=" << a << " b=" << b;
        ++survivors;
      } else {
        EXPECT_EQ(cg, -std::numeric_limits<double>::infinity())
            << "a=" << a << " b=" << b;
      }
    }
  }
  EXPECT_EQ(culled.gain_nnz(), survivors);
}

TEST(CulledTopology, StorageShrinksAtScale) {
  const int n = 512;
  Topology dense = make_campus_topology(n, 3);
  const double floor_db = gain_cull_floor_db(dense.radio(), 10.0);
  Topology culled = make_campus_topology_culled(n, 3, floor_db);
  const std::size_t dense_matrix_bytes =
      static_cast<std::size_t>(n) * n * sizeof(double);
  EXPECT_EQ(dense.gain_nnz(), static_cast<std::size_t>(n) * n);
  EXPECT_LT(culled.gain_nnz(), dense.gain_nnz() / 2);
  EXPECT_LT(culled.gain_storage_bytes(), dense_matrix_bytes / 2);
}

TEST(CulledTopology, MinusInfFloorKeepsEveryLink) {
  Topology dense = make_campus_topology(48, 5);
  Topology all = make_campus_topology_culled(
      48, 5, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(all.gain_nnz(), static_cast<std::size_t>(48) * 48);
  for (NodeId a = 0; a < 48; ++a)
    for (NodeId b = 0; b < 48; ++b)
      EXPECT_EQ(dense.gain_db(a, b), all.gain_db(a, b));
}

TEST(CulledTopology, RejectsNanFloor) {
  EXPECT_THROW((void)make_campus_topology_culled(
                   48, 1, std::numeric_limits<double>::quiet_NaN()),
               util::RequireError);
}

TEST(GainCullFloor, ConsistentWithSparseLinkModelCulling) {
  RadioConstants radio;
  // rx_power = tx_power + gain; a link culled at construction must satisfy
  // rx_power < noise_floor - margin for all tx_power <= max considered.
  const double floor_db = gain_cull_floor_db(radio, 12.0, 0.0);
  EXPECT_DOUBLE_EQ(floor_db, radio.noise_floor_dbm - 12.0);
  EXPECT_LT(gain_cull_floor_db(radio, 12.0, 5.0), floor_db);
}

TEST(GainCullFloor, RejectsNonPositiveCullMargin) {
  // A NaN margin would give a NaN floor; a zero or negative one would cull
  // links above the noise floor. +infinity keeps every link.
  const RadioConstants radio;
  EXPECT_THROW((void)gain_cull_floor_db(radio, 0.0), util::RequireError);
  EXPECT_THROW((void)gain_cull_floor_db(radio, -5.0), util::RequireError);
  EXPECT_THROW((void)gain_cull_floor_db(
                   radio, std::numeric_limits<double>::quiet_NaN()),
               util::RequireError);
  EXPECT_EQ(gain_cull_floor_db(radio, std::numeric_limits<double>::infinity()),
            -std::numeric_limits<double>::infinity());
}

TEST(RestrictedTopology, FullMembershipIsBitIdentical) {
  Topology t = make_campus_topology(64, 11);
  std::vector<NodeId> all(64);
  for (int i = 0; i < 64; ++i) all[static_cast<std::size_t>(i)] = i;
  Topology r = t.restricted(all);
  ASSERT_EQ(r.size(), t.size());
  Vec2 jam{20.0, 20.0};
  for (NodeId a = 0; a < 64; ++a) {
    EXPECT_EQ(r.parent_id(a), a);
    EXPECT_EQ(r.gain_from_point_db(jam, a, 42), t.gain_from_point_db(jam, a, 42));
    for (NodeId b = 0; b < 64; ++b) EXPECT_EQ(r.gain_db(a, b), t.gain_db(a, b));
  }
}

TEST(RestrictedTopology, SubsetPreservesPairwiseGainsAndParentIds) {
  Topology t = make_campus_topology(100, 13);
  std::vector<NodeId> members{3, 17, 18, 40, 77, 99};
  Topology r = t.restricted(members);
  ASSERT_EQ(r.size(), 6);
  Vec2 jam{0.0, 0.0};
  for (int i = 0; i < 6; ++i) {
    const NodeId g = members[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.parent_id(i), g);
    EXPECT_EQ(r.position(i).x, t.position(g).x);
    EXPECT_EQ(r.position(i).y, t.position(g).y);
    // External shadowing keys on the parent id: the restricted node hears
    // exactly what its global counterpart hears.
    EXPECT_EQ(r.gain_from_point_db(jam, i, 9), t.gain_from_point_db(jam, g, 9));
    for (int j = 0; j < 6; ++j)
      EXPECT_EQ(r.gain_db(i, j),
                t.gain_db(g, members[static_cast<std::size_t>(j)]));
  }
}

TEST(RestrictedTopology, NestedRestrictionComposesParentIds) {
  Topology t = make_campus_topology(100, 13);
  std::vector<NodeId> outer{3, 17, 18, 40, 77, 99};
  Topology r1 = t.restricted(outer);
  // Local ids 1,3,5 of r1 = parent ids 17, 40, 99.
  Topology r2 = r1.restricted({1, 3, 5});
  ASSERT_EQ(r2.size(), 3);
  EXPECT_EQ(r2.parent_id(0), 17);
  EXPECT_EQ(r2.parent_id(1), 40);
  EXPECT_EQ(r2.parent_id(2), 99);
  EXPECT_EQ(r2.gain_db(0, 2), t.gain_db(17, 99));
  Vec2 jam{50.0, 50.0};
  EXPECT_EQ(r2.gain_from_point_db(jam, 1, 7), t.gain_from_point_db(jam, 40, 7));
}

TEST(RestrictedTopology, CulledParentInheritsCullState) {
  Topology dense = make_campus_topology(200, 7);
  const double floor_db = gain_cull_floor_db(dense.radio(), 10.0);
  Topology culled = make_campus_topology_culled(200, 7, floor_db);
  std::vector<NodeId> members;
  for (NodeId i = 0; i < 200; i += 7) members.push_back(i);
  Topology r = culled.restricted(members);
  EXPECT_EQ(r.gain_floor_db(), floor_db);
  const int m = r.size();
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j)
      EXPECT_EQ(r.gain_db(i, j),
                culled.gain_db(members[static_cast<std::size_t>(i)],
                               members[static_cast<std::size_t>(j)]));
}

// ---- Frozen gain reference ---------------------------------------------

// Verbatim copy of the pairwise gain expression the dense gain matrix held,
// kept here independent of Topology's storage: distance on (lo, hi) plus
// the hashed lognormal shadowing draw keyed on (seed, lo, hi). Every stored
// entry must reproduce it bit for bit.
double frozen_hashed_normal(std::uint64_t h) {
  double u1 = util::pure_uniform(util::splitmix64(h));
  double u2 = util::pure_uniform(util::splitmix64(h ^ 0xabcdef1234567890ULL));
  if (u1 < 1e-12) u1 = 1e-12;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double frozen_gain_db(const Topology& t, NodeId a, NodeId b) {
  if (a == b) return 0.0;
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  double d = distance(t.position(lo), t.position(hi));
  double shadow = t.path_loss().shadowing_sigma_db *
                  frozen_hashed_normal(util::hash_u64(
                      t.shadow_seed(), static_cast<std::uint64_t>(lo),
                      static_cast<std::uint64_t>(hi)));
  return -t.path_loss().path_loss_db(d) + shadow;
}

/// Checks every pair of `t` against the frozen reference evaluated on
/// `parent` ids `ids[a]`, `ids[b]`: present and bitwise equal when the
/// reference clears `floor_db` (or on the diagonal), -infinity otherwise.
/// Also walks the rows: ascending, and exactly gain_nnz() entries.
void expect_matches_frozen(const Topology& t, const Topology& parent,
                           const std::vector<NodeId>& ids, double floor_db) {
  std::size_t stored = 0;
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b = 0; b < t.size(); ++b) {
      const double want = frozen_gain_db(
          parent, ids[static_cast<std::size_t>(a)],
          ids[static_cast<std::size_t>(b)]);
      if (a == b || want >= floor_db) {
        EXPECT_EQ(t.gain_db(a, b), want) << "a=" << a << " b=" << b;
        ++stored;
      } else {
        EXPECT_EQ(t.gain_db(a, b), -std::numeric_limits<double>::infinity())
            << "a=" << a << " b=" << b;
      }
    }
    const GainRow row = t.gain_row(a);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (k > 0) {
        EXPECT_LT(row.col[k - 1], row.col[k]);
      }
      EXPECT_EQ(row.gain_db[k], t.gain_db(a, row.col[k]));
    }
  }
  EXPECT_EQ(t.gain_nnz(), stored);
}

std::vector<NodeId> identity_ids(int n) {
  std::vector<NodeId> ids(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
  return ids;
}

TEST(FrozenGainReference, EveryStoredEntryMatchesBitwise) {
  const Topology topos[] = {make_office18_topology(), make_dcube48_topology(),
                            make_campus_topology(200)};
  for (const Topology& t : topos) {
    SCOPED_TRACE("n=" + std::to_string(t.size()));
    expect_matches_frozen(t, t, identity_ids(t.size()),
                          -std::numeric_limits<double>::infinity());
    EXPECT_EQ(t.gain_nnz(), static_cast<std::size_t>(t.size()) * t.size());
  }
}

TEST(FrozenGainReference, CulledCampusDropsExactlySubFloorPairs) {
  const double floor_db = gain_cull_floor_db(RadioConstants{}, 10.0);
  Topology culled = make_campus_topology_culled(200, 7, floor_db);
  expect_matches_frozen(culled, culled, identity_ids(200), floor_db);
  EXPECT_LT(culled.gain_nnz(), static_cast<std::size_t>(200) * 200);
}

TEST(FrozenGainReference, RestrictedCulledCampusMatches) {
  const double floor_db = gain_cull_floor_db(RadioConstants{}, 10.0);
  Topology culled = make_campus_topology_culled(200, 7, floor_db);
  std::vector<NodeId> members;
  for (NodeId i = 3; i < 200; i += 5) members.push_back(i);
  expect_matches_frozen(culled.restricted(members), culled, members,
                        floor_db);
}

TEST(RestrictedTopology, RejectsBadMemberLists) {
  Topology t = make_campus_topology(48, 1);
  EXPECT_THROW((void)t.restricted({5}), util::RequireError);           // < 2
  EXPECT_THROW((void)t.restricted({5, 5}), util::RequireError);       // dup
  EXPECT_THROW((void)t.restricted({9, 5}), util::RequireError);       // order
  EXPECT_THROW((void)t.restricted({0, 48}), util::RequireError);      // range
  EXPECT_THROW((void)t.restricted({-1, 0}), util::RequireError);      // range
}

}  // namespace
}  // namespace dimmer::phy
