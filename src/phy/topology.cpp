#include "phy/topology.hpp"

#include <algorithm>
#include <cmath>

#include "phy/per.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::phy {

namespace {
/// Deterministic standard-normal draw from a hash (Box-Muller on two hashes).
double hashed_normal(std::uint64_t h) {
  double u1 = util::pure_uniform(util::splitmix64(h));
  double u2 = util::pure_uniform(util::splitmix64(h ^ 0xabcdef1234567890ULL));
  if (u1 < 1e-12) u1 = 1e-12;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// Malformed constants fail quietly downstream: a NaN noise floor reads as
/// -300 dBm (every listener decodes), a zero bitrate reaches llround(inf),
/// a negative overhead makes empty frames, and a NaN or negative fading
/// sigma turns fading off. Every Topology checks them once, here.
void validate(const PathLossModel& m, const RadioConstants& r) {
  DIMMER_REQUIRE(std::isfinite(r.noise_floor_dbm) &&
                     std::isfinite(r.default_tx_power_dbm) &&
                     std::isfinite(r.sensitivity_dbm),
                 "radio noise floor and powers must be finite");
  DIMMER_REQUIRE(std::isfinite(r.bitrate_bps) && r.bitrate_bps > 0.0,
                 "bitrate_bps must be finite and positive");
  DIMMER_REQUIRE(r.phy_overhead_bytes >= 0,
                 "phy_overhead_bytes must be non-negative");
  DIMMER_REQUIRE(std::isfinite(m.pl_d0_db) && std::isfinite(m.exponent) &&
                     std::isfinite(m.d0_m) &&
                     std::isfinite(m.shadowing_sigma_db) &&
                     std::isfinite(m.fading_sigma_db) &&
                     std::isfinite(m.min_distance_m),
                 "path-loss fields must be finite");
  DIMMER_REQUIRE(m.d0_m > 0.0 && m.min_distance_m > 0.0,
                 "d0_m and min_distance_m must be positive");
  DIMMER_REQUIRE(m.shadowing_sigma_db >= 0.0 && m.fading_sigma_db >= 0.0,
                 "shadowing and fading sigmas must be non-negative");
}
}  // namespace

Topology::Topology(std::vector<Vec2> positions, PathLossModel model,
                   RadioConstants radio, std::uint64_t shadow_seed,
                   double gain_floor_db)
    : positions_(std::move(positions)),
      model_(model),
      radio_(radio),
      shadow_seed_(shadow_seed),
      gain_floor_db_(gain_floor_db) {
  DIMMER_REQUIRE(positions_.size() >= 2, "topology needs at least two nodes");
  DIMMER_REQUIRE(!std::isnan(gain_floor_db), "gain_floor_db must not be NaN");
  validate(model_, radio_);
  // An infinite coordinate stores a -inf gain (a 0.0 mW link), and a NaN
  // one silently drops every link of its node.
  for (const Vec2& p : positions_)
    DIMMER_REQUIRE(std::isfinite(p.x) && std::isfinite(p.y),
                   "node positions must be finite");
  const auto un = positions_.size();
  row_ptr_.assign(un + 1, 0);
  // Every link survives a -infinity floor; otherwise reserve a typical mesh
  // survivor count. Rows append without a dense intermediate, so peak memory
  // is O(nnz).
  const std::size_t expected =
      gain_floor_db == -std::numeric_limits<double>::infinity() ? un * un
                                                                 : un * 16;
  col_.reserve(expected);
  gain_.reserve(expected);
  // Links are symmetric, so row a's entries below the diagonal are the
  // column-a entries of the rows already built, met in ascending row order.
  // next[b] is row b's first entry not yet mirrored into a later row.
  std::vector<std::size_t> next(un, 0);
  for (std::size_t a = 0; a < un; ++a) {
    const auto node = static_cast<NodeId>(a);
    for (std::size_t b = 0; b < a; ++b) {
      const std::size_t k = next[b];
      if (k == row_ptr_[b + 1] || col_[k] != node) continue;
      const double g = gain_[k];
      col_.push_back(static_cast<NodeId>(b));
      gain_.push_back(g);
      ++next[b];
    }
    // The diagonal (0.0 self-gain) always survives.
    col_.push_back(node);
    gain_.push_back(0.0);
    next[a] = col_.size();
    for (std::size_t b = a + 1; b < un; ++b) {
      // NaN floors are rejected above, so `>=` is a total predicate.
      const double g = pair_gain(node, static_cast<NodeId>(b));
      if (g >= gain_floor_db) {
        col_.push_back(static_cast<NodeId>(b));
        gain_.push_back(g);
      }
    }
    row_ptr_[a + 1] = col_.size();
  }
}

double Topology::pair_gain(NodeId lo, NodeId hi) const {
  const double d = distance(positions_[static_cast<std::size_t>(lo)],
                            positions_[static_cast<std::size_t>(hi)]);
  const double shadow =
      model_.shadowing_sigma_db *
      hashed_normal(util::hash_u64(shadow_seed_, static_cast<std::uint64_t>(lo),
                                   static_cast<std::uint64_t>(hi)));
  return -model_.path_loss_db(d) + shadow;
}

Vec2 Topology::position(NodeId n) const {
  DIMMER_REQUIRE(n >= 0 && n < size(), "node id out of range");
  return positions_[static_cast<std::size_t>(n)];
}

std::size_t Topology::gain_storage_bytes() const {
  return row_ptr_.size() * sizeof(std::size_t) + col_.size() * sizeof(NodeId) +
         gain_.size() * sizeof(double);
}

GainRow Topology::gain_row(NodeId tx) const {
  DIMMER_DEBUG_ASSERT(tx >= 0 && tx < size(), "node id out of range");
  const std::size_t begin = row_ptr_[static_cast<std::size_t>(tx)];
  return GainRow{col_.data() + begin, gain_.data() + begin,
                 row_ptr_[static_cast<std::size_t>(tx) + 1] - begin};
}

double Topology::gain_db(NodeId tx, NodeId rx) const {
  // Hot accessor: called per pair by the frozen reference flood loop and
  // the federation's gateway scan. Bounds are validated at the enclosing API
  // boundaries (flood entry), so the per-call check is debug-only.
  DIMMER_DEBUG_ASSERT(tx >= 0 && tx < size() && rx >= 0 && rx < size(),
                      "node id out of range");
  const GainRow row = gain_row(tx);
  // A full row holds every column in order: index it directly.
  if (row.size == positions_.size())
    return row.gain_db[static_cast<std::size_t>(rx)];
  // A partial row is searched; an absent pair is a link that does not exist.
  const NodeId* end = row.col + row.size;
  const NodeId* it = std::lower_bound(row.col, end, rx);
  if (it == end || *it != rx) return -std::numeric_limits<double>::infinity();
  return row.gain_db[it - row.col];
}

double Topology::rx_power_dbm(NodeId tx, NodeId rx,
                              double tx_power_dbm) const {
  return tx_power_dbm + gain_db(tx, rx);
}

double Topology::gain_from_point_db(Vec2 p, NodeId rx,
                                    std::uint64_t shadow_tag) const {
  DIMMER_REQUIRE(rx >= 0 && rx < size(), "node id out of range");
  double d = distance(p, positions_[static_cast<std::size_t>(rx)]);
  // Restricted sub-topologies key the draw on the parent id, so a cell-local
  // node sees the exact interference shadowing of its global counterpart.
  double shadow =
      model_.shadowing_sigma_db *
      hashed_normal(util::hash_u64(shadow_seed_ ^ 0x9d2c5680ULL, shadow_tag,
                                   static_cast<std::uint64_t>(parent_id(rx))));
  return -model_.path_loss_db(d) + shadow;
}

NodeId Topology::parent_id(NodeId n) const {
  DIMMER_REQUIRE(n >= 0 && n < size(), "node id out of range");
  return parent_ids_.empty() ? n : parent_ids_[static_cast<std::size_t>(n)];
}

Topology::Topology(RestrictedTag, const Topology& parent,
                   const std::vector<NodeId>& members)
    : model_(parent.model_),
      radio_(parent.radio_),
      shadow_seed_(parent.shadow_seed_),
      gain_floor_db_(parent.gain_floor_db_) {
  const int m = static_cast<int>(members.size());
  DIMMER_REQUIRE(m >= 2, "restricted topology needs >= 2 members");
  positions_.reserve(members.size());
  parent_ids_.reserve(members.size());
  for (int i = 0; i < m; ++i) {
    const NodeId g = members[static_cast<std::size_t>(i)];
    DIMMER_REQUIRE(g >= 0 && g < parent.size(), "member id out of range");
    DIMMER_REQUIRE(i == 0 || g > members[static_cast<std::size_t>(i) - 1],
                   "members must be strictly ascending");
    positions_.push_back(parent.positions_[static_cast<std::size_t>(g)]);
    // Compose through the parent's own mapping so nested restrictions still
    // key external shadowing on the original topology's ids.
    parent_ids_.push_back(parent.parent_id(g));
  }
  // Merge each member's parent row against the member list (both
  // ascending): entries between members are copied bit-for-bit, and a pair
  // absent from the parent stays absent.
  row_ptr_.assign(members.size() + 1, 0);
  for (std::size_t a = 0; a < members.size(); ++a) {
    const GainRow row = parent.gain_row(members[a]);
    std::size_t k = 0;
    for (std::size_t b = 0; b < members.size() && k < row.size;) {
      if (row.col[k] < members[b]) {
        ++k;
        continue;
      }
      if (row.col[k] == members[b]) {
        col_.push_back(static_cast<NodeId>(b));
        gain_.push_back(row.gain_db[k]);
        ++k;
      }
      ++b;
    }
    row_ptr_[a + 1] = col_.size();
  }
}

Topology Topology::restricted(const std::vector<NodeId>& members) const {
  return Topology(RestrictedTag{}, *this, members);
}

double Topology::sinr_threshold_db(int frame_bytes, double target_per) {
  DIMMER_REQUIRE(target_per > 0.0 && target_per < 1.0,
                 "target_per out of (0,1)");
  // The bisection is a pure function of (frame_bytes, target_per) but costs
  // 60 per_802154 evaluations; hop_counts historically re-ran it on every
  // call (make_random_topology: up to 256 calls per topology). Memoize the
  // handful of distinct argument pairs per thread — the cached value is the
  // bisection's own output, so results are unchanged.
  struct Entry {
    int frame_bytes;
    double target_per;
    double threshold;
  };
  thread_local std::vector<Entry> cache;
  for (const Entry& e : cache)
    if (e.frame_bytes == frame_bytes && e.target_per == target_per)
      return e.threshold;

  double lo = -10.0, hi = 20.0;
  for (int i = 0; i < 60; ++i) {
    double mid = 0.5 * (lo + hi);
    if (per_802154(mid, frame_bytes) > target_per)
      lo = mid;
    else
      hi = mid;
  }
  cache.push_back(Entry{frame_bytes, target_per, hi});
  return hi;
}

NeighborCsr Topology::good_neighbors(int frame_bytes,
                                     double tx_power_dbm) const {
  const int n = size();
  const double need_dbm =
      radio_.noise_floor_dbm + sinr_threshold_db(frame_bytes, 0.1);
  NeighborCsr adj;
  adj.n = n;
  adj.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  adj.col.reserve(static_cast<std::size_t>(n) * 8);  // typical mesh degree
  for (NodeId u = 0; u < n; ++u) {
    // Stored links only: an absent pair (-infinity) can never qualify.
    const GainRow row = gain_row(u);
    for (std::size_t k = 0; k < row.size; ++k) {
      if (row.col[k] == u) continue;
      if (tx_power_dbm + row.gain_db[k] >= need_dbm)
        adj.col.push_back(row.col[k]);
    }
    adj.row_ptr[static_cast<std::size_t>(u) + 1] = adj.col.size();
  }
  return adj;
}

std::vector<int> Topology::hop_counts_from(NodeId root,
                                           const NeighborCsr& adj) const {
  DIMMER_REQUIRE(root >= 0 && root < size(), "node id out of range");
  DIMMER_REQUIRE(adj.n == size(), "adjacency built for another topology size");
  std::vector<int> hops(static_cast<std::size_t>(size()), -1);
  // BFS over the CSR rows. The frontier is a plain vector consumed front to
  // back (never reallocated past n); neighbors are stored ascending per row,
  // so discovery order — and therefore every hop count — matches the
  // historical dense BFS that scanned all N nodes per dequeue.
  std::vector<NodeId> frontier;
  frontier.reserve(static_cast<std::size_t>(size()));
  hops[static_cast<std::size_t>(root)] = 0;
  frontier.push_back(root);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    const std::size_t end = adj.row_ptr[static_cast<std::size_t>(u) + 1];
    for (std::size_t k = adj.row_ptr[static_cast<std::size_t>(u)]; k < end;
         ++k) {
      const NodeId v = adj.col[k];
      if (hops[static_cast<std::size_t>(v)] >= 0) continue;
      hops[static_cast<std::size_t>(v)] = hops[static_cast<std::size_t>(u)] + 1;
      frontier.push_back(v);
    }
  }
  return hops;
}

std::vector<int> Topology::hop_counts(NodeId root, int frame_bytes,
                                      double tx_power_dbm) const {
  DIMMER_REQUIRE(root >= 0 && root < size(), "node id out of range");
  return hop_counts_from(root, good_neighbors(frame_bytes, tx_power_dbm));
}

// ---- Factories -----------------------------------------------------------

namespace {
/// Office-grade propagation: walls push the exponent up; links are solid to
/// ~15 m and marginal around ~25 m at 0 dBm, giving multi-hop office scales.
PathLossModel office_path_loss() {
  PathLossModel m;
  m.pl_d0_db = 46.0;
  m.exponent = 3.8;  // walls between offices and lab rooms
  m.shadowing_sigma_db = 4.0;
  return m;
}

/// The campus placement shared by both campus factories.
/// Near-square layout: cols = ceil(sqrt(n)), last row possibly partial.
/// Pitch 9 m with ±2.5 m jitter keeps adjacent nodes between 4 m and ~14 m
/// apart — inside the office model's solid-link range — so the grid is
/// connected without the placement-retry loop make_random_topology needs
/// (asserted for representative sizes in tests/phy/test_topology).
std::vector<Vec2> campus_positions(int n, std::uint64_t shadow_seed) {
  DIMMER_REQUIRE(n >= 2, "campus topology needs >= 2 nodes");
  const int cols =
      std::max(1, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))));
  std::vector<Vec2> pos;
  pos.reserve(static_cast<std::size_t>(n));
  util::Pcg32 rng(util::hash_u64(0xCA3D05ULL, shadow_seed));
  for (int i = 0; i < n; ++i) {
    const int r = i / cols;
    const int c = i % cols;
    const double x = 4.0 + 9.0 * c + rng.uniform(-2.5, 2.5);
    const double y = 4.0 + 9.0 * r + rng.uniform(-2.5, 2.5);
    pos.push_back({x, y});
  }
  return pos;
}
}  // namespace

Topology make_line_topology(int n, double spacing_m,
                            std::uint64_t shadow_seed) {
  DIMMER_REQUIRE(n >= 2, "line topology needs >= 2 nodes");
  std::vector<Vec2> pos;
  pos.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pos.push_back({spacing_m * i, 0.0});
  return Topology(std::move(pos), office_path_loss(), RadioConstants{},
                  shadow_seed);
}

Topology make_grid_topology(int rows, int cols, double spacing_m,
                            std::uint64_t shadow_seed) {
  DIMMER_REQUIRE(rows >= 1 && cols >= 1 && rows * cols >= 2,
                 "grid topology needs >= 2 nodes");
  std::vector<Vec2> pos;
  pos.reserve(static_cast<std::size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      pos.push_back({spacing_m * c, spacing_m * r});
  return Topology(std::move(pos), office_path_loss(), RadioConstants{},
                  shadow_seed);
}

Topology make_random_topology(int n, double width_m, double height_m,
                              std::uint64_t seed) {
  DIMMER_REQUIRE(n >= 2, "random topology needs >= 2 nodes");
  util::Pcg32 rng(seed);
  for (int attempt = 0; attempt < 256; ++attempt) {
    std::vector<Vec2> pos;
    pos.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      pos.push_back({rng.uniform(0.0, width_m), rng.uniform(0.0, height_m)});
    Topology t(std::move(pos), office_path_loss(), RadioConstants{},
               util::hash_u64(seed, static_cast<std::uint64_t>(attempt)));
    auto hops = t.hop_counts(0);
    if (std::all_of(hops.begin(), hops.end(), [](int h) { return h >= 0; }))
      return t;
  }
  throw util::RequireError(
      "could not generate a connected random topology; "
      "box too large for the node count");
}

Topology make_office18_topology(std::uint64_t shadow_seed) {
  // 18 nodes along a 55 m office corridor with lab rooms on both sides;
  // node 0 (coordinator) sits in the first office, matching the paper's
  // 3-hop diameter at 0 dBm.
  std::vector<Vec2> pos = {
      {2.0, 3.0},   // 0: coordinator, first office
      {6.5, 9.0},   // 1
      {9.5, 2.5},   // 2
      {13.5, 9.5},  // 3
      {16.5, 3.5},  // 4
      {20.0, 9.0},  // 5
      {23.5, 2.5},  // 6
      {27.0, 9.5},  // 7
      {30.0, 4.0},  // 8
      {33.5, 10.5}, // 9
      {36.5, 2.5},  // 10
      {40.0, 9.0},  // 11
      {43.0, 3.5},  // 12
      {46.0, 10.0}, // 13
      {48.5, 4.5},  // 14
      {51.5, 10.5}, // 15
      {54.0, 2.5},  // 16
      {55.0, 9.5},  // 17
  };
  return Topology(std::move(pos), office_path_loss(), RadioConstants{},
                  shadow_seed);
}

Topology make_dcube48_topology(std::uint64_t shadow_seed) {
  // 48 devices over an 85 m x 30 m multi-room floor, deterministic placement
  // (jittered grid) so the topology is stable across runs; ~4-5 hops.
  std::vector<Vec2> pos;
  pos.reserve(48);
  util::Pcg32 rng(util::hash_u64(0xDC0BEULL, shadow_seed));
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 8; ++c) {
      double x = 4.0 + c * 11.0 + rng.uniform(-3.0, 3.0);
      double y = 3.0 + r * 5.0 + rng.uniform(-1.8, 1.8);
      pos.push_back({x, y});
    }
  }
  return Topology(std::move(pos), office_path_loss(), RadioConstants{},
                  shadow_seed);
}

Topology make_campus_topology(int n, std::uint64_t shadow_seed) {
  return Topology(campus_positions(n, shadow_seed), office_path_loss(),
                  RadioConstants{}, shadow_seed);
}

Topology make_campus_topology_culled(int n, std::uint64_t shadow_seed,
                                     double gain_floor_db) {
  return Topology(campus_positions(n, shadow_seed), office_path_loss(),
                  RadioConstants{}, shadow_seed, gain_floor_db);
}

double gain_cull_floor_db(const RadioConstants& radio, double cull_margin_db,
                          double max_tx_power_dbm) {
  // A NaN margin would give a NaN floor; a zero or negative one would cull
  // links *above* the noise floor, which is a config error, not a model.
  DIMMER_REQUIRE(cull_margin_db > 0.0,
                 "cull_margin_db must be positive (may be +inf)");
  return radio.noise_floor_dbm - cull_margin_db - max_tx_power_dbm;
}

}  // namespace dimmer::phy
