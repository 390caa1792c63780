// Node placement and the static link gains.
//
// A Topology owns node positions plus a deterministic per-link shadowing draw,
// and answers "what power does node j see when node i transmits?" for both
// in-network nodes and external points (jammers, WiFi APs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "phy/geometry.hpp"
#include "phy/propagation.hpp"

namespace dimmer::phy {

using NodeId = int;

/// CSR adjacency over "good" links (see Topology::good_neighbors): per node,
/// the neighbors it can reach with clean-SNR PER below the builder's target.
/// Neighbor ids are strictly ascending within a row and never include the
/// node itself. Symmetric by construction (links are reciprocal).
struct NeighborCsr {
  std::vector<std::size_t> row_ptr;  ///< n+1 offsets into col
  std::vector<NodeId> col;           ///< neighbor ids
  int n = 0;

  std::size_t degree(NodeId u) const {
    return row_ptr[static_cast<std::size_t>(u) + 1] -
           row_ptr[static_cast<std::size_t>(u)];
  }
};

/// One node's stored gain row (Topology::gain_row): `size` strictly
/// ascending column ids and their gains in dB, the node's own 0.0 included.
/// Points into the Topology, which must outlive it.
struct GainRow {
  const NodeId* col;
  const double* gain_db;
  std::size_t size;
};

/// The whole stored CSR (Topology::gain_csr): n+1 row offsets into `col`,
/// which holds every row's column ids back to back — the arrays gain_row()
/// slices. Points into the Topology, which must outlive it.
struct GainCsr {
  const std::size_t* row_ptr;
  const NodeId* col;
};

class Topology {
 public:
  /// Builds the CSR gain rows. `shadow_seed` fixes the lognormal shadowing
  /// draws; identical seeds give identical radio environments. Link gains
  /// below `gain_floor_db` are dropped *at construction* — O(nnz) storage
  /// instead of one entry per pair — and read as -infinity, i.e. a link that
  /// physically does not exist. Stored entries hold the same double whatever
  /// the floor (same distance, same hashed shadowing draw), and self-gains
  /// (0.0) always survive. The default floor keeps every link.
  Topology(std::vector<Vec2> positions, PathLossModel model,
           RadioConstants radio, std::uint64_t shadow_seed,
           double gain_floor_db = -std::numeric_limits<double>::infinity());

  int size() const { return static_cast<int>(positions_.size()); }
  Vec2 position(NodeId n) const;
  const PathLossModel& path_loss() const { return model_; }
  const RadioConstants& radio() const { return radio_; }
  std::uint64_t shadow_seed() const { return shadow_seed_; }

  /// The culling floor (-infinity when every link was kept).
  double gain_floor_db() const { return gain_floor_db_; }
  /// Stored gain entries (diagonal included); N^2 when nothing was culled.
  std::size_t gain_nnz() const { return gain_.size(); }
  /// Bytes held by the CSR gain rows (row_ptr + col + gain), to compare
  /// against the 8*N^2 of a dense matrix.
  std::size_t gain_storage_bytes() const;

  /// Link gain in dB between two nodes (path loss + static shadowing, < 0).
  /// Hot accessor: bounds are checked in debug builds only — callers are
  /// expected to validate node ids at their own API boundary (the flood
  /// engine does so at flood entry). O(1) on a full row, a binary search on
  /// a partial one; a culled pair returns -infinity.
  double gain_db(NodeId tx, NodeId rx) const;

  /// The stored gain row of `tx` (same debug-only bounds policy as
  /// gain_db). Walking rows visits exactly the links that exist.
  GainRow gain_row(NodeId tx) const;

  /// The row offsets and column ids of every stored gain row.
  GainCsr gain_csr() const { return {row_ptr_.data(), col_.data()}; }

  /// Received power in dBm at `rx` for a transmission from `tx`. Same
  /// debug-only bounds policy as gain_db.
  double rx_power_dbm(NodeId tx, NodeId rx, double tx_power_dbm) const;

  /// Gain from an arbitrary point (e.g. a jammer) to a node. `shadow_tag`
  /// identifies the external transmitter so its shadowing is stable. On a
  /// restricted() sub-topology the shadowing draw keys on the node's
  /// *parent* id, so a cell-local node hears exactly the interference its
  /// global counterpart would.
  double gain_from_point_db(Vec2 p, NodeId rx, std::uint64_t shadow_tag) const;

  /// Extracts the sub-topology induced by `members` (strictly ascending
  /// parent node ids, >= 2 of them): local node i is parent node members[i],
  /// every stored gain entry between members is copied bit-for-bit from the
  /// parent's rows (no re-draw — pairwise shadowing between members is
  /// preserved, unlike rebuilding a Topology from the member positions,
  /// which would re-key the draws on the compacted ids), a pair culled in
  /// the parent stays culled, and external-point shadowing keys on the
  /// parent ids (see gain_from_point_db). The floor is inherited. This is
  /// the Cell seam's id-remapping primitive: restricting to *all* nodes
  /// yields a topology whose every query is bit-identical to the parent
  /// (asserted in tests/phy/test_topology.cpp).
  Topology restricted(const std::vector<NodeId>& members) const;

  /// Parent id of a local node: members[n] for restricted() topologies, n
  /// itself otherwise. Composes across nested restrictions.
  NodeId parent_id(NodeId n) const;

  /// CSR neighbor lists over "good" links (clean-SNR PER below 10% for
  /// `frame_bytes` at `tx_power_dbm`). Built in one pass over the gain rows;
  /// reuse the result across hop_counts_from calls when querying many roots
  /// of the same topology.
  NeighborCsr good_neighbors(int frame_bytes = 36,
                             double tx_power_dbm = 0.0) const;

  /// BFS hop counts from `root` over "good" links (clean-SNR PER below 10%
  /// for `frame_bytes`). Unreachable nodes get -1. One-shot convenience
  /// over good_neighbors + hop_counts_from.
  std::vector<int> hop_counts(NodeId root, int frame_bytes = 36,
                              double tx_power_dbm = 0.0) const;

  /// BFS hop counts over a prebuilt adjacency: O(N + E) per root instead of
  /// the O(N) scan per dequeue the dense BFS paid — the difference between
  /// usable and unusable topology factories past a few hundred nodes.
  /// Identical output to hop_counts for the same (frame_bytes, power).
  std::vector<int> hop_counts_from(NodeId root, const NeighborCsr& adj) const;

  /// Smallest SINR (dB) with per_802154(sinr, frame_bytes) <= target_per.
  /// Memoized per thread: the 60-iteration bisection runs once per distinct
  /// (frame_bytes, target_per) pair.
  static double sinr_threshold_db(int frame_bytes, double target_per);

 private:
  struct RestrictedTag {};
  Topology(RestrictedTag, const Topology& parent,
           const std::vector<NodeId>& members);

  /// The pairwise gain expression for `lo < hi`: distance and the shadowing
  /// hash key on the lower id first, so the link's two directions share one
  /// evaluation.
  double pair_gain(NodeId lo, NodeId hi) const;

  std::vector<Vec2> positions_;
  PathLossModel model_;
  RadioConstants radio_;
  std::uint64_t shadow_seed_ = 0;
  double gain_floor_db_ = -std::numeric_limits<double>::infinity();

  // CSR gain rows: per node, strictly ascending column ids and parallel
  // finite gains. A full row (n entries) has col[k] == k.
  std::vector<std::size_t> row_ptr_;  // n+1 offsets
  std::vector<NodeId> col_;
  std::vector<double> gain_;

  // restricted(): local -> parent node ids (empty = identity).
  std::vector<NodeId> parent_ids_;
};

// ---- Topology factories ------------------------------------------------

/// n nodes on a line, `spacing_m` apart (multi-hop chains for tests).
Topology make_line_topology(int n, double spacing_m,
                            std::uint64_t shadow_seed = 1);

/// rows x cols grid with `spacing_m` pitch.
Topology make_grid_topology(int rows, int cols, double spacing_m,
                            std::uint64_t shadow_seed = 1);

/// n nodes placed uniformly at random in a width x height box; retries the
/// placement until the topology is connected from node 0.
Topology make_random_topology(int n, double width_m, double height_m,
                              std::uint64_t seed);

/// The paper's 18-node, 3-hop office deployment (Fig. 4a): offices and lab
/// rooms along a corridor; node 0 is the coordinator at one end.
Topology make_office18_topology(std::uint64_t shadow_seed = 18);

/// A 48-node D-Cube-like deployment spanning several rooms/floors;
/// node 0 is the coordinator (paper: device ID 202).
Topology make_dcube48_topology(std::uint64_t shadow_seed = 48);

/// Large deterministic campus: `n` nodes on a near-square jittered grid
/// (the dcube48 recipe generalized), 9 m pitch with ±2.5 m seeded jitter so
/// adjacent nodes sit well inside the office model's ~15 m solid-link range.
/// Connected by construction — no placement retries — which is what makes
/// 1000+-node topologies build in one Topology construction instead of
/// make_random_topology's rejection loop. Node 0 is the coordinator in the
/// first grid corner; the flood diameter grows as sqrt(n).
Topology make_campus_topology(int n, std::uint64_t shadow_seed = 1);

/// Campus factory with construction-time gain culling (see the Topology
/// constructor): identical placement and surviving gains to
/// make_campus_topology(n, shadow_seed), links below the floor dropped.
Topology make_campus_topology_culled(int n, std::uint64_t shadow_seed,
                                     double gain_floor_db);

/// The gain floor that culls exactly the links whose rx power would sit
/// more than `cull_margin_db` below the noise floor at every TX power <=
/// max_tx_power_dbm: a link with gain < floor has rx_power = tx_power + gain
/// < noise_floor - margin. The margin must be positive (+infinity keeps
/// every link); 0, negative or NaN margins throw util::RequireError.
double gain_cull_floor_db(const RadioConstants& radio, double cull_margin_db,
                          double max_tx_power_dbm = 0.0);

}  // namespace dimmer::phy
