// The Dimmer protocol orchestrator.
//
// DimmerNetwork simulates an entire deployment running Dimmer (or one of the
// baselines sharing its round structure): it executes LWB rounds over the
// flood engine, maintains every node's statistics collector and global
// snapshot, runs the coordinator's adaptivity controller at the end of each
// round, and grants multi-armed-bandit learning turns during calm periods.
//
// The per-round data flow follows the paper's Fig. 1:
//   control slot (schedule + N_TX command) -> data slots with piggybacked
//   2-byte feedback headers -> coordinator aggregates feedback -> controller
//   (DQN / PID / static) decides the next N_TX -> next round.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/controller.hpp"
#include "core/forwarder.hpp"
#include "core/stats_collector.hpp"
#include "core/types.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "lwb/round.hpp"
#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "util/rng.hpp"

namespace dimmer::core {

/// Coordinator failover policy. The deployment designates an ordered list of
/// backup coordinators; a backup that misses `takeover_silent_rounds`
/// consecutive schedules assumes the coordinator is dead and takes over
/// (highest-priority alive backup wins — priorities keep simultaneous
/// takeovers from partitioning the network).
struct FailoverConfig {
  /// Backup coordinators in takeover-priority order. Empty = no failover:
  /// a dead coordinator orphans the network for good.
  std::vector<phy::NodeId> backups;
  /// Consecutive schedule misses before a backup takes over.
  int takeover_silent_rounds = 3;
  /// Warm: the backup inherits the adaptation state (controller memory,
  /// MAB episode continue). Cold: fresh controller, Exp3 episode aborted
  /// network-wide — models a backup that held no replicated state.
  enum class Mode { kWarm, kCold };
  Mode mode = Mode::kWarm;
};

struct ProtocolConfig {
  lwb::RoundConfig round;
  sim::TimeUs round_period = sim::seconds(4);  ///< paper: 4 s (1 s in D-Cube)
  /// Wall-clock time the simulation starts at (affects day/night ambient
  /// interference profiles; the paper runs some scenarios "during the day").
  sim::TimeUs start_time = 0;
  int initial_n_tx = 3;
  int n_max = kNMax;
  FeatureConfig features;
  std::size_t stats_window_slots = 36;  ///< PRR window: ~two rounds of slots
  std::size_t radio_window_slots = 20;  ///< radio-on window: ~one round
  /// Collection sink for point-to-point reliability; -1 = the coordinator.
  phy::NodeId sink = -1;
  /// Nodes accounted in the interference evaluation (empty = all; §IV-E).
  std::vector<phy::NodeId> feedback_nodes;
  /// Snapshot freshness window in rounds (see GlobalSnapshot).
  int feedback_freshness_rounds = 1;
  /// Enable the distributed forwarder selection (MAB).
  bool forwarder_selection = false;
  ForwarderConfig forwarder;
  /// The coordinator allows an MAB learning round only after this many
  /// consecutive lossless rounds ("If no interference is detected...").
  int mab_calm_rounds = 2;
  /// Coordinator failover policy (see FailoverConfig).
  FailoverConfig failover;
  /// Deterministic scripted faults applied on the round timeline. The
  /// injector draws from its own forked RNG stream, so an empty plan is
  /// bit-identical to no plan at all (asserted by the fault tests).
  fault::FaultPlan fault_plan;
};

/// Ground-truth and coordinator-view metrics of one executed round.
struct RoundStats {
  std::uint64_t round = 0;
  sim::TimeUs start_us = 0;
  int n_tx = 0;               ///< value commanded in this round's control slot
  bool mab_round = false;     ///< true if this was an MAB learning round
  int active_forwarders = 0;
  phy::NodeId coordinator = -1;  ///< coordinator that ran this round
  bool orphaned = false;      ///< the coordinator was dead; no schedule flood
  bool failover = false;      ///< a backup took over before this round

  double reliability = 1.0;   ///< delivered (slot,destination) pairs ratio
  bool lossless = true;       ///< ground truth: every pair delivered
  double radio_on_ms = 0.0;   ///< mean per-slot radio-on across nodes
  sim::TimeUs total_radio_on_us = 0;  ///< summed across all nodes (for duty)
  bool coordinator_lossless = true;  ///< the coordinator's own estimate
  int desynchronized = 0;     ///< nodes without a usable schedule

  std::vector<phy::NodeId> sources;  ///< data-slot sources, slot order
  std::vector<bool> sink_received;   ///< per data slot: sink got the packet
};

class DimmerNetwork {
 public:
  /// The controller decides N_TX each round; pass a StaticController for
  /// plain LWB, a DqnController for Dimmer, or the PID baseline.
  DimmerNetwork(const phy::Topology& topo,
                const phy::InterferenceField& interference, ProtocolConfig cfg,
                std::unique_ptr<AdaptivityController> controller,
                phy::NodeId coordinator, std::uint64_t seed);

  /// Same network over an external LinkModel backend (non-owning; must
  /// outlive the network). A federation cell binds a SparseLinkModel over
  /// its restricted sub-topology this way.
  DimmerNetwork(phy::LinkModel& links,
                const phy::InterferenceField& interference, ProtocolConfig cfg,
                std::unique_ptr<AdaptivityController> controller,
                phy::NodeId coordinator, std::uint64_t seed);

  /// Executes one round with the given data-slot sources and advances time
  /// by the round period.
  RoundStats run_round(const std::vector<phy::NodeId>& sources);

  /// Hot-path variant: identical semantics to run_round, but writes into a
  /// caller-owned RoundStats whose vectors are reused across rounds — with a
  /// stable source count the steady-state round performs no heap
  /// allocations. `out` is overwritten.
  void run_round_into(const std::vector<phy::NodeId>& sources,
                      RoundStats& out);

  // -- Introspection --------------------------------------------------------
  sim::TimeUs now() const { return time_; }
  std::uint64_t round_index() const { return round_idx_; }
  int commanded_n_tx() const { return next_n_tx_; }
  phy::NodeId coordinator() const { return coordinator_; }
  phy::NodeId sink() const;
  const GlobalSnapshot& snapshot(phy::NodeId n) const;
  const StatsCollector& stats(phy::NodeId n) const;
  const AdaptivityController& controller() const { return *controller_; }
  const ForwarderSelection* forwarder_selection() const {
    return fs_ ? &*fs_ : nullptr;
  }
  const ProtocolConfig& config() const { return cfg_; }
  const lwb::RoundExecutor& executor() const { return executor_; }
  /// The pooled RoundResult of the most recent run_round: full per-slot
  /// flood outcomes (a federation gateway checks whether it received a slot
  /// before bridging it; the bit-identity tests compare these per node).
  /// Valid until the next run_round.
  const lwb::RoundResult& last_round_result() const { return round_buf_; }
  /// The protocol RNG (read-only): lets tests assert two networks stayed in
  /// RNG lockstep — equal streams after N rounds means every draw matched.
  const util::Pcg32& rng() const { return rng_; }

  /// A node's local view of the last round's reliability (used for MAB
  /// rewards): its own reception ratio combined with the worst feedback
  /// header it heard.
  double local_reliability_view(phy::NodeId n) const;

  /// Attaches observability hooks and propagates them down the stack
  /// (round executor -> flood engine, controller, forwarder selection).
  /// Purely observational: simulation results are identical with or
  /// without a sink attached.
  void set_instrumentation(obs::Instrumentation instr);

  /// Crash-fault injection: mark a node failed (radio permanently off) or
  /// recovered. Failing the coordinator orphans subsequent rounds until a
  /// configured backup takes over (see FailoverConfig). Note that the
  /// coordinator cannot distinguish a crashed node from a jammed one: unless
  /// the node is removed from the feedback subset, its missing feedback keeps
  /// reading as 0% reliability and the controller escalates N_TX (by design —
  /// see the fault-injection tests).
  void set_node_failed(phy::NodeId n, bool failed);
  bool node_failed(phy::NodeId n) const;

  /// Number of coordinator takeovers so far.
  int failover_count() const { return failover_count_; }
  /// Rounds from the most recent takeover until every alive node was back in
  /// sync; -1 while recovery is still in progress or before any failover.
  int last_rounds_to_resync() const { return last_rounds_to_resync_; }
  /// Lowest ground-truth reliability observed during the recovery window of
  /// the most recent failover (1.0 before any failover).
  double recovery_min_reliability() const { return recovery_min_rel_; }
  const fault::FaultInjector* fault_injector() const {
    return injector_ ? &*injector_ : nullptr;
  }

 private:
  void init(std::uint64_t seed);  // shared ctor body (both LinkModel seams)
  void apply_faults(RoundStats& out, lwb::RoundDisruptions& dis);
  void maybe_failover(RoundStats& out);
  void update_failover_tracking(const lwb::RoundResult& rr,
                                const RoundStats& out);

  void process_round(const lwb::RoundResult& rr,
                     const std::vector<phy::NodeId>& sources,
                     RoundStats& out);

  const phy::Topology* topo_;
  ProtocolConfig cfg_;
  lwb::RoundExecutor executor_;
  std::unique_ptr<AdaptivityController> controller_;
  phy::NodeId coordinator_;
  util::Pcg32 rng_;

  std::vector<lwb::NodeState> states_;
  std::vector<StatsCollector> stats_;
  std::vector<GlobalSnapshot> snapshots_;
  std::optional<ForwarderSelection> fs_;

  sim::TimeUs time_ = 0;
  std::uint64_t round_idx_ = 0;
  int next_n_tx_ = 3;
  int calm_rounds_ = 0;
  // Learner's local view of the last executed round (for MAB end_round).
  std::vector<double> local_view_;
  obs::Instrumentation instr_;
  // Round-result pool and per-round scratch, reused across rounds so the
  // steady-state flood path performs no heap allocations (DESIGN.md §10).
  lwb::RoundResult round_buf_;
  std::vector<int> rx_ok_scratch_;
  std::vector<int> rx_expected_scratch_;
  std::vector<double> worst_header_scratch_;

  // -- Fault injection & failover ------------------------------------------
  std::optional<fault::FaultInjector> injector_;  // only with a non-empty plan
  std::vector<int> backup_silence_;  ///< consecutive missed schedules/backup
  int failover_count_ = 0;
  // Recovery tracking for the most recent failover.
  bool recovering_ = false;
  std::uint64_t takeover_round_ = 0;
  int last_rounds_to_resync_ = -1;
  double recovery_min_rel_ = 1.0;
};

}  // namespace dimmer::core
