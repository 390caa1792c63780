// The four bench_perf workloads (bench/perf/README.md has the rationale).
//
// Every workload is a closed loop: a batch is a fixed matrix of trials
// (every trial shape `runs_per_batch()` times), executed by two workers that
// each pull the next trial as soon as their last one finished. Trial seeds
// are hash_u64(seed, variant, run), so the same --seed gives the same
// trials and outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bench/perf/probe.hpp"
#include "exp/runner.hpp"
#include "phy/channels.hpp"
#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "rl/mlp.hpp"
#include "sim/time.hpp"

namespace dimmer::perf {

/// A fixed set of floods on a workload's topology and interference field,
/// replayed through GlossyFlood::run_into and the frozen reference loop.
struct FloodReplay {
  const phy::Topology* topo = nullptr;
  const phy::InterferenceField* field = nullptr;
  int floods = 0;
  sim::TimeUs first_slot_us = 0;  ///< floods start 25 ms apart from here
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Trial shapes, and how many trials of each one batch holds.
  virtual int variants() const = 0;
  virtual int runs_per_batch() const = 0;
  /// True: batches run through exp::Campaign (forked shards, fsync'd
  /// journals); false: through the exp::Runner thread pool.
  virtual bool campaign() const { return false; }

  /// Builds the shared inputs (topology, interference, dataset) around the
  /// loaded policy. Part of set-up; returns the seconds spent building
  /// topologies (phy.topology_build_ms).
  virtual double build(const rl::Mlp& policy) = 0;

  /// The spec of trial (variant, run); its seed is hash_u64(seed, variant,
  /// run).
  virtual exp::TrialSpec spec(std::uint64_t seed, int variant,
                              std::uint64_t run) const = 0;

  /// Runs one trial. A non-null `clock` makes it a traced trial; the
  /// returned result is identical either way. Every trial reports the
  /// simulated rounds it ran as the metric "rounds".
  virtual exp::TrialResult trial(const exp::TrialSpec& spec,
                                 SpanClock* clock) const = 0;

  virtual FloodReplay replay() const = 0;

  /// Batch `index`: every variant for runs [index * runs_per_batch(),
  /// (index + 1) * runs_per_batch()).
  std::vector<exp::TrialSpec> batch(std::uint64_t seed,
                                    std::uint64_t index) const;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

}  // namespace dimmer::perf
