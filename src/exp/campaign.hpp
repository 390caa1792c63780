// Sharded, checkpointed campaign engine: the crash-safe big sibling of
// exp::Runner.
//
// A Campaign executes a TrialSpec matrix across `shards` worker *processes*
// (fork()ed, one per shard), streaming every finished trial into an
// append-only per-shard journal (exp/journal.hpp). The supervisor:
//
//  - persists the full spec matrix (including fault plans) in an atomic
//    checkpoint before any worker starts, so a killed sweep can resume:
//    completed trials are replayed from the journals and only the missing
//    ones re-run — a worker crash mid-trial costs exactly that one trial's
//    recomputation;
//  - supervises workers with bounded, deterministic retry: a dead worker is
//    respawned after an exponential backoff whose jitter is a pure
//    counter-based hash (never the protocol RNG); a trial that keeps
//    killing its worker is recorded as failed after `max_attempts` and the
//    rest of the sweep proceeds;
//  - merges the journals back into spec order at the end, digest-verifying
//    every record against its spec.
//
// Determinism contract (the whole point): the merged trials (their
// wall_seconds aside), and thus any BENCH_*.json written from them, are
// byte-identical for every shard count, every kill/resume history, and every
// worker-death pattern, because (a) each trial's RNG is forked from the master seed in
// spec order by *global* index (exp::fork_trial_rngs) no matter which shard
// runs it, (b) workers run their shard's trials serially in ascending
// global order, and (c) results round-trip through exp/serialize.hpp
// exactly. Supervision bookkeeping that *does* depend on crash timing
// (attempt counts, backoff, wall clocks) lives in sidecar files and
// campaign counters, never in the journalled results.
//
// Fault injection for tests (CampaignOptions::kill_after / abort_after, both
// off by default): a worker or the supervisor SIGKILLs itself after a given
// number of journal records, so kill/resume identity can be exercised.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "obs/metrics.hpp"

namespace dimmer::exp {

/// Exit code of a worker that found its shard journal flock()ed (an orphan
/// predecessor still draining); the supervisor backs off and retries
/// without charging any trial's attempt budget.
inline constexpr int kJournalLockedExit = 87;

struct CampaignOptions {
  /// Campaign directory: checkpoint.json, campaign.lock, shard_NNN.jsonl
  /// journals and shard_NNN.attempts.jsonl sidecars. Created if missing
  /// (parent must exist). Resuming requires the same shards / max_attempts /
  /// spec matrix the directory was created with, and the same kMasterSeed.
  std::string dir;
  int shards = 1;        ///< worker process count, in [1, 999]
  int max_attempts = 3;  ///< per-trial attempt budget (>= 1)
  /// Base respawn backoff (seconds); doubles per consecutive death of the
  /// same shard, jittered by a pure hash of (kMasterSeed, shard, deaths).
  double retry_backoff_s = 0.05;
  /// Per-trial deadline inside workers (exp/watchdog.hpp): a trial that
  /// exceeds it kills its worker, which the supervisor treats like any
  /// crash. 0 = off; negative or NaN is rejected.
  double trial_timeout_s = 0.0;
  /// Give up on the campaign after this many *consecutive* worker deaths
  /// of one shard with zero new journal or attempt bytes (a crash loop
  /// outside any trial, e.g. a corrupt directory).
  int max_fruitless_deaths = 10;
  /// Test hooks, 0 = off. Neither is written to the checkpoint, so a resume
  /// without them still matches. kill_after: each worker SIGKILLs itself
  /// after appending this many journal records. abort_after: the supervisor
  /// SIGKILLs itself once this many records exist across all journals.
  long kill_after = 0;
  long abort_after = 0;
};

/// What a campaign run produced. `counters` is deliberately separate from
/// the trials' own registries: supervision metrics depend on kill history,
/// so folding them into merged BENCH output would break byte-identity.
/// Counters: campaign.trials_run (trials executed, cumulative across
/// resumes), campaign.resumed_trials (journal records replayed instead of
/// re-run), campaign.worker_deaths, campaign.retries (re-attempts measured
/// from the attempts sidecars), campaign.trials_failed (attempt budget
/// exhausted); gauges campaign.trials_total / campaign.shards.
struct CampaignReport {
  std::vector<Trial> trials;  ///< in spec order, results from the journals
  obs::MetricsRegistry counters;
  bool resumed = false;  ///< a checkpoint existed when run() started
};

/// Round-robin shard assignment of global trial index `trial`. Fixed and
/// public so tests can predict journal layout.
int shard_of(std::size_t trial, int shards);

/// checkpoint.json under `dir`.
std::string campaign_checkpoint_path(const std::string& dir);

class Campaign {
 public:
  explicit Campaign(CampaignOptions opt);

  /// Runs (or resumes) the campaign. Throws util::RequireError on option /
  /// directory mismatches and journal::LogLockedError when another
  /// supervisor holds the campaign lock. `fn` must obey the same contract
  /// as with Runner::run (pure in (spec, rng), no global mutable state) —
  /// plus, since workers are forked, it must not depend on threads or fds
  /// created before run() is called.
  CampaignReport run(const std::vector<TrialSpec>& specs,
                     const TrialFn& fn) const;

 private:
  CampaignOptions opt_;
};

}  // namespace dimmer::exp
