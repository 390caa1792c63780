#include "exp/campaign.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "exp/journal.hpp"
#include "exp/serialize.hpp"
#include "exp/watchdog.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"
#include "util/wallclock.hpp"

namespace dimmer::exp {

namespace {

// ---- small file helpers ----------------------------------------------------

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return;
  DIMMER_REQUIRE(false, "campaign: cannot create directory '" + dir +
                            "': " + std::strerror(errno));
}

/// Newline count of a file (== its record count for our JSONL formats,
/// ignoring at most one torn tail). Missing file counts zero.
std::size_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return 0;
  std::size_t n = 0;
  char buf[4096];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i)
      if (buf[i] == '\n') ++n;
    if (!in) break;
  }
  return n;
}

// ---- checkpoint ------------------------------------------------------------

struct Checkpoint {
  int shards = 0;
  int max_attempts = 0;
  std::uint64_t master_seed = 0;
  std::uint64_t digest = 0;
  obs::MetricsRegistry counters;
  std::vector<TrialSpec> specs;
};

std::string checkpoint_json(const CampaignOptions& opt,
                            const std::vector<TrialSpec>& specs,
                            std::uint64_t digest,
                            const obs::MetricsRegistry& counters) {
  std::ostringstream os;
  os << "{\"version\": 1, \"shards\": " << opt.shards
     << ", \"master_seed\": " << kMasterSeed
     << ", \"max_attempts\": " << opt.max_attempts
     << ", \"specs_digest\": " << digest
     << ", \"counters\": " << counters.to_json() << ", \"specs\": [";
  for (std::size_t i = 0; i < specs.size(); ++i)
    os << (i ? ",\n  " : "\n  ") << spec_to_json(specs[i]);
  os << "\n]}\n";
  return os.str();
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DIMMER_REQUIRE(in.is_open(),
                 "campaign: cannot read checkpoint '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const util::json::Value v = util::json::parse(text.str());
  DIMMER_REQUIRE(v.at("version").as_u64() == 1,
                 "campaign: unsupported checkpoint version in '" + path + "'");
  Checkpoint ck;
  ck.shards = v.at("shards").as_int();
  ck.max_attempts = v.at("max_attempts").as_int();
  ck.master_seed = v.at("master_seed").as_u64();
  ck.digest = v.at("specs_digest").as_u64();
  ck.counters = obs::MetricsRegistry::from_value(v.at("counters"));
  for (const util::json::Value& s : v.at("specs").as_array())
    ck.specs.push_back(spec_from_value(s));
  DIMMER_REQUIRE(specs_digest(ck.specs) == ck.digest,
                 "campaign: checkpoint specs do not match their own digest "
                 "(corrupt checkpoint?) in '" +
                     path + "'");
  return ck;
}

// ---- locks -----------------------------------------------------------------

/// flock-based single-supervisor guard on <dir>/campaign.lock, held for the
/// supervisor's lifetime (and released by the kernel if it is killed).
class DirLock {
 public:
  explicit DirLock(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    DIMMER_REQUIRE(fd_ >= 0, "campaign: cannot open lock '" + path +
                                 "': " + std::strerror(errno));
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      int err = errno;
      ::close(fd_);
      fd_ = -1;
      if (err == EWOULDBLOCK)
        throw LogLockedError("campaign: another supervisor holds '" + path +
                             "'");
      errno = err;
      DIMMER_REQUIRE(false, "campaign: flock failed on '" + path +
                                "': " + std::strerror(errno));
    }
  }
  ~DirLock() {
    if (fd_ >= 0) ::close(fd_);
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  /// Forked workers must close this fd immediately: flock travels with the
  /// open file description, so an inherited copy would keep the campaign
  /// locked after a SIGKILLed supervisor — and block the resume that the
  /// kill was supposed to be recoverable by.
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// ---- worker ----------------------------------------------------------------

/// Body of one forked shard worker. Never returns; all exits are _Exit so a
/// child can't run the parent's atexit handlers or flush its stdio buffers.
[[noreturn]] void worker_main(const CampaignOptions& opt,
                              std::uint64_t expected_digest, int shard,
                              const TrialFn& fn) {
  try {
#ifdef __linux__
    // Die with the supervisor: an orphaned worker must not keep a journal
    // flock (or CPU) after the campaign it belonged to is gone.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1) ::raise(SIGKILL);  // supervisor died before prctl
#endif
    // Re-read the spec matrix from the on-disk checkpoint rather than the
    // inherited memory image: resume-from-disk then exercises the exact
    // same path as a fresh run, and the spec round-trip stays load-bearing
    // (a serialization bug fails here, loudly, not only after a crash).
    Checkpoint ck = load_checkpoint(campaign_checkpoint_path(opt.dir));
    DIMMER_REQUIRE(ck.digest == expected_digest,
                   "campaign: worker re-read a checkpoint that does not "
                   "match the supervisor's spec matrix");

    AppendLog journal(shard_journal_path(opt.dir, shard));
    AppendLog attempts_log(shard_attempts_path(opt.dir, shard));
    const JournalReplay done = replay_journal(journal.path());
    const AttemptsReplay attempts = replay_attempts(attempts_log.path());

    // Fork *all* trials' generators in global spec order and use only this
    // shard's: every trial's stream is independent of the shard count.
    std::vector<util::Pcg32> rngs = fork_trial_rngs(ck.specs);

    TrialWatchdog watchdog(opt.trial_timeout_s);

    long records_written = 0;
    auto after_record = [&] {
      ++records_written;
      if (opt.kill_after > 0 && records_written >= opt.kill_after)
        ::raise(SIGKILL);  // test hook: simulate a worker crash
    };

    for (std::size_t i = 0; i < ck.specs.size(); ++i) {
      if (shard_of(i, opt.shards) != shard) continue;
      if (done.records.count(i) != 0) continue;
      const std::uint64_t digest = spec_digest(ck.specs[i]);

      auto it = attempts.attempts.find(i);
      const int prior = it == attempts.attempts.end() ? 0 : it->second;
      if (prior >= ck.max_attempts) {
        // This trial killed its worker max_attempts times; record the
        // deterministic verdict and move on so the sweep still completes.
        TrialResult r;
        r.ok = false;
        r.error = "campaign: trial exceeded attempt budget (" +
                  std::to_string(ck.max_attempts) + " attempts)";
        journal.append_line(failed_record(i, digest, r));
        after_record();
        continue;
      }
      // The attempt record is fsync'd *before* the trial runs: if the trial
      // kills the process, the next worker knows whom to blame.
      attempts_log.append_line(attempt_record(i, prior + 1));

      const TrialResult r =
          execute_trial(fn, ck.specs[i], i, rngs[i], watchdog);
      journal.append_line(done_record(i, digest, r));
      after_record();
    }
    std::_Exit(0);
  } catch (const LogLockedError&) {
    std::_Exit(kJournalLockedExit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dimmer: campaign worker (shard %d): %s\n", shard,
                 e.what());
    std::_Exit(1);
  } catch (...) {  // NOLINT-DIMMER(err-swallow): recorded, not swallowed —
                   // the nonzero exit is the supervisor's crash signal.
    std::fprintf(stderr,
                 "dimmer: campaign worker (shard %d): unknown exception\n",
                 shard);
    std::_Exit(1);
  }
}

}  // namespace

// ---- public helpers --------------------------------------------------------

int shard_of(std::size_t trial, int shards) {
  DIMMER_REQUIRE(shards >= 1, "shard_of: shards must be >= 1");
  return static_cast<int>(trial % static_cast<std::size_t>(shards));
}

std::string campaign_checkpoint_path(const std::string& dir) {
  return dir + "/checkpoint.json";
}

// ---- supervisor ------------------------------------------------------------

Campaign::Campaign(CampaignOptions opt) : opt_(std::move(opt)) {
  DIMMER_REQUIRE(!opt_.dir.empty(), "campaign: dir must be set");
  DIMMER_REQUIRE(opt_.shards >= 1 && opt_.shards <= 999,
                 "campaign: shards out of [1, 999]");
  DIMMER_REQUIRE(opt_.max_attempts >= 1, "campaign: max_attempts must be >= 1");
  DIMMER_REQUIRE(opt_.retry_backoff_s >= 0.0 &&
                     std::isfinite(opt_.retry_backoff_s),
                 "campaign: retry_backoff_s must be finite and >= 0");
  DIMMER_REQUIRE(opt_.max_fruitless_deaths >= 1,
                 "campaign: max_fruitless_deaths must be >= 1");
  DIMMER_REQUIRE(opt_.trial_timeout_s >= 0.0,
                 "campaign: trial_timeout_s must be >= 0 (0 = off)");
  DIMMER_REQUIRE(opt_.kill_after >= 0 && opt_.abort_after >= 0,
                 "campaign: kill_after and abort_after must be >= 0 (0 = off)");
}

CampaignReport Campaign::run(const std::vector<TrialSpec>& specs,
                             const TrialFn& fn) const {
  DIMMER_REQUIRE(!specs.empty(), "campaign: empty spec matrix");
  ensure_dir(opt_.dir);
  DirLock lock(opt_.dir + "/campaign.lock");

  const std::uint64_t digest = specs_digest(specs);
  const std::string ck_path = campaign_checkpoint_path(opt_.dir);

  CampaignReport report;
  obs::MetricsRegistry& ctr = report.counters;

  if (file_exists(ck_path)) {
    const Checkpoint ck = load_checkpoint(ck_path);
    DIMMER_REQUIRE(ck.shards == opt_.shards,
                   "campaign: resuming with a different shard count than the "
                   "checkpoint (journal layout would not match)");
    DIMMER_REQUIRE(ck.master_seed == kMasterSeed,
                   "campaign: resuming with a different master_seed");
    DIMMER_REQUIRE(ck.max_attempts == opt_.max_attempts,
                   "campaign: resuming with a different max_attempts");
    DIMMER_REQUIRE(ck.digest == digest && ck.specs.size() == specs.size(),
                   "campaign: checkpoint spec matrix does not match the "
                   "specs passed to run() — wrong directory?");
    ctr.merge(ck.counters);  // cumulative supervision history
    report.resumed = true;
  } else {
    for (int s = 0; s < opt_.shards; ++s) {
      DIMMER_REQUIRE(
          !file_exists(shard_journal_path(opt_.dir, s)) &&
              !file_exists(shard_attempts_path(opt_.dir, s)),
          "campaign: journals present but no checkpoint — refusing to run "
          "on top of an unrelated campaign directory '" +
              opt_.dir + "'");
    }
    util::write_file_atomic(ck_path, checkpoint_json(opt_, specs, digest, ctr));
  }
  ctr.gauge("campaign.trials_total") = static_cast<double>(specs.size());
  ctr.gauge("campaign.shards") = static_cast<double>(opt_.shards);

  // What is already on disk? (Journals may end in a torn record from a
  // killed worker; replay drops it and the next worker truncates it.)
  std::size_t records_at_start = 0;
  std::vector<bool> shard_done(static_cast<std::size_t>(opt_.shards), true);
  {
    std::vector<std::size_t> shard_size(static_cast<std::size_t>(opt_.shards),
                                        0);
    for (std::size_t i = 0; i < specs.size(); ++i)
      ++shard_size[static_cast<std::size_t>(shard_of(i, opt_.shards))];
    for (int s = 0; s < opt_.shards; ++s) {
      const JournalReplay rep =
          replay_journal(shard_journal_path(opt_.dir, s));
      records_at_start += rep.records.size();
      for (const auto& [trial, rec] : rep.records)
        DIMMER_REQUIRE(trial < specs.size() &&
                           shard_of(trial, opt_.shards) == s,
                       "campaign: journal record in the wrong shard file");
      shard_done[static_cast<std::size_t>(s)] =
          rep.records.size() == shard_size[static_cast<std::size_t>(s)];
    }
  }
  ctr.counter("campaign.resumed_trials") += records_at_start;

  auto total_records_now = [&] {
    std::size_t n = 0;
    for (int s = 0; s < opt_.shards; ++s)
      n += count_lines(shard_journal_path(opt_.dir, s));
    return n;
  };
  auto maybe_abort = [&] {
    if (opt_.abort_after > 0 &&
        total_records_now() >= static_cast<std::size_t>(opt_.abort_after))
      ::raise(SIGKILL);  // test hook: simulate a supervisor crash
  };

  // Per-shard supervision state. `progress` snapshots journal + attempts
  // line counts so a crash loop that makes no progress is distinguishable
  // from a trial that keeps killing its (advancing) worker.
  struct WorkerState {
    pid_t pid = -1;
    int deaths = 0;
    int fruitless = 0;
    std::size_t progress = 0;
    double respawn_at = 0.0;  // supervisor clock seconds
  };
  std::vector<WorkerState> workers(static_cast<std::size_t>(opt_.shards));
  util::Stopwatch clock;

  auto shard_progress = [&](int s) {
    return count_lines(shard_journal_path(opt_.dir, s)) +
           count_lines(shard_attempts_path(opt_.dir, s));
  };
  auto spawn = [&](int s) {
    WorkerState& w = workers[static_cast<std::size_t>(s)];
    w.progress = shard_progress(s);
    const pid_t pid = ::fork();
    DIMMER_REQUIRE(pid >= 0, std::string("campaign: fork failed: ") +
                                 std::strerror(errno));
    if (pid == 0) {
      ::close(lock.fd());  // see DirLock::fd(): don't outlive-hold the lock
      worker_main(opt_, digest, s, fn);  // never returns
    }
    w.pid = pid;
  };

  // NOTE: the supervisor is single-threaded at every fork() above — trials
  // run in the children, never here — so fork's async-signal-safety rules
  // for multithreaded parents do not bite.
  for (int s = 0; s < opt_.shards; ++s)
    if (!shard_done[static_cast<std::size_t>(s)]) spawn(s);

  auto all_done = [&] {
    for (bool d : shard_done)
      if (!d) return false;
    return true;
  };
  while (!all_done()) {
    for (int s = 0; s < opt_.shards; ++s) {
      WorkerState& w = workers[static_cast<std::size_t>(s)];
      if (shard_done[static_cast<std::size_t>(s)]) continue;
      if (w.pid < 0) {  // waiting out a respawn backoff
        if (clock.seconds() >= w.respawn_at) spawn(s);
        continue;
      }
      int status = 0;
      const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
      DIMMER_REQUIRE(r >= 0, std::string("campaign: waitpid failed: ") +
                                 std::strerror(errno));
      if (r == 0) continue;  // still running
      w.pid = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        // Worker claims completion; hold it to that.
        const std::size_t have =
            replay_journal(shard_journal_path(opt_.dir, s)).records.size();
        std::size_t want = 0;
        for (std::size_t i = 0; i < specs.size(); ++i)
          if (shard_of(i, opt_.shards) == s) ++want;
        DIMMER_REQUIRE(have == want,
                       "campaign: worker exited cleanly with trials still "
                       "pending (shard " +
                           std::to_string(s) + ")");
        shard_done[static_cast<std::size_t>(s)] = true;
        continue;
      }
      // Death (crash, watchdog, injected kill, or journal-locked retry).
      ++w.deaths;
      ctr.counter("campaign.worker_deaths") += 1;
      const std::size_t now = shard_progress(s);
      const bool lock_busy =
          WIFEXITED(status) && WEXITSTATUS(status) == kJournalLockedExit;
      if (now > w.progress || lock_busy)
        w.fruitless = 0;
      else
        ++w.fruitless;
      DIMMER_REQUIRE(
          w.fruitless < opt_.max_fruitless_deaths,
          "campaign: shard " + std::to_string(s) + " died " +
              std::to_string(w.fruitless) +
              " times in a row without making progress — giving up");
      // Deterministic exponential backoff with pure-hash jitter: the RNG
      // streams trials draw from are never touched by supervision.
      const int exponent = w.deaths > 16 ? 16 : w.deaths;
      const double jitter =
          0.5 + util::pure_uniform(util::hash_u64(
                    kMasterSeed, static_cast<std::uint64_t>(s),
                    static_cast<std::uint64_t>(w.deaths)));
      w.respawn_at = clock.seconds() + opt_.retry_backoff_s *
                                           std::ldexp(1.0, exponent - 1) *
                                           jitter;
      // Persist supervision counters so even a killed-then-resumed campaign
      // reports cumulative deaths. Specs never change; atomic rename means
      // workers re-reading the checkpoint see old or new, both valid.
      util::write_file_atomic(ck_path,
                              checkpoint_json(opt_, specs, digest, ctr));
    }
    maybe_abort();
    util::sleep_seconds(0.002);
  }

  // Merge: journals -> trials in spec order, digest-verified.
  std::vector<JournalReplay> replays;
  replays.reserve(static_cast<std::size_t>(opt_.shards));
  for (int s = 0; s < opt_.shards; ++s)
    replays.push_back(replay_journal(shard_journal_path(opt_.dir, s)));
  report.trials.resize(specs.size());
  std::size_t failed = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JournalReplay& rep =
        replays[static_cast<std::size_t>(shard_of(i, opt_.shards))];
    const auto it = rep.records.find(i);
    DIMMER_REQUIRE(it != rep.records.end(),
                   "campaign: trial " + std::to_string(i) +
                       " missing from its shard journal after completion");
    DIMMER_REQUIRE(it->second.digest == spec_digest(specs[i]),
                   "campaign: journal digest mismatch for trial " +
                       std::to_string(i) +
                       " — directory belongs to a different spec matrix");
    if (it->second.failed) ++failed;
    report.trials[i].spec = specs[i];
    report.trials[i].result = it->second.result;
  }

  std::size_t final_records = 0;
  for (const JournalReplay& rep : replays) final_records += rep.records.size();
  ctr.counter("campaign.trials_run") += final_records - records_at_start;
  // Absolute (not incremental) counters, recomputed from the on-disk truth:
  // attempts sidecars and failed records persist across resumes.
  std::uint64_t retries = 0;
  for (int s = 0; s < opt_.shards; ++s) {
    const AttemptsReplay att =
        replay_attempts(shard_attempts_path(opt_.dir, s));
    for (const auto& [trial, n] : att.attempts)
      if (n > 1) retries += static_cast<std::uint64_t>(n - 1);
  }
  ctr.counter("campaign.retries") = retries;
  ctr.counter("campaign.trials_failed") = failed;

  util::write_file_atomic(ck_path, checkpoint_json(opt_, specs, digest, ctr));
  return report;
}

}  // namespace dimmer::exp
