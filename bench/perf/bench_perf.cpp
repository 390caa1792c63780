// bench_perf — end-to-end and per-layer performance of the Dimmer simulator
// on four sweep workloads (bench/perf/README.md).
//
//   bench_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --data <dir> [--batches <n>]
//
// Run it from an empty directory: batches write their BENCH_perf_*.json
// (and, for the campaign workload, journal directories) into the working
// directory, and the run leaves result.json there. `--data` is the
// directory holding dimmer_dqn.mlp and expected_digests.json. `--batches`
// (smoke tests only) runs exactly that many timed batches instead of
// timing for --seconds.
//
// A run: set-up kSetups times (policy load, shared inputs, one untraced
// warm-up trial per trial shape; the median is setup_s), batches back to
// back until --seconds have passed, then the golden batch — batch 0 at the
// committed default seed — whose digest over exp::to_json(..., timing
// excluded) must equal expected_digests.json. With --trace 1 every other
// batch runs traced (probe.hpp) and the flood replay runs; the untraced
// batches in between give obs.trace_overhead.
//
// stdout's last line is {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced, the per-layer metrics traced. A table of
// every metric goes to stderr. Exit 0 when correct, 1 when an output is
// wrong or a trial failed, 2 (without a result line) on bad arguments,
// unreadable inputs or any other error.
//
// The harness reads no environment variable: parallelism, deadlines and
// paths are all explicit.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/perf/probe.hpp"
#include "bench/perf/workloads.hpp"
#include "core/features.hpp"
#include "exp/campaign.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "exp/serialize.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "rl/mlp.hpp"
#include "tests/flood/reference_glossy.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/simd/simd.hpp"
#include "util/stats.hpp"
#include "util/wallclock.hpp"

using namespace dimmer;
using perf::Span;

namespace {

constexpr int kWorkers = 2;           // pool threads / campaign shards
constexpr int kSetups = 3;            // set-up repetitions (median reported)
// Per-trial watchdog off, as in the engines' default: its thread's
// shutdown waits out a 50 ms poll tick at the end of every sweep, which
// would quantize batch times. run.py's deadline bounds a hung run instead.
constexpr double kTrialTimeoutS = 0.0;
constexpr std::uint64_t kWarmupRun = 1ULL << 40;  // run index of warm-ups
constexpr std::uint64_t kReplaySeed = 0xF100DULL;
constexpr int kReplayPasses = 5;

/// Bad argument or unreadable input: exit 2, no result line.
struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data;
  std::uint64_t batches = 0;  ///< 0 = time-limited
};

template <typename T>
bool parse_number(const std::string& s, T& out) {
  const char* end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && p == end && !s.empty();
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw InputError("expected --key value pairs, got '" + key + "'");
    if (!kv.emplace(key.substr(2), argv[i + 1]).second)
      throw InputError("flag " + key + " given twice");
  }
  for (const auto& [k, v] : kv) {
    bool ok = true;
    if (k == "workload") {
      a.workload = v;
      ok = perf::make_workload(v) != nullptr;
    } else if (k == "seed") {
      ok = parse_number(v, a.seed);
    } else if (k == "seconds") {
      ok = parse_number(v, a.seconds) && std::isfinite(a.seconds) &&
           a.seconds > 0.0 && a.seconds <= 3600.0;
    } else if (k == "trace") {
      ok = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (k == "data") {
      a.data = v;
    } else if (k == "batches") {
      ok = parse_number(v, a.batches) && a.batches >= 1 && a.batches <= 1000;
    } else {
      throw InputError("unknown flag --" + k);
    }
    if (!ok) throw InputError("bad value for --" + k + ": '" + v + "'");
  }
  if (a.workload.empty() || a.data.empty())
    throw InputError("--workload and --data are required");
  return a;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw InputError("cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// The committed policy. Missing, corrupt or mis-shaped is fatal: retraining
/// here would silently move ~100 s into set-up.
rl::Mlp load_policy(const std::string& path) {
  std::istringstream is(slurp(path));
  rl::Mlp net = [&] {
    try {
      return rl::Mlp::load(is);
    } catch (const std::exception& e) {
      throw InputError(path + ": " + e.what());
    }
  }();
  is >> std::ws;
  const int inputs = core::FeatureBuilder(core::FeatureConfig{}).input_size();
  if (!is.eof() || net.input_size() != inputs || net.output_size() != 3)
    throw InputError(path + ": not the deployed " + std::to_string(inputs) +
                     "-input, 3-action policy");
  return net;
}

struct Expected {
  std::uint64_t seed = 0;
  std::string digest;  ///< empty when the workload has none committed
};

Expected load_expected(const std::string& path, const std::string& workload) {
  Expected e;
  try {
    const util::json::Value doc = util::json::parse(slurp(path));
    const std::string& backend = doc.at("backend").as_string();
    if (backend != util::simd::backend_name())
      throw InputError(path + " holds digests for the " + backend +
                       " backend, this build is " +
                       util::simd::backend_name());
    e.seed = doc.at("seed").as_u64();
    if (const util::json::Value* d = doc.at("digests").find(workload))
      e.digest = d->as_string();
  } catch (const InputError&) {
    throw;
  } catch (const std::exception& ex) {
    throw InputError(path + ": " + ex.what());
  }
  return e;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : util::percentile(v, p);
}

double median(const std::vector<double>& v) { return pct(v, 50.0); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// CPU seconds (user + system) this process and its reaped children (the
/// campaign's shard workers) have used so far. The rates are per CPU
/// second, not per wall second: on a shared machine the wall clock also
/// measures how many cores the neighbours left free, while the CPU time a
/// sweep costs is a property of the code. Reporting only.
double process_cpu_seconds() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(self.ru_utime) + sec(self.ru_stime) + sec(children.ru_utime) +
         sec(children.ru_stime);
}

// ---- the in-run reference ---------------------------------------------------

// A fixed floating-point and table-gather loop that shares no code with the
// simulator, so no change to src/ can change its speed. Its CPU time, taken
// before and after every set-up and every batch on as many threads as the
// pool, tracks how fast this machine runs at that moment (clock frequency,
// co-tenants contending for cores and caches). Scaling a phase's CPU time by
// the passes around it turns CPU seconds into reference seconds: CPU seconds
// at the kernel's nominal speed.
constexpr int kReferenceIters = 1500000;
/// One pass's CPU time on the machine the baseline in README.md was taken
/// on; it only fixes the scale of reference seconds.
constexpr double kReferenceNominalS = 0.028;

const std::vector<double>& reference_table() {
  static const std::vector<double> table = [] {
    std::vector<double> t(std::size_t{1} << 15);  // 256 KiB
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = std::sin(static_cast<double>(i));
    return t;
  }();
  return table;
}

double reference_pass() {
  const std::vector<double>& table = reference_table();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (int i = 0; i < kReferenceIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    const double v = table[x & (table.size() - 1)];
    acc += std::exp(-3.0 * u) * v + std::log1p(u) - std::sqrt(u + v * v);
  }
  return acc;
}

/// CPU seconds of one reference pass, run on kWorkers threads at once.
double reference_cpu_s() {
  std::vector<double> acc(kWorkers);
  const double cpu0 = process_cpu_seconds();
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w)
    threads.emplace_back([&acc, w] { acc[static_cast<std::size_t>(w)] = reference_pass(); });
  for (std::thread& t : threads) t.join();
  const double per_pass = (process_cpu_seconds() - cpu0) / kWorkers;
  // Every pass computes the same value; checking it keeps the loop alive.
  if (std::adjacent_find(acc.begin(), acc.end(), std::not_equal_to<>()) !=
      acc.end())
    throw std::runtime_error("reference kernel is not deterministic");
  return per_pass;
}

// ---- batches ----------------------------------------------------------------

struct Batch {
  std::vector<exp::Trial> trials;
  double sweep_s = 0.0;  ///< Runner::run / Campaign::run, wall
  double json_s = 0.0;   ///< exp::write_json, wall
  double sweep_cpu_s = 0.0;
  double json_cpu_s = 0.0;
  bool json_ok = false;
  double rounds = 0.0;   ///< simulated rounds of ok trials
  double trial_s = 0.0;  ///< sum of per-trial wall time
  std::size_t failed = 0;
};

/// Runs `specs` through exp::Campaign in `dir` when `campaign`, else
/// through the exp::Runner pool. A non-null `ledger` makes every trial a
/// traced one (Runner only: campaign trials run in forked shards, so their
/// in-process spans would be lost).
Batch run_batch(const perf::Workload& wl, const std::string& name,
                std::vector<exp::TrialSpec> specs, const std::string& dir,
                bool campaign, perf::Ledger* ledger, std::mutex& mu) {
  const exp::TrialFn fn = [&wl, ledger, &mu](const exp::TrialSpec& s,
                                             util::Pcg32&) {
    if (ledger == nullptr) return wl.trial(s, nullptr);
    perf::SpanClock clock;
    exp::TrialResult r = wl.trial(s, &clock);
    clock.finish_into(*ledger, mu);
    return r;
  };
  Batch b;
  const double cpu0 = process_cpu_seconds();
  util::Stopwatch sw;
  if (campaign) {
    exp::CampaignOptions opt;
    opt.dir = dir;
    opt.shards = kWorkers;
    opt.max_attempts = 1;  // a crashed trial is a failure, not a retry
    opt.retry_backoff_s = 0.05;
    opt.trial_timeout_s = kTrialTimeoutS;
    opt.max_fruitless_deaths = 3;
    b.trials = exp::Campaign(opt).run(specs, fn).trials;
  } else {
    exp::Runner::Options opt;
    opt.jobs = kWorkers;
    opt.trial_timeout_s = kTrialTimeoutS;
    b.trials = exp::Runner(opt).run(std::move(specs), fn);
  }
  b.sweep_s = sw.seconds();
  const double cpu1 = process_cpu_seconds();
  b.sweep_cpu_s = cpu1 - cpu0;
  sw.reset();
  b.json_ok = exp::write_json(
      "perf_" + name, b.trials,
      {.include_timing = true, .jobs = kWorkers, .wall_seconds = b.sweep_s});
  b.json_s = sw.seconds();
  b.json_cpu_s = process_cpu_seconds() - cpu1;
  for (const exp::Trial& t : b.trials) {
    b.trial_s += t.result.wall_seconds;
    if (!t.result.ok) {
      ++b.failed;
      std::cerr << "[perf] trial " << t.spec.scenario << " seed "
                << t.spec.seed << " failed: " << t.result.error << "\n";
    } else {
      b.rounds += t.result.metrics.at("rounds");
    }
  }
  return b;
}

std::uint64_t digest_of(const std::string& name,
                        const std::vector<exp::Trial>& trials) {
  return exp::fnv1a64(
      exp::to_json("perf_" + name, trials, {.include_timing = false}));
}

std::uint64_t dir_bytes(const std::string& dir, const std::string& prefix) {
  std::uint64_t n = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    const std::string fn = f.path().filename().string();
    if (f.is_regular_file() && fn.rfind(prefix, 0) == 0 &&
        f.path().extension() == ".jsonl" &&
        fn.find("attempts") == std::string::npos)
      n += f.file_size();
  }
  return n;
}

// ---- flood replay -----------------------------------------------------------

struct Replay {
  double engine_s = 0.0;
  double reference_s = 0.0;
  long long steps = 0;
  bool identical = true;
};

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

/// The workload's replay floods (every node forwarding, N_TX 3) through
/// GlossyFlood::run_into and through the frozen reference loop, each from
/// the same RNG seed; the digests of the two result streams must agree.
/// The two alternate kReplayPasses times and each keeps its fastest pass,
/// so a co-tenant that slows one pass does not skew the ratio.
Replay replay_floods(const perf::FloodReplay& fr) {
  const int n = fr.topo->size();
  const std::vector<flood::NodeFloodConfig> cfgs(
      static_cast<std::size_t>(n), flood::NodeFloodConfig{3, true});
  auto params = [&fr](int k) {
    flood::FloodParams p;
    p.slot_start_us = fr.first_slot_us + k * sim::ms(25);
    return p;
  };
  flood::GlossyFlood engine(*fr.topo, *fr.field);
  flood::FloodWorkspace ws;
  flood::FloodResult out;
  {  // warm the link matrix, the workspace and both code paths
    util::Pcg32 rng(kReplaySeed);
    engine.run_into(0, cfgs, params(0), rng, ws, out);
    (void)flood::reference::run(*fr.topo, *fr.field, 0, cfgs, params(0), rng);
  }
  Replay r;
  r.engine_s = r.reference_s = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    std::uint64_t d_engine = 0, d_ref = 0;
    r.steps = 0;
    util::Pcg32 rng(kReplaySeed);
    util::Stopwatch sw;
    for (int k = 0; k < fr.floods; ++k) {
      engine.run_into(k % n, cfgs, params(k), rng, ws, out);
      r.steps += out.steps_simulated;
      d_engine = fold(d_engine, out);
    }
    r.engine_s = std::min(r.engine_s, sw.seconds());
    rng = util::Pcg32(kReplaySeed);
    sw.reset();
    for (int k = 0; k < fr.floods; ++k)
      d_ref = fold(d_ref, flood::reference::run(*fr.topo, *fr.field, k % n,
                                                cfgs, params(k), rng));
    r.reference_s = std::min(r.reference_s, sw.seconds());
    r.identical = r.identical && d_engine == d_ref;
  }
  return r;
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mib() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i)
    s += (i ? ", " : "") + util::json_quote(ms[i].name) +
         ": {\"value\": " + util::json_number(ms[i].value) +
         ", \"unit\": " + util::json_quote(ms[i].unit) + "}";
  return s + "}}";
}

int run(const Args& a) {
  const std::string name = a.workload;
  const Expected expected =
      load_expected(a.data + "/expected_digests.json", name);

  std::mutex mu;
  std::size_t attempted = 0, failed = 0;
  bool json_ok = true;
  auto tally = [&](const Batch& b) {
    attempted += b.trials.size();
    failed += b.failed;
    json_ok = json_ok && b.json_ok;
  };

  // Reference seconds per CPU second of the phase that just ended. A
  // slow-down that covers the whole phase shows in the passes on both sides
  // of it, one that starts or ends inside it in only one, so the faster
  // pass is the one to scale by.
  std::vector<double> ref_s = {reference_cpu_s()};
  auto to_reference = [&ref_s] {
    const double before = ref_s.back();
    ref_s.push_back(reference_cpu_s());
    return kReferenceNominalS / std::min(before, ref_s.back());
  };

  // Set-up, repeated: every repetition starts from a fresh workload,
  // re-reads the policy, rebuilds the shared inputs and warms up with one
  // untraced trial per trial shape.
  std::unique_ptr<perf::Workload> wl;
  std::vector<double> setup_s, topo_ms;
  for (int i = 0; i < kSetups; ++i) {
    const double cpu0 = process_cpu_seconds();
    const rl::Mlp policy = load_policy(a.data + "/dimmer_dqn.mlp");
    wl = perf::make_workload(name);
    topo_ms.push_back(wl->build(policy) * 1e3);
    std::vector<exp::TrialSpec> warm;
    for (int v = 0; v < wl->variants(); ++v)
      warm.push_back(wl->spec(a.seed, v, kWarmupRun));
    tally(run_batch(*wl, name, std::move(warm),
                    "campaign-warmup-" + std::to_string(i), wl->campaign(),
                    nullptr, mu));
    const double cpu_s = process_cpu_seconds() - cpu0;
    setup_s.push_back(cpu_s * to_reference());
    std::fprintf(stderr, "[perf] set-up %d: %.4f cpu-s, reference pass %.4f cpu-s\n",
                 i, cpu_s, ref_s.back());
  }

  // Timed closed loop. With --trace 1, even batches are traced.
  perf::Ledger ledger;
  std::vector<double> rounds_rate[2], trials_rate[2], json_ms, trial_s;
  double busy_s = 0.0, busy_rounds = 0.0, pool_s = 0.0;
  std::string last_dir;
  std::vector<exp::TrialSpec> last_specs;
  const util::Stopwatch timed;
  for (std::uint64_t i = 0;
       a.batches > 0 ? i < a.batches : (i < 2 || timed.seconds() < a.seconds);
       ++i) {
    const bool traced = a.trace && i % 2 == 0;
    std::vector<exp::TrialSpec> specs = wl->batch(a.seed, i);
    if (wl->campaign() && !last_dir.empty())
      std::filesystem::remove_all(last_dir);
    last_dir = "campaign-" + std::to_string(i);
    last_specs = specs;
    const Batch b =
        run_batch(*wl, name, std::move(specs), last_dir, wl->campaign(),
                  traced && !wl->campaign() ? &ledger : nullptr, mu);
    tally(b);
    const double scale = to_reference();
    rounds_rate[traced].push_back(b.rounds / (b.sweep_cpu_s * scale));
    trials_rate[traced].push_back(static_cast<double>(b.trials.size()) /
                                  ((b.sweep_cpu_s + b.json_cpu_s) * scale));
    std::fprintf(stderr,
                 "[perf] batch %llu%s: %zu trials, %.3f s wall, %.3f cpu-s, "
                 "%.6g rounds/cpu-s, reference pass %.4f cpu-s\n",
                 static_cast<unsigned long long>(i), traced ? " traced" : "",
                 b.trials.size(), b.sweep_s, b.sweep_cpu_s,
                 b.rounds / b.sweep_cpu_s, ref_s.back());
    if (traced || !a.trace) {
      json_ms.push_back(b.json_s * 1e3);
      for (const exp::Trial& t : b.trials)
        trial_s.push_back(t.result.wall_seconds);
      busy_s += b.trial_s;
      busy_rounds += b.rounds;
      pool_s += kWorkers * b.sweep_s;
    }
  }

  // Golden batch: the committed default seed, traced in a traced run, so
  // its digest also proves traced == untraced.
  perf::Ledger golden_ledger;
  const Batch golden = run_batch(
      *wl, name, wl->batch(expected.seed, 0), "campaign-golden",
      wl->campaign(), a.trace && !wl->campaign() ? &golden_ledger : nullptr,
      mu);
  tally(golden);
  const std::string digest = hex(digest_of(name, golden.trials));
  const bool digest_ok = digest == expected.digest;
  if (!digest_ok)
    std::cerr << "[perf] golden digest " << digest << " != expected '"
              << expected.digest << "' (" << name << ", seed "
              << expected.seed << ", " << util::simd::backend_name()
              << " backend); see bench/perf/README.md\n";
  if (!json_ok) std::cerr << "[perf] exp::write_json failed\n";

  std::vector<Metric> e2e = {
      {"rounds_per_s", median(rounds_rate[0]), "rounds/ref-s"},
      {"trials_per_s", median(trials_rate[0]), "trials/ref-s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };

  bool replay_ok = true;
  std::vector<Metric> layers;
  if (a.trace) {
    const Replay rp = replay_floods(wl->replay());
    replay_ok = rp.identical;
    if (!replay_ok)
      std::cerr << "[perf] flood replay: engine and reference disagree\n";

    double journal_bytes = 0.0, replay_ms = 0.0, vs_runner = 0.0;
    if (wl->campaign()) {
      // The last batch's finished directory: a second Campaign::run only
      // replays its journals; the same specs through the Runner pool give
      // the engine comparison.
      const double n = static_cast<double>(last_specs.size());
      journal_bytes = static_cast<double>(dir_bytes(last_dir, "shard_")) / n;
      const Batch replayed =
          run_batch(*wl, name, last_specs, last_dir, true, nullptr, mu);
      const Batch fresh = run_batch(*wl, name, last_specs, last_dir + "-fresh",
                                    true, nullptr, mu);
      const Batch pooled =
          run_batch(*wl, name, last_specs, "", false, nullptr, mu);
      for (const Batch* b : {&replayed, &fresh, &pooled}) tally(*b);
      replay_ms = replayed.sweep_s * 1e3 / n;
      vs_runner = ratio(fresh.sweep_s, pooled.sweep_s);
      std::filesystem::remove_all(last_dir + "-fresh");
    }

    const perf::Ledger& L = ledger;
    const double T = L.trial_s;
    layers = {
        {"flood.busy_share", ratio(L.span(Span::kFlood), T), "share"},
        {"flood.ns_per_step",
         ratio(rp.engine_s * 1e9, static_cast<double>(rp.steps)), "ns"},
        {"flood.speedup_vs_reference", ratio(rp.reference_s, rp.engine_s),
         "x"},
        {"flood.steps_per_flood",
         ratio(static_cast<double>(L.flood_steps),
               static_cast<double>(L.flood_runs)),
         "steps"},
        {"flood.rx_per_tx",
         ratio(static_cast<double>(L.flood_receivers),
               static_cast<double>(L.flood_transmissions)),
         "ratio"},
        {"core.round_us.p50", pct(L.round_us, 50), "us"},
        {"core.round_us.p99", pct(L.round_us, 99), "us"},
        {"core.bookkeeping_share", ratio(L.span(Span::kBookkeeping), T),
         "share"},
        {"core.controller.decide_us.p50", pct(L.decide_us, 50), "us"},
        {"core.controller.decide_share", ratio(L.decide_s, T), "share"},
        {"core.forwarder_share", ratio(L.span(Span::kForwarder), T), "share"},
        {"core.federation.epoch_ms.p50", pct(L.epoch_ms, 50), "ms"},
        {"core.federation.epoch_ms.p99", pct(L.epoch_ms, 99), "ms"},
        {"core.federation.barrier_share", ratio(L.span(Span::kBarrier), T),
         "share"},
        {"lwb.executor_share", ratio(L.span(Span::kLwbExecutor), T), "share"},
        {"lwb.scheduler_share", ratio(L.span(Span::kLwbScheduler), T),
         "share"},
        {"baselines.crystal_share", ratio(L.crystal_s, T), "share"},
        {"rl.eval_us_per_step",
         wl->campaign() ? ratio(busy_s * 1e6, busy_rounds) : 0.0, "us"},
        {"phy.topology_build_ms", median(topo_ms), "ms"},
        {"exp.trial_s.p50", pct(trial_s, 50), "s"},
        {"exp.trial_s.p90", pct(trial_s, 90), "s"},
        {"exp.pool_busy_share", ratio(busy_s, pool_s), "share"},
        {"exp.write_json_ms", median(json_ms), "ms"},
        {"exp.journal_bytes_per_trial", journal_bytes, "bytes"},
        {"exp.replay_ms_per_trial", replay_ms, "ms"},
        {"exp.campaign_vs_runner", vs_runner, "x"},
        // Campaign trials run untraced in forked shards: nothing to compare.
        {"obs.trace_overhead",
         wl->campaign() || rounds_rate[0].empty() || rounds_rate[1].empty()
             ? 0.0
             : 1.0 - median(rounds_rate[1]) / median(rounds_rate[0]),
         "share"},
    };
  }

  const bool correct = failed == 0 && digest_ok && json_ok && replay_ok;
  const std::vector<Metric>& out = a.trace ? layers : e2e;

  std::cerr << "[perf] " << name << " seed " << a.seed << (a.trace ? " traced" : "")
            << ": " << attempted << " trials, " << failed << " failed, "
            << "golden digest " << digest << (digest_ok ? " ok" : " MISMATCH")
            << ", " << util::simd::backend_name() << " backend, nproc "
            << std::thread::hardware_concurrency() << "\n";
  for (const std::vector<Metric>* ms : {&e2e, &layers})
    for (const Metric& m : *ms) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-34s %16.6g %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
      std::cerr << line;
    }

  const std::string result = result_json(correct, attempted, failed, out);
  {
    std::ofstream f("result.json");
    f << "{\"workload\": " << util::json_quote(name) << ", \"seed\": " << a.seed
      << ", \"trace\": " << (a.trace ? 1 : 0)
      << ", \"backend\": " << util::json_quote(util::simd::backend_name())
      << ", \"golden_digest\": " << util::json_quote(digest)
      << ", \"expected_digest\": " << util::json_quote(expected.digest)
      << ", \"reference_pass_cpu_s\": " << util::json_number(median(ref_s))
      << ", \"result\": " << result << "}\n";
  }
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "bench_perf: " << e.what() << "\n";
    return 2;
  }
}
