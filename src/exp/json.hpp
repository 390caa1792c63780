// Structured JSON metrics for bench sweeps (BENCH_<name>.json).
//
// Every converted bench emits one machine-readable file next to its table
// output so the repo has a measurable perf/quality trajectory: per-trial
// metrics, per-trial sample distributions, trajectories, and per-scenario
// aggregates (merged with RunningStats::merge). Wall-clock fields are opt-in
// (JsonOptions::include_timing); only bench/perf writes them.
//
// Schema (schema_version 1):
//   {
//     "bench": "<name>", "schema_version": 1,
//     "jobs": N, "wall_seconds": W,            // only with include_timing
//     "trials": [
//       { "scenario": "...", "seed": S,
//         "params": {"k": 1.5, ...}, "tags": {"k": "v", ...},
//         "ok": true,                          // "error": "..." when false
//         "metrics": {"reliability": 0.993, ...},
//         "stats":  {"reliability": {"count": n, "mean": m, "stddev": s,
//                                    "min": lo, "max": hi}, ...},
//         "series": {"n_tx": [3, 4, ...], ...},
//         "wall_seconds": w }                  // only with include_timing
//     ],
//     "aggregates": {
//       "<scenario>": { "trials": n,
//                       "metrics": {"<m>": {summary-across-trials}},
//                       "stats":   {"<k>": {merge-across-trials}} }
//     },
//     "metrics": {                              // omitted when empty
//       "counters":   {"<name>": n, ...},       // merged across ok trials in
//       "gauges":     {"<name>": v, ...},       //   spec order (bit-identical
//       "histograms": {"<name>": {...}, ...}    //   for any job count)
//     }
//   }
//
// Doubles are printed with "%.17g" (round-trip exact); the serialization is
// deterministic, so two runs of the same sweep — at any job count — yield
// byte-identical files.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace dimmer::exp {

struct JsonOptions {
  /// Include jobs + wall-clock fields. Off by default, so the output is
  /// byte-comparable across runs, job counts and shard counts.
  bool include_timing = false;
  int jobs = 0;
  double wall_seconds = 0.0;
  /// Directory write_json writes BENCH_<bench>.json into; to_json ignores it.
  std::string dir = ".";
};

/// Serialize a finished sweep.
std::string to_json(const std::string& bench, const std::vector<Trial>& trials,
                    const JsonOptions& opt = {});

/// Serialize and write to <opt.dir>/BENCH_<bench>.json; logs the path to
/// `log` if given. Returns false (after printing to stderr) if the file
/// cannot be written. It never throws, so a finished sweep is never aborted:
/// a caller prints its tables first, then turns false into a failing exit
/// status.
[[nodiscard]] bool write_json(const std::string& bench,
                              const std::vector<Trial>& trials,
                              const JsonOptions& opt = {},
                              std::ostream* log = nullptr);

}  // namespace dimmer::exp
