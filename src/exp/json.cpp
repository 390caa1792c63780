#include "exp/json.hpp"

#include <iostream>
#include <ostream>
#include <sstream>

#include "exp/runner.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace dimmer::exp {
namespace {

// Shared deterministic serialization helpers (same ones obs:: uses, so the
// bench JSON and the trace JSONL render numbers identically).
using util::json_number;
using util::json_quote;

std::string fmt(double v) { return json_number(v); }
std::string quote(const std::string& s) { return json_quote(s); }

void emit_stats(std::ostringstream& os, const util::RunningStats& s) {
  os << "{\"count\": " << s.count() << ", \"mean\": " << fmt(s.mean())
     << ", \"stddev\": " << fmt(s.stddev()) << ", \"min\": " << fmt(s.min())
     << ", \"max\": " << fmt(s.max()) << "}";
}

template <typename Map, typename EmitValue>
void emit_object(std::ostringstream& os, const Map& m, EmitValue&& ev) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ", ";
    first = false;
    os << quote(k) << ": ";
    ev(v);
  }
  os << "}";
}

}  // namespace

std::string to_json(const std::string& bench, const std::vector<Trial>& trials,
                    const JsonOptions& opt) {
  std::ostringstream os;
  os << "{\n  \"bench\": " << quote(bench) << ",\n  \"schema_version\": 1";
  if (opt.include_timing) {
    os << ",\n  \"jobs\": " << opt.jobs
       << ",\n  \"wall_seconds\": " << fmt(opt.wall_seconds);
  }
  os << ",\n  \"trials\": [";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"scenario\": " << quote(t.spec.scenario)
       << ", \"seed\": " << t.spec.seed;
    if (!t.spec.params.empty()) {
      os << ", \"params\": ";
      emit_object(os, t.spec.params, [&](double v) { os << fmt(v); });
    }
    if (!t.spec.tags.empty()) {
      os << ", \"tags\": ";
      emit_object(os, t.spec.tags, [&](const std::string& v) { os << quote(v); });
    }
    // Additive, optional key: fault-free benches render byte-identically to
    // builds that predate the fault subsystem.
    if (!t.spec.fault_plan.empty())
      os << ", \"fault_events\": " << t.spec.fault_plan.size();
    os << ", \"ok\": " << (t.result.ok ? "true" : "false");
    if (!t.result.ok) os << ", \"error\": " << quote(t.result.error);
    os << ",\n     \"metrics\": ";
    emit_object(os, t.result.metrics, [&](double v) { os << fmt(v); });
    if (!t.result.stats.empty()) {
      os << ",\n     \"stats\": ";
      emit_object(os, t.result.stats,
                  [&](const util::RunningStats& s) { emit_stats(os, s); });
    }
    if (!t.result.series.empty()) {
      os << ",\n     \"series\": ";
      emit_object(os, t.result.series, [&](const std::vector<double>& v) {
        os << "[";
        for (std::size_t j = 0; j < v.size(); ++j)
          os << (j ? ", " : "") << fmt(v[j]);
        os << "]";
      });
    }
    if (opt.include_timing)
      os << ", \"wall_seconds\": " << fmt(t.result.wall_seconds);
    os << "}";
  }
  os << "\n  ],\n  \"aggregates\": {";

  // Scenario groups in first-appearance order (deterministic: spec order).
  std::vector<std::string> scenarios;
  for (const Trial& t : trials) {
    bool seen = false;
    for (const std::string& s : scenarios) seen = seen || s == t.spec.scenario;
    if (!seen) scenarios.push_back(t.spec.scenario);
  }
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const std::string& sc = scenarios[si];
    std::size_t n_ok = 0;
    std::map<std::string, util::RunningStats> metric_acc;
    std::map<std::string, util::RunningStats> stat_acc;
    for (const Trial& t : trials) {
      if (t.spec.scenario != sc || !t.result.ok) continue;
      ++n_ok;
      for (const auto& [k, v] : t.result.metrics) metric_acc[k].add(v);
      for (const auto& [k, s] : t.result.stats) stat_acc[k].merge(s);
    }
    os << (si ? ",\n    " : "\n    ");
    os << quote(sc) << ": {\"trials\": " << n_ok;
    if (!metric_acc.empty()) {
      os << ", \"metrics\": ";
      emit_object(os, metric_acc,
                  [&](const util::RunningStats& s) { emit_stats(os, s); });
    }
    if (!stat_acc.empty()) {
      os << ", \"stats\": ";
      emit_object(os, stat_acc,
                  [&](const util::RunningStats& s) { emit_stats(os, s); });
    }
    os << "}";
  }
  os << "\n  }";

  // Structured metrics merged across ok trials in spec order (bit-identical
  // for any job count). Additive, optional key: absent when no trial
  // recorded anything, so benches without instrumentation are unchanged.
  obs::MetricsRegistry merged = merged_metrics(trials);
  if (!merged.empty()) os << ",\n  \"metrics\": " << merged.to_json();
  os << "\n}\n";
  return os.str();
}

bool write_json(const std::string& bench, const std::vector<Trial>& trials,
                const JsonOptions& opt, std::ostream* log) {
  const std::string path =
      (opt.dir.empty() || opt.dir.back() == '/' ? opt.dir : opt.dir + '/') +
      "BENCH_" + bench + ".json";
  try {
    // Atomic replacement (util/atomic_file.hpp): a bench killed mid-write
    // leaves the previous BENCH_*.json intact, never a truncated artifact.
    util::write_file_atomic(path, to_json(bench, trials, opt));
  } catch (const std::exception& e) {
    // Recorded, not swallowed: printed here and returned as false, which
    // callers turn into a failing exit status after their tables.
    std::cerr << "[exp] ERROR: cannot write " << path << ": " << e.what()
              << "\n";
    return false;
  }
  if (log) *log << "[exp] wrote " << path << "\n";
  return true;
}

}  // namespace dimmer::exp
