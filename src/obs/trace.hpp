// Structured per-round tracing.
//
// Dimmer's coordinator steers the network from two aggregate signals; when a
// sweep misbehaves, aggregates are exactly what you cannot debug with. The
// trace layer records *why* each decision was made: one TraceEvent per
// scheduler/controller/bandit/flood step, emitted into a TraceSink.
//
// The default is no sink at all. Every instrumented component holds an
// Instrumentation value (two raw pointers, both null by default) and guards
// each emission site with a pointer check, so with tracing off the hot paths
// pay one predictable branch — bench/perf's obs.trace_overhead measures
// what an attached sink costs, and the integration tests assert that tracing
// never perturbs simulation results (sinks observe, they do not touch RNG
// streams or control flow).
//
// Event kinds and their fields are documented in DESIGN.md ("Observability").
// JSONL wire format (one event per line):
//   {"event": "<kind>", "round": R, "t_us": T, "node": N,
//    "fields": {"<k>": <number>, ...}, "tags": {"<k>": "<v>", ...}}
// `node` is -1 for network-wide events; "fields"/"tags" are omitted when
// empty. Doubles use "%.17g", so lines are deterministic given event order.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace dimmer::obs {

struct TraceEvent {
  std::string kind;        ///< e.g. "flood", "round", "controller", "exp3"
  std::uint64_t round = 0; ///< round / step / decision index of the emitter
  std::int64_t t_us = 0;   ///< simulation time, when the emitter has one
  int node = -1;           ///< node id; -1 = network-wide
  std::vector<std::pair<std::string, double>> fields;
  std::vector<std::pair<std::string, std::string>> tags;

  /// Builder-style append (numeric field / string tag).
  TraceEvent& f(std::string key, double value) {
    fields.emplace_back(std::move(key), value);
    return *this;
  }
  TraceEvent& tag(std::string key, std::string value) {
    tags.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// One JSONL line (no trailing newline).
  std::string to_jsonl() const;
};

/// Where instrumented components emit events. Implementations must not throw
/// out of emit() on the hot path and must not mutate the event.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& e) = 0;
};

/// Bounded in-memory sink: keeps the most recent `capacity` events, dropping
/// the oldest beyond that (dropped() counts the casualties). Single-threaded,
/// like the per-trial registries.
class RingBufferSink : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void emit(const TraceEvent& e) override;

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const;
  std::size_t size() const { return buf_.size(); }
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const {
    return total_ - static_cast<std::uint64_t>(buf_.size());
  }
  void clear();

 private:
  std::size_t cap_;
  std::size_t head_ = 0;  ///< index of the oldest event once full
  std::uint64_t total_ = 0;
  std::vector<TraceEvent> buf_;
};

/// Appends one JSONL line per event to a file. Thread-safe: parallel trials
/// of one sweep may share a single file sink (lines from different trials
/// interleave in schedule order, but every line is complete and valid —
/// tag trials via TaggedSink to tell them apart).
///
/// Write failures (disk full, pipe closed) degrade gracefully: the sink
/// stops writing, counts every subsequent event in dropped(), and never
/// throws from emit() or the destructor — tracing is observability, and
/// observability must not take the simulation down with it.
class JsonlFileSink : public TraceSink {
 public:
  /// Throws util::RequireError if the file cannot be opened for writing.
  explicit JsonlFileSink(const std::string& path);
  /// Writes to a caller-supplied stream instead of a file (tests inject
  /// failing streams this way). The stream must not be null.
  JsonlFileSink(std::unique_ptr<std::ostream> out, std::string label);

  void emit(const TraceEvent& e) override;

  std::uint64_t lines() const { return lines_; }
  /// True once a write has failed; all later events are dropped.
  bool failed() const { return failed_; }
  /// Events discarded because the underlying stream failed.
  std::uint64_t dropped() const { return dropped_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream file_;
  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_ = nullptr;
  std::mutex mu_;
  std::uint64_t lines_ = 0;
  std::uint64_t dropped_ = 0;
  bool failed_ = false;
};

/// Forwards to a parent sink with a fixed tag appended to every event (e.g.
/// the trial scenario, when parallel trials share one JSONL file).
class TaggedSink : public TraceSink {
 public:
  TaggedSink(TraceSink* parent, std::string key, std::string value);

  void emit(const TraceEvent& e) override;

 private:
  TraceSink* parent_;
  std::string key_, value_;
};

/// What instrumented components carry: an optional event sink and an
/// optional metrics registry. Default-constructed = fully off; both
/// pointers are borrowed (the owner must outlive the component's use).
struct Instrumentation {
  TraceSink* trace = nullptr;
  MetricsRegistry* metrics = nullptr;

  bool active() const { return trace != nullptr || metrics != nullptr; }
};

}  // namespace dimmer::obs
