// dimmer-lint — project-specific static analysis for the determinism and
// hot-path contracts this repository's results depend on.
//
// Every figure, ablation and fault-recovery artifact in this repo is defended
// by *dynamic* bit-identity checks (jobs=1 vs jobs=8 JSON diffs, RNG-lockstep
// tests, the differential flood suite). dimmer-lint proves the same
// invariants *statically*: a token-level scanner (comment/string aware, no
// full AST) over src/, bench/, examples/ and tools/ that flags the constructs
// those dynamic tests exist to catch, before CI ever runs a simulation.
//
// The tool runs two passes. Pass 1 (index.hpp) extracts every function
// definition into a repo-wide call graph and fixpoint-propagates the
// transitive properties may-allocate / may-touch-clock /
// may-iterate-unordered / may-draw-rng. Pass 2 runs the per-file rules below;
// when a call graph is supplied, the hot-path and determinism rules also fire
// on *transitive* violations — a hot region that reaches an allocating
// function through any call chain — and the finding text names the chain.
//
// Rules (each individually suppressible):
//
//   det-clock        Wall-clock and ambient-randomness reads
//                    (std::chrono::*_clock::now, time(), std::rand,
//                    std::random_device, std::mt19937, ...) outside
//                    src/util/.  All randomness must flow through forked
//                    util::Pcg32 streams; all timing through util/wallclock
//                    (reporting only).
//                    With a call graph: also fires when a hot-path region
//                    reaches a clock read through a call chain.
//
//   det-umap-iter    Range-for / begin() traversal of a std::unordered_map
//                    or std::unordered_set.  Iteration order is
//                    implementation-defined, so any result or serialized
//                    output derived from it is nondeterministic.  Use
//                    std::map, a sorted key vector, or lookups only.
//                    With a call graph: also fires transitively from hot
//                    regions.
//
//   hot-no-alloc     new / make_unique / container-growing calls inside a
//                    region bracketed by
//                       // dimmer-lint: hot-path begin
//                       // dimmer-lint: hot-path end
//                    These regions mark the PR 4 zero-allocation flood loop
//                    and its workspace users; the allocation-counting test
//                    (tests/flood/test_workspace.cpp) enforces the same
//                    contract dynamically.  With a call graph: also fires
//                    when the region *calls* (or passes a pointer to) a
//                    function that may allocate, at any depth.
//
//   fp-accumulate    std::accumulate / std::reduce / std::transform_reduce /
//                    std::inner_product calls.  Floating-point reduction
//                    order changes results bit-for-bit; result paths must
//                    make the order explicit (a plain loop) or annotate the
//                    call with `// dimmer-lint: fp-order-ok`.
//
//   err-swallow      `catch (...)` (which can hide determinism bugs as
//                    silently-absorbed exceptions) and syntactically empty
//                    catch handlers.
//
//   nodiscard-result Definitions of the result structs the experiment
//                    pipeline depends on (FloodResult, TrialResult,
//                    RoundResult) without [[nodiscard]]: a silently dropped
//                    result is how a bench diverges from what it reports.
//
//   rng-discipline   RNG forking and flow discipline (the PR 3/PR 8
//                    invariant that fault and backoff randomness never
//                    perturbs protocol lockstep).  (a) A `.fork(...)` /
//                    `->fork(...)` call on an RNG object must carry a
//                    `hash_u64`-keyed tag so stream identity is a pure
//                    function of (parent seed, tag), never of draw order or
//                    loop position.  (b) With a call graph: code in the
//                    protocol modules (src/core/, src/lwb/, src/flood/,
//                    src/rl/) must not call a function *defined* in a
//                    consumer module (src/fault/, src/exp/, bench/) whose
//                    signature takes a util::Pcg32 — handing a protocol
//                    stream across that boundary is how consumer draws end
//                    up interleaved into protocol lockstep.
//
// Trust annotation: `// dimmer-lint: pure(<prop>[, <prop>...])` on a
// function's signature line (or the line above) stops the named transitive
// property from propagating to callers (e.g. capacity-recycling `assign`
// audited by the dynamic allocation counter). The annotation is itself
// reported as a *suppressed* finding at the definition whenever it actually
// masks a propagated property — sanctioned, visible, never hidden.
//
// Suppression:
//   // NOLINT-DIMMER              suppress every rule on this line
//   // NOLINT-DIMMER(rule[,rule]) suppress the named rules on this line
//   // NOLINTNEXTLINE-DIMMER[(rules)]  same, for the following line
//
// Every finding that is not suppressed fails the run, so a new finding is
// fixed or suppressed in place, where the suppression stays visible.
#pragma once

#include <string>
#include <vector>

namespace dimmer::lint {

class CallGraph;  // index.hpp

/// One lint rule, as listed by `dimmer-lint --list-rules` and in the JSON
/// report.
struct Rule {
  std::string id;
  std::string summary;
};

/// The fixed rule table, in report order.
const std::vector<Rule>& rules();

/// True if `id` names a known rule.
bool is_rule(const std::string& id);

/// One diagnostic. `file` is reported exactly as handed to the scanner, so
/// callers control whether paths are absolute or repo-relative.
struct Finding {
  std::string file;
  int line = 0;  ///< 1-based
  std::string rule;
  std::string message;
  std::string excerpt;      ///< trimmed source line
  bool suppressed = false;  ///< hit an inline NOLINT-DIMMER annotation
};

/// Scans one translation unit. `path` is used for reporting and for the
/// path-scoped rules (det-clock exemptions, rng-discipline modules);
/// `contents` is the source text. When `graph` is non-null the transitive
/// rules run too. Findings are ordered by line.
std::vector<Finding> scan_source(const std::string& path,
                                 const std::string& contents,
                                 const CallGraph* graph = nullptr);

/// Reads `path` from disk and scans it. `report_as`, if non-empty, replaces
/// `path` in the findings (used to keep report paths repo-relative).
std::vector<Finding> scan_file(const std::string& path,
                               const std::string& report_as = "",
                               const CallGraph* graph = nullptr);

/// One in-memory source file for the batch scanner.
struct SourceFile {
  std::string path;  ///< reported verbatim in findings
  std::string contents;
};

/// Scans every file, one after another, and concatenates the findings in
/// input order.
std::vector<Finding> scan_sources(const std::vector<SourceFile>& files,
                                  const CallGraph* graph = nullptr);

/// True if any finding is active (not suppressed) — the process exit
/// criterion.
bool has_active(const std::vector<Finding>& findings);

/// Machine-readable report: rule table, per-rule active counts, and every
/// finding (including suppressed ones, flagged as such). Output is
/// byte-deterministic: findings sorted by (file, line, rule), numbers
/// emitted via util::json_number.
std::string json_report(std::vector<Finding> findings);

}  // namespace dimmer::lint
