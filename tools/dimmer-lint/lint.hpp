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
// Baseline: a checked-in file of `path|rule|hash` keys (see baseline_key);
// matching findings are reported as baselined and do not fail the run. The
// shipped baseline (tools/dimmer-lint/baseline.txt) is empty — the repo is
// clean — and a test asserts it stays that way.
#pragma once

#include <cstdint>
#include <set>
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
  bool baselined = false;   ///< matched the baseline file
  /// The finding reports the *scan itself* going wrong (unreadable file,
  /// unbalanced hot-path region) rather than a code-level violation. A report
  /// containing parse errors cannot be trusted as a complete picture, so
  /// update_baseline refuses to snapshot it.
  bool parse_error = false;
};

/// Scanner configuration. Defaults encode this repo's policy.
struct Options {
  /// Path prefixes (after '\' -> '/' normalization) where det-clock is
  /// allowed: only the audited wall-clock wrapper seam itself. The lint tool
  /// is *not* exempt — it lints itself in CI.
  std::vector<std::string> clock_exempt_prefixes = {"src/util/"};
  /// Result types that must be declared [[nodiscard]].
  std::vector<std::string> nodiscard_types = {"FloodResult", "TrialResult",
                                              "RoundResult"};
};

/// Scans one translation unit. `path` is used for reporting and for the
/// path-scoped rules (det-clock exemptions, rng-discipline modules);
/// `contents` is the source text. When `graph` is non-null the transitive
/// rules run too. Findings are ordered by line.
std::vector<Finding> scan_source(const std::string& path,
                                 const std::string& contents,
                                 const Options& opt = Options(),
                                 const CallGraph* graph = nullptr);

/// Reads `path` from disk and scans it. `report_as`, if non-empty, replaces
/// `path` in the findings (used to keep report paths repo-relative).
std::vector<Finding> scan_file(const std::string& path,
                               const std::string& report_as = "",
                               const Options& opt = Options(),
                               const CallGraph* graph = nullptr);

/// One in-memory source file for the batch scanner.
struct SourceFile {
  std::string path;  ///< reported verbatim in findings
  std::string contents;
};

/// Scans every file, one after another, and concatenates the findings in
/// input order.
std::vector<Finding> scan_sources(const std::vector<SourceFile>& files,
                                  const Options& opt = Options(),
                                  const CallGraph* graph = nullptr);

/// Collapses every run of whitespace in `s` to a single space and trims both
/// ends (exposed for tests).
std::string normalize_ws(const std::string& s);

/// Stable baseline key: "path|rule|fnv1a(whitespace-normalized excerpt)".
/// Content-hashed rather than line-numbered so unrelated edits above a
/// baselined finding do not invalidate it, and whitespace-normalized so pure
/// reformatting (re-indentation) does not churn keys.
std::string baseline_key(const Finding& f);

/// Parses a baseline file: one key per line, '#' comments and blank lines
/// ignored. A missing file yields an empty set.
std::set<std::string> load_baseline(const std::string& path);

/// Marks findings whose baseline_key is in `baseline` as baselined.
void apply_baseline(std::vector<Finding>& findings,
                    const std::set<std::string>& baseline);

/// True if any finding is active (neither suppressed nor baselined) — the
/// process exit criterion.
bool has_active(const std::vector<Finding>& findings);

/// Snapshots the current unsuppressed findings as a sorted, deduped baseline
/// file, written with util::write_file_atomic. Refuses (returns false,
/// touches nothing) when any finding is a parse error — a broken scan must
/// not be immortalized as the accepted state — or when the write fails.
bool update_baseline(const std::vector<Finding>& findings,
                     const std::string& path);

/// Machine-readable report: rule table, per-rule active counts, and every
/// finding (including suppressed/baselined ones, flagged as such). Output is
/// byte-deterministic: findings sorted by (file, line, rule), numbers
/// emitted via util::json_number.
std::string json_report(std::vector<Finding> findings);

/// FNV-1a 64-bit over `s` (exposed for tests).
std::uint64_t fnv1a(const std::string& s);

}  // namespace dimmer::lint
