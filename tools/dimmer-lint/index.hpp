// dimmer-lint pass 1: the repo-wide function index and call graph.
//
// The line-local rules in lint.cpp prove contracts one source line at a
// time; the bit-identity guarantees this repo ships (the frozen BENCH
// artifacts, shards=1-vs-N campaign journals, federation worker-count
// invariance) are *transitive* properties: a hot region that calls a helper
// which calls a helper which allocates is just as broken as one that calls
// `new` directly. Pass 1 makes that chain visible without an AST:
//
//   1. index_source — a brace/paren-aware function extractor over the same
//      token stream the line rules use. For every function definition it
//      records the signature/body line range, the enclosing scope, the
//      callee names used in the body, address-taken function references,
//      Pcg32-typed parameters, and *direct evidence* per transitive
//      property (the token and line that prove it).
//   2. build_call_graph — merges the per-file indexes and runs a fixpoint
//      propagation of the four properties:
//          may-allocate         (hot-no-alloc's vocabulary)
//          may-touch-clock      (det-clock's vocabulary)
//          may-iterate-unordered(det-umap-iter's vocabulary)
//          may-draw-rng         (Pcg32 stream-advancing member calls)
//      Calls resolve by *name*: `x.step(...)` reaches every indexed function
//      named `step`. That is deliberate conservative widening — virtual
//      dispatch and same-named overloads are over-approximated rather than
//      missed — and address-taken references (`register_cb(&helper)`,
//      `auto fp = helper;`) add edges the same way, so function-pointer
//      indirection cannot hide a violation. The one narrowing is by tree:
//      the library under src/ links nothing from bench/, examples/ or
//      tools/, so a call made in a src/ file reaches only src/ definitions.
//      Every propagated property keeps a witness edge, so findings can print
//      the exact call chain down to the direct evidence.
//
// Trust annotation: `// dimmer-lint: pure(<prop>[, <prop>...])` on a
// function's signature line (or the line above) asserts the property does
// not escape that function (e.g. capacity-recycling `assign` audited by a
// dynamic allocation counter). A trusted property stops propagating to
// callers, but the annotation is *reported as a suppressed finding* at the
// definition — sanctioned violations stay visible in the JSON report, never
// hidden.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lint.hpp"

namespace dimmer::lint {

/// The four transitive properties, in fixed report order.
enum class Prop : std::uint8_t {
  kAllocate = 0,
  kClock = 1,
  kUnorderedIter = 2,
  kDrawRng = 3,
};
inline constexpr int kNumProps = 4;

/// "may-allocate", "may-touch-clock", "may-iterate-unordered",
/// "may-draw-rng".
const char* prop_name(Prop p);

/// Parses a prop name (as written in `pure(...)`); false if unknown.
bool parse_prop(const std::string& s, Prop* out);

/// The line-local rule a property maps back to when a transitive finding is
/// reported: hot-no-alloc, det-clock, det-umap-iter, rng-discipline.
const char* prop_rule(Prop p);

/// Token-level proof that a function has a property directly in its body.
struct DirectEvidence {
  int line = 0;  ///< 0 = no direct evidence
  std::string token;
};

/// One extracted function definition.
struct FunctionDef {
  std::string name;   ///< unqualified identifier
  std::string scope;  ///< enclosing namespace/class path for display ("" ok)
  std::string file;   ///< as reported (repo-relative in the CLI)
  int line = 0;        ///< signature line (1-based)
  int body_begin = 0;  ///< line of the opening '{'
  int body_end = 0;    ///< line of the closing '}'
  bool is_virtual = false;  ///< declared virtual / override / final
  bool takes_pcg = false;   ///< signature has a util::Pcg32 parameter
  DirectEvidence direct[kNumProps];
  bool trusted[kNumProps] = {false, false, false, false};  ///< pure(<prop>)
  std::vector<std::pair<std::string, int>> calls;  ///< (callee, line), name-deduped
  std::vector<std::pair<std::string, int>> refs;   ///< address-taken refs
  std::vector<std::string> pcg_params;  ///< names of Pcg32-typed parameters
};

/// The index of one translation unit.
struct FileIndex {
  std::string file;
  std::vector<FunctionDef> functions;
};

/// Extracts the function index of one file. `path` is recorded verbatim in
/// every FunctionDef (the CLI hands in repo-relative paths).
FileIndex index_source(const std::string& path, const std::string& contents);

/// The merged call graph with fixpoint-propagated properties.
class CallGraph {
 public:
  enum class Why : std::uint8_t { kNone, kDirect, kViaCall, kViaRef };

  struct Node {
    FunctionDef def;
    Why why[kNumProps] = {Why::kNone, Why::kNone, Why::kNone, Why::kNone};
    int via[kNumProps] = {-1, -1, -1, -1};  ///< witness callee node index
    int via_line[kNumProps] = {0, 0, 0, 0};  ///< call line inside this fn
  };

  /// Nodes sorted by (file, line, name); index into this vector is the node
  /// id used everywhere else.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Node ids sharing `name`, in node order; nullptr if none.
  const std::vector<int>* lookup(const std::string& name) const;

  /// Node ids a call to `name` made in `caller_file` may reach, in node
  /// order; nullptr if none. Those are lookup(name), except that a caller
  /// under src/ reaches only definitions under src/.
  const std::vector<int>* resolve(const std::string& caller_file,
                                  const std::string& name) const;

  /// The property holds, ignoring the node's own trust annotation. This is
  /// what the trust-reporting pass uses: an annotation only earns its
  /// suppressed finding if it actually masks something.
  bool raw_has(int node, Prop p) const;

  /// The property holds *and* escapes to callers (raw_has && !trusted).
  bool has(int node, Prop p) const;

  /// Human-readable witness chain: "a -> b -> c: `new` at file:line".
  std::string chain(int node, Prop p) const;

  /// "Scope::name" display form.
  std::string display(int node) const;

 private:
  friend CallGraph build_call_graph(std::vector<FileIndex> files);
  std::vector<Node> nodes_;
  std::map<std::string, std::vector<int>> by_name_;
  std::map<std::string, std::vector<int>> src_by_name_;  ///< src/ nodes only
};

/// Merges per-file indexes and runs the fixpoint. Deterministic: node order,
/// witness selection and therefore every chain string depend only on the
/// index contents.
CallGraph build_call_graph(std::vector<FileIndex> files);

}  // namespace dimmer::lint
