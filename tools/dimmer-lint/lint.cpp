#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>

#include "index.hpp"
#include "scan.hpp"
#include "util/json.hpp"

namespace dimmer::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const char* kDetClock = "det-clock";
const char* kDetUmapIter = "det-umap-iter";
const char* kHotNoAlloc = "hot-no-alloc";
const char* kFpAccumulate = "fp-accumulate";
const char* kErrSwallow = "err-swallow";
const char* kNodiscardResult = "nodiscard-result";
const char* kRngDiscipline = "rng-discipline";

}  // namespace

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {kDetClock,
       "wall-clock / ambient randomness outside src/util/ (use forked "
       "util::Pcg32 and util/wallclock.hpp); with a call graph, also fires "
       "when a hot-path region reaches a clock read transitively"},
      {kDetUmapIter,
       "iteration over std::unordered_map/unordered_set: order is "
       "implementation-defined (use std::map, sorted keys, or lookups only)"},
      {kHotNoAlloc,
       "allocation or container growth inside a `dimmer-lint: hot-path` "
       "region (the zero-allocation flood loop); with a call graph, also "
       "fires when the region reaches an allocating function through any "
       "call chain"},
      {kFpAccumulate,
       "library floating-point reduction: make the summation order an "
       "explicit loop or annotate `dimmer-lint: fp-order-ok`"},
      {kErrSwallow,
       "catch-all or empty catch handler: record the error or rethrow"},
      {kNodiscardResult,
       "result struct defined without [[nodiscard]]: dropped results are how "
       "a bench silently diverges from what it reports"},
      {kRngDiscipline,
       "RNG fork without a hash_u64-keyed tag, or a protocol-module "
       "(core/lwb/flood/rl) call into a fault/exp function whose "
       "signature takes util::Pcg32: consumer randomness must never perturb "
       "protocol lockstep"},
  };
  return kRules;
}

bool is_rule(const std::string& id) {
  for (const Rule& r : rules())
    if (r.id == id) return true;
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Rule: det-clock
// ---------------------------------------------------------------------------

// The one path prefix (after '\' -> '/' normalization) where det-clock is
// allowed: the audited wall-clock seam itself. The lint tool is *not* exempt
// — it lints itself in CI.
constexpr const char* kClockExemptPrefix = "src/util/";

void rule_det_clock(const std::string& path, const std::vector<Tok>& toks,
                    std::vector<Finding>* out) {
  std::string np = norm_path(path);
  if (has_prefix(np, kClockExemptPrefix) ||
      np.find(std::string("/") + kClockExemptPrefix) != std::string::npos)
    return;
  const std::set<std::string>& bare = clock_bare_tokens();
  const std::set<std::string>& qual = clock_qual_tokens();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (bare.count(t)) {
      out->push_back({path, toks[i].line, kDetClock,
                      "`" + t +
                          "` outside src/util/: route timing through "
                          "util/wallclock.hpp and randomness through forked "
                          "util::Pcg32",
                      "", false});
      continue;
    }
    if (!qual.count(t)) continue;
    bool qualified = colon_qualified(toks, i);
    bool bare_call = tok_at(toks, i + 1) == "(" && !member_access(toks, i) &&
                     !qualified && tok_at(toks, i - 1) != ":";
    if (qualified || bare_call)
      out->push_back({path, toks[i].line, kDetClock,
                      "`" + t +
                          "()` outside src/util/: simulation code must not "
                          "read ambient time or randomness",
                      "", false});
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule: det-umap-iter (namespace-scope: pass 1 reuses it for the
// may-iterate-unordered direct evidence, see scan.hpp)
// ---------------------------------------------------------------------------

void detail_rule_det_umap_iter(const std::string& path,
                               const std::vector<Tok>& toks,
                               std::vector<Finding>* out) {
  const std::set<std::string>& kUnorderedKw = unordered_tokens();
  // Pass A: `using Alias = ... unordered_map<...> ...;`
  std::set<std::string> aliases;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "using" || tok_at(toks, i + 2) != "=") continue;
    for (std::size_t j = i + 3; j < toks.size() && toks[j].text != ";"; ++j)
      if (kUnorderedKw.count(toks[j].text)) {
        aliases.insert(toks[i + 1].text);
        break;
      }
  }
  auto is_unordered_type = [&](const std::string& t) {
    return kUnorderedKw.count(t) != 0 || aliases.count(t) != 0;
  };
  // Pass B: declared variable / member names of unordered type.
  std::set<std::string> vars;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_unordered_type(toks[i].text)) continue;
    std::size_t j = skip_template_args(toks, i + 1);
    if (j == i + 1 && kUnorderedKw.count(toks[i].text)) continue;  // no <...>
    while (tok_at(toks, j) == "&" || tok_at(toks, j) == "*" ||
           tok_at(toks, j) == "const")
      ++j;
    const std::string& name = tok_at(toks, j);
    if (!name.empty() && is_ident_char(name[0]) &&
        !std::isdigit(static_cast<unsigned char>(name[0])))
      vars.insert(name);
  }
  // Pass C: range-for over an unordered variable or temporary.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "for" || tok_at(toks, i + 1) != "(") continue;
    int depth = 0;
    std::size_t close = i + 1, colon = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && toks[j].text == ":" && tok_at(toks, j - 1) != ":" &&
          tok_at(toks, j + 1) != ":" && colon == 0)
        colon = j;
    }
    if (colon == 0 || close <= colon) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      const std::string& t = toks[j].text;
      if (is_unordered_type(t) || vars.count(t)) {
        out->push_back({path, toks[i].line, kDetUmapIter,
                        "range-for over unordered container `" + t +
                            "`: iteration order is implementation-defined; "
                            "iterate sorted keys or use std::map",
                        "", false});
        break;
      }
    }
  }
  // Pass D: explicit begin()/cbegin() on an unordered variable.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!vars.count(toks[i].text)) continue;
    std::size_t m = 0;
    if (tok_at(toks, i + 1) == ".")
      m = i + 2;
    else if (tok_at(toks, i + 1) == "-" && tok_at(toks, i + 2) == ">")
      m = i + 3;
    else
      continue;
    const std::string& fn = tok_at(toks, m);
    if ((fn == "begin" || fn == "cbegin") && tok_at(toks, m + 1) == "(")
      out->push_back({path, toks[i].line, kDetUmapIter,
                      "iterator traversal of unordered container `" +
                          toks[i].text + "` (order is implementation-defined)",
                      "", false});
  }
}

namespace {

// ---------------------------------------------------------------------------
// Rule: hot-no-alloc
// ---------------------------------------------------------------------------

void rule_hot_no_alloc(const std::string& path, const std::vector<Tok>& toks,
                       const Directives& dir, std::vector<Finding>* out) {
  const std::set<std::string>& kGrowers = grower_tokens();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    int line = toks[i].line;
    if (line >= static_cast<int>(dir.hot.size()) || !dir.hot[line]) continue;
    const std::string& t = toks[i].text;
    if (t == "new") {
      out->push_back({path, line, kHotNoAlloc,
                      "`new` inside hot-path region: steady-state floods must "
                      "not allocate (use the caller-owned workspace)",
                      "", false});
    } else if (kGrowers.count(t) &&
               (tok_at(toks, i + 1) == "(" ||
                // templated form: make_unique<T>(...)
                tok_at(toks, skip_template_args(toks, i + 1)) == "(")) {
      out->push_back({path, line, kHotNoAlloc,
                      "`" + t +
                          "()` inside hot-path region may allocate; "
                          "pre-size buffers outside the region",
                      "", false});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: fp-accumulate
// ---------------------------------------------------------------------------

void rule_fp_accumulate(const std::string& path, const std::vector<Tok>& toks,
                        const Directives& dir, std::vector<Finding>* out) {
  static const std::set<std::string> kReducers = {
      "accumulate", "reduce", "transform_reduce", "inner_product"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!kReducers.count(toks[i].text) || tok_at(toks, i + 1) != "(") continue;
    int line = toks[i].line;
    // An fp-order-ok annotation (same line or the line above) reports the
    // call as suppressed rather than hiding it: annotated reductions stay
    // visible in the JSON report's suppressed count.
    bool ok = (line < static_cast<int>(dir.fp_ok.size()) && dir.fp_ok[line]) ||
              (line >= 2 && line - 1 < static_cast<int>(dir.fp_ok.size()) &&
               dir.fp_ok[line - 1]);
    out->push_back({path, line, kFpAccumulate,
                    "`" + toks[i].text +
                        "()` hides the floating-point reduction order; write "
                        "an explicit loop or annotate `// dimmer-lint: "
                        "fp-order-ok`",
                    "", /*suppressed=*/ok});
  }
}

// ---------------------------------------------------------------------------
// Rule: err-swallow
// ---------------------------------------------------------------------------

void rule_err_swallow(const std::string& path, const std::vector<Tok>& toks,
                      std::vector<Finding>* out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "catch" || tok_at(toks, i + 1) != "(") continue;
    std::size_t close = match_paren(toks, i + 1);
    if (close == 0) continue;
    bool catch_all = close == i + 5 && tok_at(toks, i + 2) == "." &&
                     tok_at(toks, i + 3) == "." && tok_at(toks, i + 4) == ".";
    if (catch_all) {
      out->push_back({path, toks[i].line, kErrSwallow,
                      "`catch (...)` can absorb any failure silently; catch "
                      "concrete types, or record the error and annotate",
                      "", false});
      continue;
    }
    if (tok_at(toks, close + 1) == "{" && tok_at(toks, close + 2) == "}")
      out->push_back({path, toks[i].line, kErrSwallow,
                      "empty catch handler swallows the error", "",
                      false});
  }
}

// ---------------------------------------------------------------------------
// Rule: nodiscard-result
// ---------------------------------------------------------------------------

void rule_nodiscard_result(const std::string& path,
                           const std::vector<Tok>& toks,
                           std::vector<Finding>* out) {
  // The result types that must be declared [[nodiscard]].
  static const std::set<std::string> kTypes = {"FloodResult", "TrialResult",
                                               "RoundResult"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text != "struct" && toks[i].text != "class") continue;
    std::size_t j = i + 1;
    bool nodiscard = false;
    while (tok_at(toks, j) == "[" && tok_at(toks, j + 1) == "[") {
      for (std::size_t k = j + 2;
           k < toks.size() && tok_at(toks, k) != "]"; ++k)
        if (toks[k].text == "nodiscard") nodiscard = true;
      while (j < toks.size() && toks[j].text != "]") ++j;
      j += 2;  // skip "]]"
    }
    const std::string& name = tok_at(toks, j);
    if (!kTypes.count(name)) continue;
    const std::string& next = tok_at(toks, j + 1);
    if (next != "{" && next != ":") continue;  // fwd decl / variable / member
    if (!nodiscard)
      out->push_back({path, toks[i].line, kNodiscardResult,
                      "result type `" + name +
                          "` must be declared `struct [[nodiscard]] " + name +
                          "` so discarded results warn at every call site",
                      "", false});
  }
}

// ---------------------------------------------------------------------------
// Rule: rng-discipline
// ---------------------------------------------------------------------------

enum class Module { kProtocol, kConsumer, kOther };

Module module_of(const std::string& path) {
  std::string np = norm_path(path);
  auto in = [&](const char* prefix) {
    return has_prefix(np, prefix) ||
           np.find(std::string("/") + prefix) != std::string::npos;
  };
  if (in("src/core/") || in("src/lwb/") || in("src/flood/") || in("src/rl/"))
    return Module::kProtocol;
  if (in("src/fault/") || in("src/exp/")) return Module::kConsumer;
  return Module::kOther;
}

void rule_rng_discipline(const std::string& path, const std::vector<Tok>& toks,
                         const CallGraph* graph, std::vector<Finding>* out) {
  // (a) Member fork calls must carry a hash_u64-keyed tag. Requiring member
  // access (`rng.fork(`, `rng->fork(`) excludes the POSIX process `::fork()`.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text != "fork" || !member_access(toks, i) ||
        tok_at(toks, i + 1) != "(")
      continue;
    std::size_t close = match_paren(toks, i + 1);
    bool keyed = false;
    for (std::size_t j = i + 2; close != 0 && j < close; ++j)
      if (toks[j].text == "hash_u64") keyed = true;
    if (!keyed)
      out->push_back(
          {path, toks[i].line, kRngDiscipline,
           "RNG `fork()` without a `hash_u64`-keyed tag: fork as "
           "`rng.fork(util::hash_u64(a, b))` so stream identity is a pure "
           "function of (parent seed, tag), never of draw order or loop "
           "position",
           "", false});
  }
  // (b) Protocol modules must not hand RNG streams into consumer-module
  // signatures. Name-resolved against the call graph: a call in
  // core/lwb/flood/rl to any indexed function defined under fault/ or exp/
  // that takes a util::Pcg32 parameter is flagged, conservatively.
  if (graph == nullptr || module_of(path) != Module::kProtocol) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t.empty() || !is_ident_char(t[0]) ||
        std::isdigit(static_cast<unsigned char>(t[0])))
      continue;
    if (is_cpp_keyword(t) || tok_at(toks, i + 1) != "(") continue;
    const std::vector<int>* nodes = graph->resolve(path, t);
    if (nodes == nullptr) continue;
    for (int node : *nodes) {
      const FunctionDef& d = graph->nodes()[static_cast<std::size_t>(node)].def;
      if (module_of(d.file) != Module::kConsumer || !d.takes_pcg) continue;
      out->push_back(
          {path, toks[i].line, kRngDiscipline,
           "protocol-module RNG reference may flow into consumer signature: "
           "`" + graph->display(node) + "` (" + d.file + ":" +
               std::to_string(d.line) +
               ") takes util::Pcg32; fault/exp randomness must stay "
               "out of protocol lockstep — pass a hash_u64-keyed fork the "
               "consumer owns instead",
           "", false});
    }
  }
}

// ---------------------------------------------------------------------------
// Transitive rules (pass 2 with the pass-1 call graph)
// ---------------------------------------------------------------------------

// The properties a hot-path region must not *reach* and the rule each one
// reports under. may-draw-rng is deliberately absent: floods draw protocol
// randomness by design, so reaching an RNG draw from a hot region is legal.
constexpr Prop kHotProps[3] = {Prop::kAllocate, Prop::kClock,
                               Prop::kUnorderedIter};

void rule_transitive_hot(const std::string& path, const std::vector<Tok>& toks,
                         const Directives& dir, const CallGraph& graph,
                         std::vector<Finding>* out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    int line = toks[i].line;
    if (line >= static_cast<int>(dir.hot.size()) || !dir.hot[line]) continue;
    const std::string& t = toks[i].text;
    if (t.empty() || !is_ident_char(t[0]) ||
        std::isdigit(static_cast<unsigned char>(t[0])))
      continue;
    if (is_cpp_keyword(t)) continue;
    bool call = tok_at(toks, i + 1) == "(";
    bool ref = false;
    if (!call) {
      // Address-taken / bare function reference handed onward from the hot
      // region — the same widening the indexer applies, so a violation
      // cannot hide behind a function pointer.
      const std::string& prev = tok_at(toks, i - 1);
      const std::string& next = tok_at(toks, i + 1);
      bool addr = prev == "&" && i >= 2 &&
                  (tok_at(toks, i - 2) == "(" || tok_at(toks, i - 2) == "," ||
                   tok_at(toks, i - 2) == "=");
      bool bare = (prev == "(" || prev == "," || prev == "=") &&
                  (next == "," || next == ")" || next == ";");
      ref = addr || bare;
    }
    if (!call && !ref) continue;
    const std::vector<int>* nodes = graph.resolve(path, t);
    if (nodes == nullptr) continue;
    for (int node : *nodes) {
      for (Prop p : kHotProps) {
        if (!graph.has(node, p)) continue;
        out->push_back(
            {path, line, prop_rule(p),
             std::string("hot-path region reaches `") + prop_name(p) +
                 (call ? "` through call chain: "
                       : "` through referenced function: ") +
                 graph.chain(node, p),
             "", false});
      }
    }
  }
}

// Every `pure(<prop>)` trust annotation that actually masks a propagated
// property is reported as a suppressed finding at the definition: sanctioned
// transitive violations stay visible in the JSON report, never hidden.
void rule_trust_reports(const std::string& path, const CallGraph& graph,
                        std::vector<Finding>* out) {
  std::string np = norm_path(path);
  const std::vector<CallGraph::Node>& nodes = graph.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const FunctionDef& d = nodes[i].def;
    if (norm_path(d.file) != np) continue;
    for (int p = 0; p < kNumProps; ++p) {
      Prop pp = static_cast<Prop>(p);
      if (!d.trusted[p] || !graph.raw_has(static_cast<int>(i), pp)) continue;
      out->push_back(
          {path, d.line, prop_rule(pp),
           std::string("`pure(") + prop_name(pp) +
               ")` trust annotation on `" + graph.display(static_cast<int>(i)) +
               "` masks: " + graph.chain(static_cast<int>(i), pp),
           "", /*suppressed=*/true});
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<Finding> scan_source(const std::string& path,
                                 const std::string& contents,
                                 const CallGraph* graph) {
  std::vector<LineInfo> lines = split_channels(contents);
  std::vector<Tok> toks = tokenize(lines);
  Directives dir = scan_directives(path, lines);

  std::vector<Finding> out;
  rule_det_clock(path, toks, &out);
  detail_rule_det_umap_iter(path, toks, &out);
  rule_hot_no_alloc(path, toks, dir, &out);
  out.insert(out.end(), dir.region_errors.begin(), dir.region_errors.end());
  rule_fp_accumulate(path, toks, dir, &out);
  rule_err_swallow(path, toks, &out);
  rule_nodiscard_result(path, toks, &out);
  rule_rng_discipline(path, toks, graph, &out);
  if (graph != nullptr) {
    rule_transitive_hot(path, toks, dir, *graph, &out);
    rule_trust_reports(path, *graph, &out);
  }

  // Raw source lines (pre-blanking) for excerpts.
  std::vector<std::string> raw;
  {
    std::stringstream ss(contents);
    std::string l;
    while (std::getline(ss, l)) raw.push_back(l);
  }
  for (Finding& f : out) {
    if (f.line >= 1 && f.line <= static_cast<int>(raw.size()))
      f.excerpt = trimmed_line(raw[f.line - 1]);
    // ||: fp-accumulate pre-marks fp-order-ok annotated calls as suppressed.
    f.suppressed = f.suppressed || line_suppressed(lines, f.line, f.rule);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  // One diagnostic per (line, rule): a single bad line should not dominate
  // the report.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.line == b.line && a.rule == b.rule;
                        }),
            out.end());
  return out;
}

std::vector<Finding> scan_file(const std::string& path,
                               const std::string& report_as,
                               const CallGraph* graph) {
  const std::string& reported = report_as.empty() ? path : report_as;
  std::ifstream in(path, std::ios::binary);
  if (!in) return {Finding{reported, 0, "io", "cannot open file", "", false}};
  std::stringstream ss;
  ss << in.rdbuf();
  return scan_source(reported, ss.str(), graph);
}

std::vector<Finding> scan_sources(const std::vector<SourceFile>& files,
                                  const CallGraph* graph) {
  std::vector<Finding> out;
  for (const SourceFile& f : files) {
    std::vector<Finding> found = scan_source(f.path, f.contents, graph);
    out.insert(out.end(), std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()));
  }
  return out;
}

bool has_active(const std::vector<Finding>& findings) {
  for (const Finding& f : findings)
    if (!f.suppressed) return true;
  return false;
}

std::string json_report(std::vector<Finding> findings) {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  std::map<std::string, int> counts;
  for (const Rule& r : rules()) counts[r.id] = 0;
  int n_active = 0, n_suppressed = 0;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++n_suppressed;
    } else {
      ++n_active;
      ++counts[f.rule];
    }
  }
  std::ostringstream os;
  os << "{\n  \"tool\": \"dimmer-lint\",\n  \"version\": 3,\n  \"rules\": [\n";
  for (std::size_t i = 0; i < rules().size(); ++i) {
    const Rule& r = rules()[i];
    os << "    {\"id\": " << util::json_quote(r.id)
       << ", \"summary\": " << util::json_quote(r.summary) << "}"
       << (i + 1 < rules().size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"counts\": {";
  bool first = true;
  for (const auto& [id, n] : counts) {
    os << (first ? "" : ", ") << util::json_quote(id) << ": " << n;
    first = false;
  }
  os << "},\n";
  os << "  \"total_active\": " << n_active << ",\n";
  os << "  \"total_suppressed\": " << n_suppressed << ",\n";
  os << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": " << util::json_quote(norm_path(f.file))
       << ", \"line\": " << f.line << ", \"rule\": " << util::json_quote(f.rule)
       << ",\n     \"message\": " << util::json_quote(f.message)
       << ",\n     \"excerpt\": " << util::json_quote(f.excerpt)
       << ", \"suppressed\": " << (f.suppressed ? "true" : "false") << "}";
  }
  os << (findings.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

}  // namespace dimmer::lint
