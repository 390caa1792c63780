#include "index.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "scan.hpp"

namespace dimmer::lint {

namespace {

const char* kPropNames[kNumProps] = {"may-allocate", "may-touch-clock",
                                     "may-iterate-unordered", "may-draw-rng"};
const char* kPropRules[kNumProps] = {"hot-no-alloc", "det-clock",
                                     "det-umap-iter", "rng-discipline"};

}  // namespace

const char* prop_name(Prop p) { return kPropNames[static_cast<int>(p)]; }
const char* prop_rule(Prop p) { return kPropRules[static_cast<int>(p)]; }

bool parse_prop(const std::string& s, Prop* out) {
  for (int i = 0; i < kNumProps; ++i) {
    if (s == kPropNames[i]) {
      *out = static_cast<Prop>(i);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Function extraction
// ---------------------------------------------------------------------------

namespace {

// One entry of the namespace/class scope stack.
struct ScopeEntry {
  std::string name;
  int depth = 0;  // brace depth *inside* the scope
};

// Tokens allowed between a definition's ")" and its "{": cv/ref qualifiers,
// noexcept(...), attributes, trailing return types. Anything else (";", "=",
// ",") means declaration, not definition.
bool is_post_paren_token(const std::string& t) {
  if (t == "const" || t == "noexcept" || t == "override" || t == "final" ||
      t == "mutable" || t == "&" || t == "-" || t == ">" || t == "*" ||
      t == ":" || t == "<" || t == "[" || t == "]" || t == "(" || t == ")")
    return true;
  return !t.empty() && is_ident_char(t[0]);
}

// Scans forward from just past the parameter list's ")" looking for the
// body's "{". Handles constructor initializer lists (`: a_(x), b_{y} {`),
// `noexcept(...)` and trailing return types. Returns the token index of the
// body "{", or 0 if this is not a definition.
std::size_t find_body_open(const std::vector<Tok>& toks, std::size_t after) {
  int paren = 0;
  for (std::size_t k = after; k < toks.size(); ++k) {
    const std::string& t = toks[k].text;
    if (t == "(") {
      ++paren;
      continue;
    }
    if (t == ")") {
      if (--paren < 0) return 0;
      continue;
    }
    if (paren > 0) continue;  // inside noexcept(...) or a member-init's args
    if (t == "{") {
      // Either the body, or a member-init brace (`: a_{1} {`). Distinguish by
      // looking back: a member-init brace directly follows an identifier or
      // ">" inside an initializer list context. We treat the first "{" at
      // paren depth 0 that is *not* immediately consumed as an init-brace as
      // the body. Simplest correct rule: if the previous non-")" token run
      // since the last "," or ":" ended with an identifier AND we are inside
      // an initializer list, this "{" is an init brace — skip its balanced
      // extent and continue.
      return k;
    }
    if (t == ";" || t == "=" || t == ",") return 0;
    if (!is_post_paren_token(t)) return 0;
  }
  return 0;
}

// For constructor initializer lists the "{" found by find_body_open may be a
// member brace-init (`: a_{1}, b_(2) {`). This walks the initializer list
// properly: entries are `ident...(...)` or `ident...{...}` separated by ","
// and terminated by the body "{".
std::size_t resolve_ctor_init(const std::vector<Tok>& toks, std::size_t colon) {
  std::size_t k = colon + 1;
  while (k < toks.size()) {
    // member name, possibly qualified/templated: walk identifiers, "::", "<...>"
    bool saw_ident = false;
    while (k < toks.size()) {
      const std::string& t = toks[k].text;
      if (!t.empty() && is_ident_char(t[0])) {
        saw_ident = true;
        ++k;
      } else if (t == ":" || t == "<" || t == ">" || t == ",") {
        // "::" qualification or template args; a "," inside template args is
        // rare in member-init bases — accept and keep walking until an
        // opener shows up.
        if (t == "," && saw_ident) break;  // malformed; bail below
        ++k;
      } else {
        break;
      }
    }
    if (k >= toks.size()) return 0;
    const std::string& open = toks[k].text;
    if (open == "(") {
      std::size_t close = match_paren(toks, k);
      if (close == 0) return 0;
      k = close + 1;
    } else if (open == "{") {
      int depth = 0;
      std::size_t j = k;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "{") ++depth;
        if (toks[j].text == "}" && --depth == 0) break;
      }
      if (j >= toks.size()) return 0;
      k = j + 1;
    } else {
      return 0;
    }
    if (k < toks.size() && toks[k].text == ",") {
      ++k;
      continue;
    }
    if (k < toks.size() && toks[k].text == "{") return k;  // the body
    return 0;
  }
  return 0;
}

// Index of the "}" closing the "{" at toks[open]; 0 if unmatched.
std::size_t match_brace(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (toks[j].text == "{") ++depth;
    if (toks[j].text == "}" && --depth == 0) return j;
  }
  return 0;
}

// True if the statement containing toks[i] (scanning back to the previous
// ";", "{", "}" or access-specifier ":") carries the `virtual` keyword.
bool stmt_has_virtual(const std::vector<Tok>& toks, std::size_t i) {
  for (std::size_t k = i; k-- > 0;) {
    const std::string& t = toks[k].text;
    if (t == ";" || t == "{" || t == "}") return false;
    if (t == "virtual") return true;
  }
  return false;
}

// Parses `dimmer-lint: pure(<prop>[, <prop>...])` markers out of one line's
// comment text into `mask` (bit per Prop). Unknown names are ignored (a typo
// simply fails to trust anything, so the finding stays active and visible).
void parse_pure_marker(const std::string& comment, unsigned* mask) {
  const std::string kMarker = "dimmer-lint: pure(";
  std::size_t pos = comment.find(kMarker);
  if (pos == std::string::npos) return;
  std::size_t open = pos + kMarker.size();
  std::size_t close = comment.find(')', open);
  std::string list = comment.substr(
      open, close == std::string::npos ? std::string::npos : close - open);
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::size_t b = item.find_first_not_of(" \t");
    std::size_t e = item.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    Prop p;
    if (parse_prop(item.substr(b, e - b + 1), &p))
      *mask |= 1u << static_cast<unsigned>(p);
  }
}

}  // namespace

FileIndex index_source(const std::string& path, const std::string& contents) {
  FileIndex out;
  out.file = path;

  std::vector<LineInfo> lines = split_channels(contents);
  std::vector<Tok> toks = tokenize(lines);

  // pure() trust markers per line.
  std::vector<unsigned> pure_mask(lines.size() + 2, 0);
  for (std::size_t li = 0; li < lines.size(); ++li)
    parse_pure_marker(lines[li].comment, &pure_mask[li + 1]);

  // --- Pass A: scope tracking + definition recognition --------------------
  std::vector<ScopeEntry> scopes;
  int depth = 0;
  struct Body {
    std::size_t fn;       // index into out.functions
    std::size_t tok_begin, tok_end;  // body token range (exclusive of braces)
  };
  std::vector<Body> bodies;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "{") {
      ++depth;
      continue;
    }
    if (t == "}") {
      --depth;
      while (!scopes.empty() && scopes.back().depth > depth) scopes.pop_back();
      continue;
    }
    if (t == "namespace") {
      // `namespace a::b {` or anonymous `namespace {`.
      std::string name;
      std::size_t j = i + 1;
      while (j < toks.size() && (toks[j].text == ":" ||
                                 (!toks[j].text.empty() &&
                                  is_ident_char(toks[j].text[0])))) {
        if (toks[j].text != ":") {
          if (!name.empty()) name += "::";
          name += toks[j].text;
        }
        ++j;
      }
      if (j < toks.size() && toks[j].text == "{") {
        scopes.push_back({name, depth + 1});
        // fall through: the "{" is consumed on the next iteration
      }
      i = j - 1;
      continue;
    }
    if (t == "struct" || t == "class") {
      // Class-head: `struct [[..]] Name [final] [: bases] {`.
      std::size_t j = i + 1;
      while (tok_at(toks, j) == "[" && tok_at(toks, j + 1) == "[") {
        while (j < toks.size() && toks[j].text != "]") ++j;
        j += 2;
      }
      const std::string& name = tok_at(toks, j);
      if (name.empty() || !is_ident_char(name[0])) continue;
      std::size_t k = j + 1;
      if (tok_at(toks, k) == "final") ++k;
      // Definition only when the next token opens the class body directly or
      // via a base clause; `struct X;` and `struct X v;` are not scopes.
      if (tok_at(toks, k) != "{" && tok_at(toks, k) != ":") continue;
      if (tok_at(toks, k) == ":") {
        while (k < toks.size() && toks[k].text != "{" && toks[k].text != ";")
          ++k;
        if (tok_at(toks, k) != "{") continue;
      }
      scopes.push_back({name, depth + 1});
      continue;
    }
    // Candidate function definition: ident "(" ... ")" [stuff] "{".
    if (t.empty() || !is_ident_char(t[0]) ||
        std::isdigit(static_cast<unsigned char>(t[0])))
      continue;
    if (is_cpp_keyword(t) || t == "operator") continue;
    if (tok_at(toks, i + 1) != "(") continue;
    std::size_t close = match_paren(toks, i + 1);
    if (close == 0) continue;
    std::size_t body_open = 0;
    // Constructor initializer lists need their own walk; detect the ":" at
    // paren depth 0 directly after the post-paren qualifiers.
    {
      std::size_t k = close + 1;
      while (k < toks.size() &&
             (toks[k].text == "const" || toks[k].text == "noexcept" ||
              toks[k].text == "override" || toks[k].text == "final"))
        ++k;
      if (tok_at(toks, k) == "noexcept") ++k;
      if (tok_at(toks, k) == ":" && tok_at(toks, k + 1) != ":")
        body_open = resolve_ctor_init(toks, k);
    }
    if (body_open == 0) body_open = find_body_open(toks, close + 1);
    if (body_open == 0) continue;
    std::size_t body_close = match_brace(toks, body_open);
    if (body_close == 0) continue;

    FunctionDef fn;
    fn.file = path;
    fn.line = toks[i].line;
    fn.body_begin = toks[body_open].line;
    fn.body_end = toks[body_close].line;
    // Name and qualifier: `Class::name` at the definition site wins; else the
    // innermost class/namespace scope.
    fn.name = t;
    if (i >= 1 && toks[i - 1].text == "~") fn.name = "~" + fn.name;
    if (colon_qualified(toks, i) && i >= 3 &&
        is_ident_char(toks[i - 3].text[0])) {
      fn.scope = toks[i - 3].text;
    } else {
      for (const ScopeEntry& s : scopes) {
        if (s.name.empty()) continue;
        if (!fn.scope.empty()) fn.scope += "::";
        fn.scope += s.name;
      }
    }
    fn.is_virtual = stmt_has_virtual(toks, i);
    if (!fn.is_virtual) {
      for (std::size_t k = close + 1; k < body_open; ++k)
        if (toks[k].text == "override" || toks[k].text == "final")
          fn.is_virtual = true;
    }
    // Trust annotation on the signature line or the line above.
    unsigned mask = 0;
    if (fn.line < static_cast<int>(pure_mask.size())) mask |= pure_mask[fn.line];
    if (fn.line >= 2) mask |= pure_mask[fn.line - 1];
    for (int p = 0; p < kNumProps; ++p)
      fn.trusted[p] = (mask & (1u << static_cast<unsigned>(p))) != 0;
    // Pcg32 parameters.
    for (std::size_t k = i + 2; k < close; ++k) {
      if (toks[k].text != "Pcg32") continue;
      fn.takes_pcg = true;
      std::size_t j = k + 1;
      while (tok_at(toks, j) == "&" || tok_at(toks, j) == "*" ||
             tok_at(toks, j) == "const")
        ++j;
      const std::string& pname = tok_at(toks, j);
      if (!pname.empty() && is_ident_char(pname[0]) &&
          !std::isdigit(static_cast<unsigned char>(pname[0])))
        fn.pcg_params.push_back(pname);
    }

    bodies.push_back({out.functions.size(), body_open + 1, body_close});
    out.functions.push_back(std::move(fn));
    // Do NOT skip the body: nested local definitions still get extracted and
    // the brace/scope tracking above stays consistent.
  }

  // --- Pass B: innermost-function line attribution ------------------------
  // For each token index, the body (by index into `bodies`) it belongs to;
  // later-extracted bodies are more deeply nested... except that extraction
  // order is outer-first, so "smallest token range wins".
  auto body_of_tok = [&](std::size_t ti) -> int {
    int best = -1;
    std::size_t best_span = static_cast<std::size_t>(-1);
    for (std::size_t b = 0; b < bodies.size(); ++b) {
      if (ti < bodies[b].tok_begin || ti >= bodies[b].tok_end) continue;
      std::size_t span = bodies[b].tok_end - bodies[b].tok_begin;
      if (span < best_span) {
        best_span = span;
        best = static_cast<int>(b);
      }
    }
    return best;
  };

  auto set_direct = [&](int body, Prop p, int line, const std::string& token) {
    if (body < 0) return;
    FunctionDef& fn = out.functions[bodies[static_cast<std::size_t>(body)].fn];
    DirectEvidence& ev = fn.direct[static_cast<int>(p)];
    if (ev.line == 0) ev = {line, token};
  };

  // Direct evidence + calls + refs, one sweep over the token stream.
  const std::set<std::string>& growers = grower_tokens();
  const std::set<std::string>& clock_bare = clock_bare_tokens();
  const std::set<std::string>& clock_qual = clock_qual_tokens();
  const std::set<std::string>& draws = rng_draw_tokens();

  for (std::size_t ti = 0; ti < toks.size(); ++ti) {
    const std::string& t = toks[ti].text;
    if (t.empty() || !is_ident_char(t[0])) continue;
    int body = body_of_tok(ti);
    if (body < 0) continue;
    int line = toks[ti].line;
    FunctionDef& fn = out.functions[bodies[static_cast<std::size_t>(body)].fn];

    // may-allocate: `new` and container growers. Lines the author already
    // sanctioned with a NOLINT for the local rule are sanctioned as direct
    // evidence too — the annotation's justification (capacity recycling)
    // applies to callers exactly as much as to the line itself.
    if (t == "new" && !line_suppressed(lines, line, "hot-no-alloc")) {
      set_direct(body, Prop::kAllocate, line, "new");
    } else if (growers.count(t) &&
               (tok_at(toks, ti + 1) == "(" ||
                tok_at(toks, skip_template_args(toks, ti + 1)) == "(") &&
               !line_suppressed(lines, line, "hot-no-alloc")) {
      set_direct(body, Prop::kAllocate, line, t);
    }

    // may-touch-clock: same vocabulary as det-clock, but *without* the path
    // exemption — a clock read in src/util/ is legal to write, yet a hot
    // region reaching it is still a finding at the caller.
    if (!line_suppressed(lines, line, "det-clock")) {
      if (clock_bare.count(t)) {
        set_direct(body, Prop::kClock, line, t);
      } else if (clock_qual.count(t)) {
        bool qualified = colon_qualified(toks, ti);
        bool bare_call = tok_at(toks, ti + 1) == "(" &&
                         !member_access(toks, ti) && !qualified &&
                         tok_at(toks, ti - 1) != ":";
        if (qualified || bare_call) set_direct(body, Prop::kClock, line, t);
      }
    }

    // may-draw-rng: Pcg32 stream-advancing member calls.
    if (draws.count(t) && member_access(toks, ti) &&
        tok_at(toks, ti + 1) == "(")
      set_direct(body, Prop::kDrawRng, line, t);

    // Calls and refs.
    if (is_cpp_keyword(t) || t == "operator") continue;
    if (std::isdigit(static_cast<unsigned char>(t[0]))) continue;
    if (tok_at(toks, ti + 1) == "(") {
      bool dup = false;
      for (const auto& c : fn.calls)
        if (c.first == t) {
          dup = true;
          break;
        }
      if (!dup) fn.calls.emplace_back(t, line);
    } else {
      // Address-taken / bare function reference in argument or assignment
      // position: `(&f`, `, f,`, `= f;`. Only names that resolve to indexed
      // functions become edges, so ordinary variable arguments are inert.
      const std::string& prev = tok_at(toks, ti - 1);
      const std::string& next = tok_at(toks, ti + 1);
      bool addr = prev == "&" && ti >= 2 &&
                  (tok_at(toks, ti - 2) == "(" || tok_at(toks, ti - 2) == "," ||
                   tok_at(toks, ti - 2) == "=");
      bool bare = (prev == "(" || prev == "," || prev == "=") &&
                  (next == "," || next == ")" || next == ";");
      if (addr || bare) {
        bool dup = false;
        for (const auto& r : fn.refs)
          if (r.first == t) {
            dup = true;
            break;
          }
        if (!dup) fn.refs.emplace_back(t, line);
      }
    }
  }

  // may-iterate-unordered: reuse the det-umap-iter rule verbatim (aliases,
  // declared variables, range-for, begin()/cbegin()) and attribute its
  // findings to the innermost enclosing function body by line.
  {
    std::vector<Finding> iter;
    detail_rule_det_umap_iter(path, toks, &iter);
    for (const Finding& f : iter) {
      if (line_suppressed(lines, f.line, "det-umap-iter")) continue;
      // Find the function whose body covers this line (innermost).
      int best = -1;
      int best_span = -1;
      for (std::size_t fi = 0; fi < out.functions.size(); ++fi) {
        const FunctionDef& fn = out.functions[fi];
        if (f.line < fn.body_begin || f.line > fn.body_end) continue;
        int span = fn.body_end - fn.body_begin;
        if (best < 0 || span < best_span) {
          best = static_cast<int>(fi);
          best_span = span;
        }
      }
      if (best >= 0) {
        DirectEvidence& ev =
            out.functions[static_cast<std::size_t>(best)]
                .direct[static_cast<int>(Prop::kUnorderedIter)];
        if (ev.line == 0) ev = {f.line, "unordered-iteration"};
      }
    }
  }

  return out;
}

// ---------------------------------------------------------------------------
// Call graph + fixpoint
// ---------------------------------------------------------------------------

namespace {

/// The file belongs to the library tree (src/), which links nothing from
/// bench/, examples/ or tools/.
bool in_src(const std::string& file) {
  const std::string np = norm_path(file);
  return has_prefix(np, "src/") || np.find("/src/") != std::string::npos;
}

}  // namespace

const std::vector<int>* CallGraph::lookup(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

const std::vector<int>* CallGraph::resolve(const std::string& caller_file,
                                           const std::string& name) const {
  if (!in_src(caller_file)) return lookup(name);
  auto it = src_by_name_.find(name);
  return it == src_by_name_.end() ? nullptr : &it->second;
}

bool CallGraph::raw_has(int node, Prop p) const {
  return nodes_[static_cast<std::size_t>(node)].why[static_cast<int>(p)] !=
         Why::kNone;
}

bool CallGraph::has(int node, Prop p) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  return n.why[static_cast<int>(p)] != Why::kNone &&
         !n.def.trusted[static_cast<int>(p)];
}

std::string CallGraph::display(int node) const {
  const FunctionDef& d = nodes_[static_cast<std::size_t>(node)].def;
  return d.scope.empty() ? d.name : d.scope + "::" + d.name;
}

std::string CallGraph::chain(int node, Prop p) const {
  const int pi = static_cast<int>(p);
  std::string out = display(node);
  int cur = node;
  // Witness edges always terminate at a node with direct evidence (a node is
  // only ever recorded as a witness after it already holds the property); the
  // cap only bounds the length of one finding's message.
  for (int hops = 0; hops < 32; ++hops) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    if (n.why[pi] == Why::kDirect || n.why[pi] == Why::kNone) break;
    cur = n.via[pi];
    out += n.why[pi] == Why::kViaRef ? " ~> " : " -> ";
    out += display(cur);
  }
  const Node& last = nodes_[static_cast<std::size_t>(cur)];
  if (last.why[pi] == Why::kDirect) {
    const DirectEvidence& ev = last.def.direct[pi];
    out += " (`" + ev.token + "` at " + last.def.file + ":" +
           std::to_string(ev.line) + ")";
  }
  return out;
}

CallGraph build_call_graph(std::vector<FileIndex> files) {
  std::sort(files.begin(), files.end(),
            [](const FileIndex& a, const FileIndex& b) {
              return a.file < b.file;
            });
  CallGraph g;
  for (FileIndex& fi : files)
    for (FunctionDef& fn : fi.functions) {
      CallGraph::Node n;
      n.def = std::move(fn);
      for (int p = 0; p < kNumProps; ++p)
        if (n.def.direct[p].line != 0) n.why[p] = CallGraph::Why::kDirect;
      g.nodes_.push_back(std::move(n));
    }
  // Node order is (file, line) — files sorted above, functions in file order.
  for (std::size_t i = 0; i < g.nodes_.size(); ++i) {
    const FunctionDef& d = g.nodes_[i].def;
    g.by_name_[d.name].push_back(static_cast<int>(i));
    if (in_src(d.file)) g.src_by_name_[d.name].push_back(static_cast<int>(i));
  }

  // Fixpoint: a property flows callee -> caller unless the callee trusts it
  // away. Witnesses are assigned once (first discovery in a deterministic
  // iteration order), so chains never cycle: a node becomes a witness only
  // after it already holds the property, and the ground case is kDirect.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < g.nodes_.size(); ++i) {
      CallGraph::Node& n = g.nodes_[i];
      auto absorb = [&](const std::vector<std::pair<std::string, int>>& edges,
                        CallGraph::Why why) {
        for (const auto& [callee, line] : edges) {
          const std::vector<int>* targets = g.resolve(n.def.file, callee);
          if (targets == nullptr) continue;
          for (int t : *targets) {
            if (t == static_cast<int>(i)) continue;
            const CallGraph::Node& tn = g.nodes_[static_cast<std::size_t>(t)];
            for (int p = 0; p < kNumProps; ++p) {
              if (n.why[p] != CallGraph::Why::kNone) continue;
              if (tn.why[p] == CallGraph::Why::kNone || tn.def.trusted[p])
                continue;
              n.why[p] = why;
              n.via[p] = t;
              n.via_line[p] = line;
              changed = true;
            }
          }
        }
      };
      absorb(n.def.calls, CallGraph::Why::kViaCall);
      absorb(n.def.refs, CallGraph::Why::kViaRef);
    }
  }
  return g;
}

}  // namespace dimmer::lint
