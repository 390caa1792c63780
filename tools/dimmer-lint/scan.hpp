// Shared token-stream machinery for dimmer-lint.
//
// Both analysis passes consume the same three-layer view of a translation
// unit, so the machinery lives here rather than in lint.cpp:
//
//   1. split_channels — per-line code and comment channels. String and
//      character literal *contents* are blanked (quotes kept) so token scans
//      never fire on, e.g., a log message mentioning "mt19937"; comment text
//      is captured separately because that is where the directive and
//      suppression syntax lives.
//   2. tokenize — identifiers/numbers as words, everything else as
//      single-character punctuation, each token tagged with its 1-based line.
//   3. scan_directives — the `dimmer-lint:` region/annotation markers parsed
//      out of the comment channel.
//
// Pass 1 (index.cpp) uses this to extract function definitions and direct
// property evidence; pass 2 (lint.cpp) uses it to run the per-file rules.
// The token vocabularies the two passes share (allocation growers, ambient
// clock reads, unordered containers, Pcg32 draw methods) are exposed here so
// a rule and the property it propagates can never disagree about what counts.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint.hpp"

namespace dimmer::lint {

/// One source line, split into blanked code text and comment text. Columns
/// are preserved (blanking writes spaces).
struct LineInfo {
  std::string code;
  std::string comment;
};

/// One token: an identifier/number word or a single punctuation character.
struct Tok {
  std::string text;
  int line = 0;  ///< 1-based
};

bool is_ident_char(char c);

std::vector<LineInfo> split_channels(const std::string& src);
std::vector<Tok> tokenize(const std::vector<LineInfo>& lines);

/// The `dimmer-lint:` directives of one file, resolved to per-line flags.
struct Directives {
  std::vector<bool> hot;    ///< per line (1-based index): inside hot-path region
  std::vector<bool> fp_ok;  ///< line carries `dimmer-lint: fp-order-ok`
  std::vector<Finding> region_errors;  ///< unbalanced begin/end
};

Directives scan_directives(const std::string& path,
                           const std::vector<LineInfo>& lines);

/// True if `rule` is suppressed by `marker` (NOLINT-DIMMER /
/// NOLINTNEXTLINE-DIMMER, optionally with a parenthesized rule list) in one
/// line's comment text.
bool marker_suppresses(const std::string& comment, const std::string& marker,
                       const std::string& rule);

/// True if `rule` is suppressed on `line` by a same-line NOLINT-DIMMER or a
/// previous-line NOLINTNEXTLINE-DIMMER.
bool line_suppressed(const std::vector<LineInfo>& lines, int line,
                     const std::string& rule);

// --- Token cursor helpers -------------------------------------------------

/// toks[i].text, or "" past the end.
const std::string& tok_at(const std::vector<Tok>& t, std::size_t i);

/// True if toks[i] is preceded by "::" (with or without a leading "std").
bool colon_qualified(const std::vector<Tok>& t, std::size_t i);

/// True if toks[i] is accessed as a member (`.x`, `->x`).
bool member_access(const std::vector<Tok>& t, std::size_t i);

/// Index just past a balanced template argument list starting at toks[i]
/// (which must be "<"); returns i if it does not look like one.
std::size_t skip_template_args(const std::vector<Tok>& t, std::size_t i);

/// Index of the ")" matching toks[open] (which must be "("); 0 if unmatched.
std::size_t match_paren(const std::vector<Tok>& t, std::size_t open);

// --- Small string utilities ----------------------------------------------

std::string trimmed_line(const std::string& src_line);
bool has_prefix(const std::string& s, const std::string& prefix);

/// Normalizes separators and strips leading "./" for prefix matching.
std::string norm_path(std::string p);

// --- Shared token vocabularies -------------------------------------------

/// Container-growing / allocating member calls (hot-no-alloc, may-allocate).
const std::set<std::string>& grower_tokens();

/// Ambient clock / randomness identifiers that are bad wherever they appear
/// (det-clock, may-touch-clock).
const std::set<std::string>& clock_bare_tokens();

/// Short, collision-prone clock names: only bad when "::"-qualified or used
/// as a bare call (`time(nullptr)`), never as members of other objects.
const std::set<std::string>& clock_qual_tokens();

/// std::unordered_* container type names (det-umap-iter, may-iterate-unordered).
const std::set<std::string>& unordered_tokens();

/// util::Pcg32 member calls that advance the stream (may-draw-rng).
const std::set<std::string>& rng_draw_tokens();

/// C++ keywords that can precede "(" without being a call or definition.
bool is_cpp_keyword(const std::string& s);

/// The det-umap-iter rule body (alias resolution, declared variables,
/// range-for, explicit begin()/cbegin()). Shared between pass 2 (which
/// reports its findings directly) and pass 1 (which maps them to
/// may-iterate-unordered direct evidence), so the rule and the property it
/// propagates can never disagree.
void detail_rule_det_umap_iter(const std::string& path,
                               const std::vector<Tok>& toks,
                               std::vector<Finding>* out);

}  // namespace dimmer::lint
