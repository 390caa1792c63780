#include "scan.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace dimmer::lint {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<LineInfo> split_channels(const std::string& src) {
  enum class St { kCode, kLineComment, kBlockComment, kStr, kChr, kRawStr };
  std::vector<LineInfo> lines(1);
  St st = St::kCode;
  std::string raw_end;  // ")delim\"" terminator while in kRawStr
  for (std::size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char n = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      if (st == St::kLineComment) st = St::kCode;
      // Unterminated string/char literals do not really span lines in valid
      // C++; reset so one bad line cannot blank the rest of the file.
      if (st == St::kStr || st == St::kChr) st = St::kCode;
      lines.emplace_back();
      continue;
    }
    LineInfo& line = lines.back();
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLineComment;
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlockComment;
          line.code += "  ";
          ++i;
        } else if (c == '"') {
          bool raw = !line.code.empty() && line.code.back() == 'R';
          if (raw) {
            std::string delim;
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '(' && src[j] != '\n')
              delim += src[j++];
            raw_end = ")" + delim + "\"";
            st = St::kRawStr;
            line.code += '"';
            i = j;  // consume up to and including '('
          } else {
            st = St::kStr;
            line.code += '"';
          }
        } else if (c == '\'') {
          // Digit separator (1'000) vs character literal.
          bool sep = !line.code.empty() &&
                     std::isalnum(static_cast<unsigned char>(line.code.back())) &&
                     std::isalnum(static_cast<unsigned char>(n));
          if (sep) {
            line.code += c;
          } else {
            st = St::kChr;
            line.code += '\'';
          }
        } else {
          line.code += c;
        }
        break;
      case St::kLineComment:
        line.comment += c;
        break;
      case St::kBlockComment:
        if (c == '*' && n == '/') {
          st = St::kCode;
          ++i;
        } else {
          line.comment += c;
        }
        break;
      case St::kStr:
        if (c == '\\') {
          line.code += ' ';
          if (n != '\0' && n != '\n') {
            line.code += ' ';
            ++i;
          }
        } else if (c == '"') {
          line.code += '"';
          st = St::kCode;
        } else {
          line.code += ' ';
        }
        break;
      case St::kChr:
        if (c == '\\') {
          line.code += ' ';
          if (n != '\0' && n != '\n') {
            line.code += ' ';
            ++i;
          }
        } else if (c == '\'') {
          line.code += '\'';
          st = St::kCode;
        } else {
          line.code += ' ';
        }
        break;
      case St::kRawStr:
        if (src.compare(i, raw_end.size(), raw_end) == 0) {
          line.code += '"';
          i += raw_end.size() - 1;
          st = St::kCode;
        } else {
          line.code += c == '\t' ? '\t' : ' ';
        }
        break;
    }
  }
  return lines;
}

std::vector<Tok> tokenize(const std::vector<LineInfo>& lines) {
  std::vector<Tok> toks;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    std::size_t i = 0;
    while (i < code.size()) {
      char c = code[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (is_ident_char(c)) {
        std::size_t j = i;
        while (j < code.size() && is_ident_char(code[j])) ++j;
        toks.push_back({code.substr(i, j - i), static_cast<int>(li + 1)});
        i = j;
      } else {
        toks.push_back({std::string(1, c), static_cast<int>(li + 1)});
        ++i;
      }
    }
  }
  return toks;
}

namespace {

bool comment_has(const std::string& comment, const std::string& what) {
  return comment.find(what) != std::string::npos;
}

}  // namespace

Directives scan_directives(const std::string& path,
                           const std::vector<LineInfo>& lines) {
  Directives d;
  d.hot.assign(lines.size() + 2, false);
  d.fp_ok.assign(lines.size() + 2, false);
  int begin_line = -1;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& c = lines[li].comment;
    int ln = static_cast<int>(li + 1);
    if (comment_has(c, "dimmer-lint: fp-order-ok")) d.fp_ok[li + 1] = true;
    if (comment_has(c, "dimmer-lint: hot-path begin")) {
      if (begin_line >= 0) {
        d.region_errors.push_back({path, ln, "hot-no-alloc",
                                   "nested `hot-path begin` (previous region "
                                   "opened on line " +
                                       std::to_string(begin_line) + ")",
                                   "", false});
      }
      begin_line = ln;
    } else if (comment_has(c, "dimmer-lint: hot-path end")) {
      if (begin_line < 0) {
        d.region_errors.push_back({path, ln, "hot-no-alloc",
                                   "`hot-path end` without a matching begin",
                                   "", false});
      } else {
        for (int k = begin_line + 1; k < ln; ++k) d.hot[k] = true;
        begin_line = -1;
      }
    }
  }
  if (begin_line >= 0) {
    d.region_errors.push_back(
        {path, begin_line, "hot-no-alloc",
         "unterminated `hot-path begin` region", "", false});
  }
  return d;
}

bool marker_suppresses(const std::string& comment, const std::string& marker,
                       const std::string& rule) {
  std::size_t pos = comment.find(marker);
  if (pos == std::string::npos) return false;
  std::size_t after = pos + marker.size();
  // Bare marker (no rule list) suppresses everything.
  if (after >= comment.size() || comment[after] != '(') return true;
  std::size_t close = comment.find(')', after);
  std::string list = comment.substr(
      after + 1, close == std::string::npos ? std::string::npos
                                            : close - after - 1);
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::size_t b = item.find_first_not_of(" \t");
    std::size_t e = item.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    if (item.substr(b, e - b + 1) == rule) return true;
  }
  return false;
}

bool line_suppressed(const std::vector<LineInfo>& lines, int line,
                     const std::string& rule) {
  // NOLINTNEXTLINE-DIMMER contains no "NOLINT-DIMMER" substring, so the two
  // markers cannot shadow each other.
  if (line >= 1 && line <= static_cast<int>(lines.size()) &&
      marker_suppresses(lines[line - 1].comment, "NOLINT-DIMMER", rule))
    return true;
  if (line >= 2 &&
      marker_suppresses(lines[line - 2].comment, "NOLINTNEXTLINE-DIMMER",
                        rule))
    return true;
  return false;
}

const std::string& tok_at(const std::vector<Tok>& t, std::size_t i) {
  static const std::string kEmpty;
  return i < t.size() ? t[i].text : kEmpty;
}

bool colon_qualified(const std::vector<Tok>& t, std::size_t i) {
  return i >= 2 && tok_at(t, i - 1) == ":" && tok_at(t, i - 2) == ":";
}

bool member_access(const std::vector<Tok>& t, std::size_t i) {
  if (i >= 1 && tok_at(t, i - 1) == ".") return true;
  return i >= 2 && tok_at(t, i - 1) == ">" && tok_at(t, i - 2) == "-";
}

std::size_t skip_template_args(const std::vector<Tok>& t, std::size_t i) {
  if (tok_at(t, i) != "<") return i;
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">") {
      if (--depth == 0) return j + 1;
    }
    if (t[j].text == ";" || t[j].text == "{") break;  // not a template list
  }
  return i;
}

std::size_t match_paren(const std::vector<Tok>& t, std::size_t open) {
  if (tok_at(t, open) != "(") return 0;
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    if (t[j].text == "(") ++depth;
    if (t[j].text == ")" && --depth == 0) return j;
  }
  return 0;
}

std::string trimmed_line(const std::string& src_line) {
  std::size_t b = src_line.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = src_line.find_last_not_of(" \t\r");
  return src_line.substr(b, e - b + 1);
}

bool has_prefix(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string norm_path(std::string p) {
  std::replace(p.begin(), p.end(), '\\', '/');
  while (has_prefix(p, "./")) p.erase(0, 2);
  return p;
}

const std::set<std::string>& grower_tokens() {
  static const std::set<std::string> kGrowers = {
      "make_unique",  "make_shared",   "push_back", "emplace_back",
      "push_front",   "emplace_front", "emplace",   "insert",
      "resize",       "reserve",       "assign",    "append"};
  return kGrowers;
}

const std::set<std::string>& clock_bare_tokens() {
  static const std::set<std::string> kBareBad = {
      "steady_clock",   "system_clock",  "high_resolution_clock",
      "random_device",  "mt19937",       "mt19937_64",
      "minstd_rand",    "minstd_rand0",  "default_random_engine",
      "ranlux24_base",  "ranlux48_base", "knuth_b",
      "gettimeofday",   "timespec_get",  "localtime",
      "gmtime",         "clock_gettime",
      // Sleeps: a thread that waits out wall time is reading the ambient
      // clock with extra steps. Supervision code (the campaign engine's
      // respawn backoff and poll loops) goes through util::sleep_seconds,
      // which lives in the audited src/util/ seam like every clock read.
      "sleep_for",      "sleep_until",   "usleep",
      "nanosleep"};
  return kBareBad;
}

const std::set<std::string>& clock_qual_tokens() {
  static const std::set<std::string> kQualBad = {"rand", "srand", "time",
                                                 "clock", "sleep"};
  return kQualBad;
}

const std::set<std::string>& unordered_tokens() {
  static const std::set<std::string> kUnorderedKw = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kUnorderedKw;
}

const std::set<std::string>& rng_draw_tokens() {
  static const std::set<std::string> kDraws = {
      "next_u32",      "next_u64", "uniform",   "uniform_below",
      "uniform_int",   "bernoulli", "normal",   "shuffle",
      "fork"};
  return kDraws;
}

bool is_cpp_keyword(const std::string& s) {
  static const std::set<std::string> kKw = {
      "if",       "for",      "while",   "switch",   "catch",  "return",
      "sizeof",   "alignof",  "alignas", "decltype", "typeid", "new",
      "delete",   "throw",    "static_assert",       "noexcept",
      "static_cast",          "dynamic_cast",        "const_cast",
      "reinterpret_cast",     "co_await", "co_yield", "co_return",
      "and",      "or",       "not",     "assert",   "defined",
      // Can precede "(" in `if constexpr (...)`, requires-clauses, and
      // explicit(bool) without being a call or a definition.
      "constexpr", "consteval", "constinit", "requires", "explicit"};
  return kKw.count(s) != 0;
}

}  // namespace dimmer::lint
