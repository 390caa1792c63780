// Minimal command-line flag parsing for examples and bench harnesses.
// Supports `--key=value`, `--key value`, and boolean `--flag`.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dimmer::util {

/// Strict full-string number parsing, shared by Cli and the exp env knobs:
/// `s` must be one base-10 integer (parse_long) or one strtod number
/// (parse_double) and nothing else — no leading whitespace, no trailing
/// characters, not empty, not out of range. Returns nullopt otherwise.
/// parse_double accepts "inf" and "nan"; callers that need a finite value
/// reject them.
std::optional<long> parse_long(const std::string& s);
std::optional<double> parse_double(const std::string& s);

class Cli {
 public:
  /// Parses argv; throws RequireError on malformed arguments.
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Numeric flags parse strictly (parse_long / parse_double) and throw
  /// RequireError on malformed values; get_double also rejects inf and NaN.
  long get_int(const std::string& key, long fallback) const;
  /// get_int, and throws RequireError unless the value lies in [lo, hi]:
  /// a count flag's range, so no out-of-range value reaches a cast.
  long get_int(const std::string& key, long fallback, long lo, long hi) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// An example's exit status: `body(Cli(argc, argv))`'s, or 2 when the
/// arguments do not parse or an exception escapes the body. The exception
/// (a malformed flag's RequireError, say) is printed as `error: <what>` on
/// stderr instead of aborting through std::terminate, as bench::run_main
/// does for the benches. Every example's main is
/// `return util::run_main(argc, argv, example_main);`.
int run_main(int argc, const char* const* argv, int (*body)(const Cli&));

}  // namespace dimmer::util
