// Minimal deterministic JSON parser — the read half of util/json.hpp.
//
// The campaign engine (src/exp/campaign) persists its state as JSON: the
// checkpoint manifest (serialized TrialSpecs, including fault plans) and the
// per-shard JSONL journals (one TrialResult per line). Resuming a killed
// sweep means parsing those files back *exactly*: every double must
// round-trip the "%.17g" emission bit-for-bit and every uint64 (seeds,
// counters) must survive without passing through a double. To guarantee
// that, numbers keep their raw lexeme and are converted on access
// (strtod / strtoull), never eagerly narrowed.
//
// Scope: RFC 8259 minus floating-point NaN/Inf (JSON has neither; the
// emitter writes them as null). Parse errors throw JsonParseError carrying
// 1-based line/column so a corrupt checkpoint names its own defect.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dimmer::util::json {

/// Parse failure: `what()` includes "line L, column C".
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& msg, int line, int column);
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// One parsed JSON value. Object members are kept in *document order*
/// (every serializer in this repo emits std::map order, i.e. sorted keys,
/// so parse -> re-emit through the same emitters is byte-stable).
/// Duplicate keys are a parse error: the files we read never contain them,
/// so accepting one silently would hide corruption.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Members = std::vector<std::pair<std::string, Value>>;

  Value() = default;

  Kind kind() const { return kind_; }

  /// Typed accessors; throw util::RequireError on kind mismatch (a schema
  /// violation in the file being read, not a bug in the parser).
  bool as_bool() const;
  /// strtod of the raw lexeme: exact for everything "%.17g" can emit.
  double as_double() const;
  /// Integer lexeme in [0, 2^64); throws on sign, fraction, or exponent.
  std::uint64_t as_u64() const;
  /// Integer lexeme in [INT64_MIN, INT64_MAX].
  std::int64_t as_i64() const;
  /// Integer lexeme in [INT_MIN, INT_MAX]: throws instead of wrapping.
  int as_int() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const Members& as_object() const;

  /// Object member lookup: `find` returns nullptr when absent, `at` throws.
  const Value* find(const std::string& key) const;
  const Value& at(const std::string& key) const;

  /// The raw number lexeme (e.g. "0.10000000000000001"); numbers only.
  const std::string& number_lexeme() const;

 private:
  friend class Parser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  ///< string value or number lexeme
  std::vector<Value> array_;
  Members members_;  ///< object members, document order
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
Value parse(const std::string& text);

}  // namespace dimmer::util::json
