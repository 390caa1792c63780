#include "util/json_parse.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace dimmer::util::json {

namespace {
std::string locate(const std::string& msg, int line, int column) {
  std::ostringstream os;
  os << "JSON parse error: " << msg << " (line " << line << ", column "
     << column << ")";
  return os.str();
}
}  // namespace

JsonParseError::JsonParseError(const std::string& msg, int line, int column)
    : std::runtime_error(locate(msg, line, column)),
      line_(line),
      column_(column) {}

bool Value::as_bool() const {
  DIMMER_REQUIRE(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

double Value::as_double() const {
  DIMMER_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  // The lexeme was validated by the parser; strtod of a "%.17g" rendering
  // reproduces the original double bit-for-bit (round-trip guarantee).
  return std::strtod(scalar_.c_str(), nullptr);
}

std::uint64_t Value::as_u64() const {
  DIMMER_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  DIMMER_REQUIRE(scalar_.find_first_of(".eE-") == std::string::npos,
                 "JSON number is not a non-negative integer");
  errno = 0;
  char* end = nullptr;
  std::uint64_t v = std::strtoull(scalar_.c_str(), &end, 10);
  DIMMER_REQUIRE(end == scalar_.c_str() + scalar_.size() && errno != ERANGE,
                 "JSON number does not fit in uint64");
  return v;
}

std::int64_t Value::as_i64() const {
  DIMMER_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  DIMMER_REQUIRE(scalar_.find_first_of(".eE") == std::string::npos,
                 "JSON number is not an integer");
  errno = 0;
  char* end = nullptr;
  std::int64_t v = std::strtoll(scalar_.c_str(), &end, 10);
  DIMMER_REQUIRE(end == scalar_.c_str() + scalar_.size() && errno != ERANGE,
                 "JSON number does not fit in int64");
  return v;
}

int Value::as_int() const {
  const std::int64_t v = as_i64();
  DIMMER_REQUIRE(v >= std::numeric_limits<int>::min() &&
                     v <= std::numeric_limits<int>::max(),
                 "JSON number does not fit in int");
  return static_cast<int>(v);
}

const std::string& Value::as_string() const {
  DIMMER_REQUIRE(kind_ == Kind::kString, "JSON value is not a string");
  return scalar_;
}

const std::vector<Value>& Value::as_array() const {
  DIMMER_REQUIRE(kind_ == Kind::kArray, "JSON value is not an array");
  return array_;
}

const Value::Members& Value::as_object() const {
  DIMMER_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  return members_;
}

const Value* Value::find(const std::string& key) const {
  DIMMER_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  DIMMER_REQUIRE(v != nullptr, "missing JSON object key: " + key);
  return *v;
}

const std::string& Value::number_lexeme() const {
  DIMMER_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  return scalar_;
}

// ---------------------------------------------------------------------------
// Recursive-descent parser.
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  // Nesting depth cap: a recursive parser over attacker-shaped (or merely
  // corrupt) input must not turn a deep bracket run into a stack overflow.
  static constexpr int kMaxDepth = 96;

  [[noreturn]] void fail(const std::string& msg) const {
    int line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonParseError(msg, line, col);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  char take() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect_literal(const char* lit) {
    for (const char* p = lit; *p; ++p)
      if (pos_ >= text_.size() || text_[pos_++] != *p)
        fail(std::string("invalid literal (expected `") + lit + "`)");
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case 'n': {
        expect_literal("null");
        return Value();
      }
      case 't': {
        expect_literal("true");
        Value v;
        v.kind_ = Value::Kind::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        expect_literal("false");
        Value v;
        v.kind_ = Value::Kind::kBool;
        v.bool_ = false;
        return v;
      }
      case '"': {
        Value v;
        v.kind_ = Value::Kind::kString;
        v.scalar_ = parse_string();
        return v;
      }
      case '[':
        return parse_array(depth);
      case '{':
        return parse_object(depth);
      default:
        return parse_number();
    }
  }

  std::string parse_string() {
    if (take() != '"') fail("expected string");
    std::string out;
    for (;;) {
      char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape");
          }
          // Our emitter only writes \u00XX for control bytes; decode the
          // BMP code point as UTF-8 so arbitrary valid JSON still parses.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek())))
      fail("invalid value");
    // Leading zero rule: "0" may not be followed by another digit.
    if (peek() == '0') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())))
        fail("leading zero in number");
    } else {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        fail("digit expected after decimal point");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        fail("digit expected in exponent");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    Value v;
    v.kind_ = Value::Kind::kNumber;
    v.scalar_ = text_.substr(start, pos_ - start);
    return v;
  }

  Value parse_array(int depth) {
    take();  // '['
    Value v;
    v.kind_ = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      v.array_.push_back(parse_value(depth + 1));
      skip_ws();
      char c = take();
      if (c == ']') return v;
      if (c != ',') fail("expected `,` or `]` in array");
    }
  }

  Value parse_object(int depth) {
    take();  // '{'
    Value v;
    v.kind_ = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected string key in object");
      std::string key = parse_string();
      for (const auto& [k, existing] : v.members_) {
        (void)existing;
        if (k == key) fail("duplicate object key: " + key);
      }
      skip_ws();
      if (take() != ':') fail("expected `:` after object key");
      skip_ws();
      v.members_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      char c = take();
      if (c == '}') return v;
      if (c != ',') fail("expected `,` or `}` in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Value parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace dimmer::util::json
