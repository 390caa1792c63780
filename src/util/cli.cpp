#include "util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>

#include "util/check.hpp"

namespace dimmer::util {

namespace {

/// True when strtol/strtod consumed all of `s` without overflow. Both skip
/// leading whitespace themselves; " 8" is still a typo here.
bool parsed_fully(const std::string& s, const char* end) {
  return !s.empty() && end == s.c_str() + s.size() && errno != ERANGE &&
         !std::isspace(static_cast<unsigned char>(s[0]));
}

}  // namespace

std::optional<long> parse_long(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (!parsed_fully(s, end)) return std::nullopt;
  return v;
}

std::optional<double> parse_double(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (!parsed_fully(s, end)) return std::nullopt;
  return v;
}

Cli::Cli(int argc, const char* const* argv) {
  DIMMER_REQUIRE(argc >= 1, "argc must be >= 1");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    DIMMER_REQUIRE(!body.empty(), "bare '--' is not a valid flag");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";  // boolean flag
    }
  }
}

bool Cli::has(const std::string& key) const { return flags_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& key, long fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  if (const std::optional<long> v = parse_long(it->second)) return *v;
  throw RequireError("flag --" + key + " is not an integer: " + it->second);
}

long Cli::get_int(const std::string& key, long fallback, long lo,
                  long hi) const {
  const long v = get_int(key, fallback);
  if (v >= lo && v <= hi) return v;
  throw RequireError("flag --" + key + " out of [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "]: " + std::to_string(v));
}

double Cli::get_double(const std::string& key, double fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::optional<double> v = parse_double(it->second);
  if (v && std::isfinite(*v)) return *v;
  throw RequireError("flag --" + key + " is not a finite number: " +
                     it->second);
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw RequireError("flag --" + key + " is not a boolean: " + v);
}

int run_main(int argc, const char* const* argv, int (*body)(const Cli&)) {
  try {
    return body(Cli(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace dimmer::util
