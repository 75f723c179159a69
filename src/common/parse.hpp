// Shared token parsing for the text front-ends (sweep files, scenario
// files, CLI flags). All parsers are strict - trailing garbage throws, so
// a typo'd separator cannot silently truncate a value - and throw
// ConfigError naming the offending field.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/error.hpp"

namespace smartnoc {

inline std::string trim_token(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

inline std::string lower_token(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

inline int parse_int_token(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ConfigError("malformed " + what + ": '" + s + "'");
  }
}

inline double parse_double_token(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ConfigError("malformed " + what + ": '" + s + "'");
  }
}

inline std::uint64_t parse_u64_token(const std::string& s, const std::string& what) {
  // A '-' would wrap through strtoull to a huge cycle count (a "warmup = -1"
  // sweep would spin for ~1.8e19 cycles), and stoull skips leading blanks
  // before one; so the first character must be a digit.
  try {
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0]))) {
      throw std::invalid_argument(s);
    }
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ConfigError("malformed " + what + ": '" + s +
                      "' (expected a non-negative integer)");
  }
}

inline bool parse_bool_token(const std::string& s, const std::string& what) {
  const std::string t = lower_token(s);
  if (t == "true" || t == "1" || t == "yes") return true;
  if (t == "false" || t == "0" || t == "no") return false;
  throw ConfigError("malformed " + what + ": '" + s + "' (expected a boolean)");
}

/// Escapes a string for embedding in a JSON string literal (named escapes
/// for the common controls, \u00xx for the rest). Shared by every JSON
/// emitter (scenario/session serialization, explorer result sink,
/// telemetry exports), so escaping fixes land in one place.
inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace smartnoc
