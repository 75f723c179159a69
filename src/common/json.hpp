// The one JSON reader: scenario files, result tables, cache and checkpoint
// records, and the server heartbeat all parse through it.
//
// It is strict - RFC 8259 grammar, every escape decoded and checked, raw
// control characters and trailing bytes rejected - with one extension: the
// bare numbers nan, -nan, inf and -inf, which the result-record writer has
// always emitted for non-finite doubles (cache files on disk contain them).
// Numbers keep their raw spelling, so callers decode them with the strict
// token parsers of common/parse.hpp and common/float_io.hpp and a 64-bit
// integer never passes through a double.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace smartnoc::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  /// String contents (escapes decoded, \u as UTF-8), or the raw spelling of
  /// a number or boolean ("12", "-0.5e3", "nan", "true").
  std::string text;
  std::vector<Value> items;                             ///< array elements
  std::vector<std::pair<std::string, Value>> members;  ///< object members, in order

  /// `text` after checking the value is of `kind`; throws ConfigError
  /// naming `what` otherwise.
  const std::string& as(Kind kind, const std::string& what) const;
};

/// Parses one complete JSON document. Throws ConfigError
/// "<context>, offset <byte>: <problem>" on any malformed input.
Value parse(const std::string& text, const std::string& context);

}  // namespace smartnoc::json
