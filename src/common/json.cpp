#include "common/json.hpp"

#include <charconv>
#include <cstring>

#include "common/error.hpp"

namespace smartnoc::json {

namespace {

using Kind = Value::Kind;

/// Nesting bound: the documents we read are at most three levels deep, and
/// recursion on hostile input must not exhaust the stack.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  Parser(const std::string& s, const std::string& context) : s_(s), context_(context) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes after the JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ConfigError(context_ + ", offset " + std::to_string(pos_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool at(char c) const { return pos_ < s_.size() && s_[pos_] == c; }

  bool consume(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  void expect(char c) {
    skip_ws();
    if (!at(c)) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Value value(int depth) {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    Value v;
    if (at('{') || at('[')) {
      if (depth >= kMaxDepth) fail("nesting deeper than " + std::to_string(kMaxDepth));
      v.kind = at('{') ? Kind::Object : Kind::Array;
      const char close = at('{') ? '}' : ']';
      ++pos_;
      skip_ws();
      if (at(close)) {
        ++pos_;
        return v;
      }
      while (true) {
        if (v.kind == Kind::Object) {
          skip_ws();
          std::string key = string();
          expect(':');
          v.members.emplace_back(std::move(key), value(depth + 1));
        } else {
          v.items.push_back(value(depth + 1));
        }
        skip_ws();
        if (!at(',')) break;
        ++pos_;
      }
      expect(close);
      return v;
    }
    const std::size_t start = pos_;
    if (at('"')) {
      v.kind = Kind::String;
      v.text = string();
      return v;
    }
    if (consume("true") || consume("false")) {
      v.kind = Kind::Bool;
    } else if (!consume("null")) {
      v.kind = Kind::Number;
      number();
    }
    v.text = s_.substr(start, pos_ - start);
    return v;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or -?(nan|inf).
  void number() {
    if (at('-')) ++pos_;
    if (consume("nan") || consume("inf")) return;
    if (at('0')) {
      ++pos_;
    } else if (!digits()) {
      fail("expected a JSON value");
    }
    if (at('.')) {
      ++pos_;
      if (!digits()) fail("expected digits after '.'");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digits()) fail("expected exponent digits");
    }
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  std::string string() {
    if (!at('"')) fail("expected a string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      switch (const char e = s_[pos_++]) {
        case '"':
        case '\\':
        case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, code_point()); break;
        default: --pos_; fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    const char* first = s_.data() + pos_;
    if (pos_ + 4 > s_.size() || std::from_chars(first, first + 4, v, 16).ptr != first + 4) {
      fail("\\u escape needs four hex digits");
    }
    pos_ += 4;
    return v;
  }

  /// One \u escape (the "\u" already consumed), joining a surrogate pair.
  unsigned code_point() {
    const unsigned hi = hex4();
    if (hi >= 0xDC00 && hi <= 0xDFFF) fail("unpaired low surrogate");
    if (hi < 0xD800 || hi > 0xDBFF) return hi;
    if (!consume("\\u")) fail("unpaired high surrogate");
    const unsigned lo = hex4();
    if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired high surrogate");
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  /// UTF-8: a lead byte carrying the high bits, then 6-bit continuation bytes.
  static void append_utf8(std::string& out, unsigned cp) {
    static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
  }

  const std::string& s_;
  const std::string& context_;
  std::size_t pos_ = 0;
};

}  // namespace

const std::string& Value::as(Kind want, const std::string& what) const {
  static const char* const kNames[] = {"null",     "a boolean", "a number",
                                       "a string", "an array",  "an object"};
  if (kind != want) {
    throw ConfigError(what + ": expected " + kNames[static_cast<int>(want)] + ", got " +
                      kNames[static_cast<int>(kind)]);
  }
  return text;
}

Value parse(const std::string& text, const std::string& context) {
  return Parser(text, context).document();
}

}  // namespace smartnoc::json
