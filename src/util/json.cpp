#include "util/json.hpp"

#include <cstdint>
#include <cstdlib>

namespace longtail::util::json {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

class Parser {
 public:
  explicit Parser(std::string_view s)
      : begin_(s.data()), p_(s.data()), end_(s.data() + s.size()) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (p_ != end_) fail("trailing content after the top-level value");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    const auto offset = static_cast<std::size_t>(p_ - begin_);
    throw JsonError(
        "JSON: " + std::string(what) + " at offset " + std::to_string(offset),
        offset);
  }

  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r'))
      ++p_;
  }

  char peek() {
    skip_ws();
    if (p_ >= end_) fail("unexpected end");
    return *p_;
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++p_;
  }

  bool consume_literal(std::string_view lit) {
    if (static_cast<std::size_t>(end_ - p_) < lit.size() ||
        std::string_view(p_, lit.size()) != lit)
      return false;
    p_ += lit.size();
    return true;
  }

  std::uint32_t hex4() {
    if (end_ - p_ < 4) fail("bad \\u escape");
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const int h = hex_value(p_[i]);
      if (h < 0) fail("bad \\u escape");
      cp = cp * 16 + static_cast<std::uint32_t>(h);
    }
    p_ += 4;
    return cp;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (p_ < end_ && *p_ != '"') {
      const char c = *p_;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      ++p_;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ >= end_) fail("bad escape");
      switch (*p_++) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The project's writers only escape control characters; a
          // wider code point is kept as '?' rather than re-encoded.
          const std::uint32_t cp = hex4();
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: fail("bad escape");
      }
    }
    if (p_ >= end_) fail("unterminated string");
    ++p_;  // closing quote
    return out;
  }

  // -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)? — validated here,
  // converted by strtod only once the token is known to be JSON.
  void number(Value& v) {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    if (p_ < end_ && *p_ == '0') {
      ++p_;
    } else if (p_ < end_ && is_digit(*p_)) {
      while (p_ < end_ && is_digit(*p_)) ++p_;
    } else {
      p_ = start;
      fail("expected a value");
    }
    if (p_ < end_ && *p_ == '.') {
      ++p_;
      if (p_ >= end_ || !is_digit(*p_)) fail("bad number");
      while (p_ < end_ && is_digit(*p_)) ++p_;
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ >= end_ || !is_digit(*p_)) fail("bad number");
      while (p_ < end_ && is_digit(*p_)) ++p_;
    }
    v.kind = Value::kNum;
    v.str.assign(start, p_);
    v.num = std::strtod(v.str.c_str(), nullptr);
  }

  Value value(std::size_t depth) {
    const char c = peek();
    Value v;
    if (c == '{' || c == '[') {
      if (depth >= kMaxDepth) fail("nesting too deep");
      ++p_;
    }
    if (c == '{') {
      v.kind = Value::kObj;
      if (peek() == '}') {
        ++p_;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = string_body();
        expect(':');
        v.obj.emplace_back(std::move(key), value(depth + 1));
        if (peek() == ',') {
          ++p_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.kind = Value::kArr;
      if (peek() == ']') {
        ++p_;
        return v;
      }
      for (;;) {
        v.arr.push_back(value(depth + 1));
        if (peek() == ',') {
          ++p_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = Value::kStr;
      v.str = string_body();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = Value::kBool;
      v.b = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = Value::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    number(v);
    return v;
  }

  const char* begin_;
  const char* p_;
  const char* end_;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : obj)
    if (k == key) return &v;
  return nullptr;
}

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace longtail::util::json
