// The one JSON reader of the project: a small recursive-descent parser
// into an owning DOM. tools/trace_report (via util/trace_analysis),
// tools/bench_compare and the trace tests all read JSON through it.
//
// It accepts exactly RFC 8259 JSON, in any formatting (jq-pretty-printed
// files parse the same as compact ones), and rejects:
//   * trailing content after the top-level value;
//   * number tokens that strtod takes but JSON does not (nan, inf, hex,
//     a leading '+', a leading '.', leading zeros);
//   * unescaped control characters inside strings;
//   * nesting deeper than kMaxDepth — a hostile "[[[[..." fails with a
//     typed error instead of overflowing the stack.
// Every failure is a JsonError carrying the byte offset it was found at.
//
// A \u escape below 0x80 decodes to its character and any wider one to
// '?'; other bytes of a string pass through unchanged. Object members
// keep document order, duplicates included; find() returns the first.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace longtail::util::json {

inline constexpr std::size_t kMaxDepth = 256;

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

struct Value {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool b = false;
  double num = 0;
  // kStr: the decoded string. kNum: the number's source text, so integer
  // values too wide for a double can still be compared exactly.
  std::string str;
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;

  // First member named `key` of an object; nullptr when absent or when
  // this value is not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  [[nodiscard]] double num_or(double fallback) const {
    return kind == kNum ? num : fallback;
  }
  [[nodiscard]] std::string_view str_or(std::string_view fallback) const {
    return kind == kStr ? std::string_view(str) : fallback;
  }
};

// Parses one complete JSON document. Throws JsonError on any deviation.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace longtail::util::json
