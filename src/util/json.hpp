// The one JSON codec of the repo: the writer half every artifact emitter
// uses, and the recursive-descent reader every artifact consumer uses.
//
// Writing (header-only, so util-free leaves such as noceas_obs can use it):
//   - number(): shortest round-trip decimal text, `null` for NaN/inf;
//   - write_string(): `\"`, `\\` and `\n` in short form, every other byte
//     below 0x20 as `\u00XX`; bytes >= 0x80 (UTF-8) pass through untouched.
//
// Reading: parse() accepts all of RFC 8259 — every escape, `\uXXXX` decoded
// to UTF-8 (surrogate pairs to one 4-byte sequence, lone surrogates
// rejected) — plus raw control bytes inside strings, which artifacts written
// by earlier versions contain.  Nesting deeper than kMaxDepth is rejected.
// `null` numbers read back as NaN, and the integer accessors throw instead
// of casting a non-finite or out-of-range number.  Malformed input throws
// noceas::Error tagged with the caller-supplied context string so the CLI
// can surface "manifest: bad number" rather than a bare parse error.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.hpp"

namespace noceas::json {

/// Deepest array/object nesting parse() accepts.  The writers stay under 10
/// levels; the cap only keeps hostile input from overflowing the stack.
inline constexpr int kMaxDepth = 128;

/// Shortest round-trip decimal form (locale-independent); NaN/inf are not
/// JSON and degrade to `null`.
[[nodiscard]] inline std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];  // the longest shortest-form double is 24 characters
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Writes `s` as a quoted JSON string.  Runs of bytes that need no escape are
/// written in one call.
inline void write_string(std::ostream& os, std::string_view s) {
  os.put('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    os.write(s.data() + run, static_cast<std::streamsize>(i - run));
    run = i + 1;
    switch (c) {
      case '"': os.write("\\\"", 2); break;
      case '\\': os.write("\\\\", 2); break;
      case '\n': os.write("\\n", 2); break;
      default: {
        constexpr const char* hex = "0123456789abcdef";
        const char esc[6] = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 0xf]};
        os.write(esc, sizeof(esc));
      }
    }
  }
  os.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
  os.put('"');
}

struct Value {
  enum class Kind : std::uint8_t { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> arr;
  std::map<std::string, Value> obj;

  [[nodiscard]] bool has(const std::string& key) const { return obj.contains(key); }
  [[nodiscard]] const Value& at(const std::string& key) const {
    const auto it = obj.find(key);
    NOCEAS_REQUIRE(it != obj.end(), "json: missing key '" << key << '\'');
    return it->second;
  }
  [[nodiscard]] std::int64_t i64() const { return integer<std::int64_t>("int64"); }
  [[nodiscard]] std::int32_t i32() const { return integer<std::int32_t>("int32"); }
  [[nodiscard]] std::uint64_t u64() const { return integer<std::uint64_t>("uint64"); }

 private:
  /// The number truncated to T; non-finite or out-of-range values throw
  /// instead of reaching an undefined float-to-int cast.
  template <typename T>
  [[nodiscard]] T integer(const char* type) const {
    NOCEAS_REQUIRE(kind == Kind::Num, "json: expected a number");
    // [min, 2^digits) with both bounds exact doubles; NaN fails both tests.
    constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double hi = 2.0 * static_cast<double>(T{1} << (std::numeric_limits<T>::digits - 1));
    NOCEAS_REQUIRE(num >= lo && num < hi, "json: number " << num << " out of range for " << type);
    return static_cast<T>(num);
  }
};

/// Parse one complete JSON document (a line of JSONL or a whole file).
/// `what` tags error messages, e.g. "decision stream" or "manifest".
Value parse(const std::string& text, const std::string& what = "json");

}  // namespace noceas::json
