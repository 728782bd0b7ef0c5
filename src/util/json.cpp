#include "src/util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>

namespace noceas::json {

namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& what) : s_(text), what_(what) {}

  Value parse() {
    Value v = value(0);
    skip_ws();
    NOCEAS_REQUIRE(i_ == s_.size(), what_ << ": trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  char peek() {
    skip_ws();
    NOCEAS_REQUIRE(i_ < s_.size(), what_ << ": unexpected end of input");
    return s_[i_];
  }
  void expect(char c) {
    NOCEAS_REQUIRE(peek() == c, what_ << ": expected '" << c << '\'');
    ++i_;
  }
  bool consume(char c) {
    if (i_ < s_.size() && peek() == c) {
      ++i_;
      return true;
    }
    return false;
  }

  /// `depth` counts the arrays/objects enclosing this value.
  Value value(int depth) {
    switch (peek()) {
      case '{': return object(depth + 1);
      case '[': return array(depth + 1);
      case '"': return string_value();
      case 't':
      case 'f': return boolean();
      case 'n': return null_value();
      default: return number();
    }
  }

  Value object(int depth) {
    NOCEAS_REQUIRE(depth <= kMaxDepth, what_ << ": nesting too deep");
    expect('{');
    Value v;
    v.kind = Value::Kind::Obj;
    if (consume('}')) return v;
    do {
      Value key = string_value();
      expect(':');
      v.obj[key.str] = value(depth);
    } while (consume(','));
    expect('}');
    return v;
  }

  Value array(int depth) {
    NOCEAS_REQUIRE(depth <= kMaxDepth, what_ << ": nesting too deep");
    expect('[');
    Value v;
    v.kind = Value::Kind::Arr;
    if (consume(']')) return v;
    do {
      v.arr.push_back(value(depth));
    } while (consume(','));
    expect(']');
    return v;
  }

  Value string_value() {
    expect('"');
    Value v;
    v.kind = Value::Kind::Str;
    for (;;) {
      // Raw bytes up to the next quote or backslash go in as one run; raw
      // control bytes are kept, since earlier writers emitted them unescaped.
      const std::size_t run = i_;
      while (i_ < s_.size() && s_[i_] != '"' && s_[i_] != '\\') ++i_;
      v.str.append(s_, run, i_ - run);
      NOCEAS_REQUIRE(i_ < s_.size(), what_ << ": unterminated string");
      if (s_[i_++] == '"') return v;
      escape(v.str);
    }
  }

  /// Decodes the escape after a backslash onto `out`.
  void escape(std::string& out) {
    NOCEAS_REQUIRE(i_ < s_.size(), what_ << ": bad escape");
    switch (const char c = s_[i_++]) {
      case '"':
      case '\\':
      case '/': out += c; return;
      case 'b': out += '\b'; return;
      case 'f': out += '\f'; return;
      case 'n': out += '\n'; return;
      case 'r': out += '\r'; return;
      case 't': out += '\t'; return;
      case 'u': break;
      default: NOCEAS_REQUIRE(false, what_ << ": unknown escape");
    }
    std::uint32_t cp = hex4();
    NOCEAS_REQUIRE(cp < 0xDC00 || cp > 0xDFFF, what_ << ": lone surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      NOCEAS_REQUIRE(s_.compare(i_, 2, "\\u") == 0, what_ << ": lone surrogate");
      i_ += 2;
      const std::uint32_t low = hex4();
      NOCEAS_REQUIRE(low >= 0xDC00 && low <= 0xDFFF, what_ << ": lone surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    append_utf8(out, cp);
  }

  /// The four hex digits of a \uXXXX escape.
  std::uint32_t hex4() {
    std::uint32_t cp = 0;
    const char* first = s_.data() + i_;
    const char* last = first + std::min<std::size_t>(4, s_.size() - i_);
    const auto [ptr, ec] = std::from_chars(first, last, cp, 16);
    NOCEAS_REQUIRE(ec == std::errc() && ptr == first + 4, what_ << ": bad \\u escape");
    i_ += 4;
    return cp;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Value boolean() {
    Value v;
    v.kind = Value::Kind::Bool;
    if (s_.compare(i_, 4, "true") == 0) {
      v.b = true;
      i_ += 4;
    } else if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
    } else {
      NOCEAS_REQUIRE(false, what_ << ": bad literal");
    }
    return v;
  }

  Value null_value() {
    NOCEAS_REQUIRE(s_.compare(i_, 4, "null") == 0, what_ << ": bad literal");
    i_ += 4;
    Value v;
    v.num = std::numeric_limits<double>::quiet_NaN();  // null doubles = NaN
    return v;
  }

  Value number() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '-' || s_[i_] == '+' ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
    }
    NOCEAS_REQUIRE(i_ > start, what_ << ": bad number");
    Value v;
    v.kind = Value::Kind::Num;
    double out = 0.0;
    const auto [ptr, ec] = std::from_chars(s_.data() + start, s_.data() + i_, out);
    NOCEAS_REQUIRE(ec == std::errc() && ptr == s_.data() + i_, what_ << ": bad number");
    v.num = out;
    return v;
  }

  const std::string& s_;
  const std::string& what_;
  std::size_t i_ = 0;
};

}  // namespace

Value parse(const std::string& text, const std::string& what) {
  return Parser(text, what).parse();
}

}  // namespace noceas::json
