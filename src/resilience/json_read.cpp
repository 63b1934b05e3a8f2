#include "resilience/json_read.hpp"

#include <cctype>
#include <charconv>
#include <cstddef>

#include "core/parse.hpp"

namespace simsweep::resilience {

namespace {

[[noreturn]] void fail(std::string_view what, std::size_t offset) {
  throw JsonError("json: " + std::string(what) + " at byte " +
                  std::to_string(offset));
}

/// Recursive-descent parser over a fixed string_view.  Depth-limited so a
/// corrupt journal line cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data", pos_);
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep", pos_);
    skip_ws();
    JsonValue value;
    value.offset = pos_;
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        return value;
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
        return value;
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        value.kind = JsonValue::Kind::kNull;
        return value;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    value.offset = pos_;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_ws();
      const std::size_t key_off = pos_;
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.object.emplace_back(std::move(key), parse_value(depth + 1));
      value.object.back().second.key_offset = key_off;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array(int depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    value.offset = pos_;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.array.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  /// Appends `code` (a Unicode scalar value) to `out` as UTF-8.
  static void append_utf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape", pos_);
    std::uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        code |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        code |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail("bad hex digit in \\u escape", pos_ - 1);
    }
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape", pos_);
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail("unpaired surrogate", pos_);
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF)
              fail("unpaired surrogate", pos_);
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired surrogate", pos_);
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("unknown escape", pos_ - 1);
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value", start);
    JsonValue value;
    value.offset = start;
    value.kind = JsonValue::Kind::kNumber;
    value.number = std::string(text_.substr(start, pos_ - start));
    // Validate eagerly so a malformed token fails at parse time with an
    // offset, not at first access with none.  std::from_chars is laxer than
    // the JSON grammar (it accepts "01" and "1."), so walk the grammar —
    // int frac? exp? with no leading zeros — by hand first.
    const std::string& t = value.number;
    std::size_t p = (t[0] == '-') ? 1 : 0;
    const auto digit = [&](std::size_t i) {
      return i < t.size() && std::isdigit(static_cast<unsigned char>(t[i]));
    };
    bool ok = digit(p);
    if (ok) {
      if (t[p] == '0') ++p;
      else while (digit(p)) ++p;
      if (p < t.size() && t[p] == '.') {
        ++p;
        ok = digit(p);
        while (digit(p)) ++p;
      }
      if (ok && p < t.size() && (t[p] == 'e' || t[p] == 'E')) {
        ++p;
        if (p < t.size() && (t[p] == '+' || t[p] == '-')) ++p;
        ok = digit(p);
        while (digit(p)) ++p;
      }
    }
    double probe = 0.0;
    const auto [end, ec] = std::from_chars(
        value.number.data(), value.number.data() + value.number.size(), probe);
    if (!ok || p != t.size() || ec != std::errc() ||
        end != value.number.data() + value.number.size())
      fail("malformed number '" + value.number + "'", start);
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void wrong_kind(std::string_view wanted) {
  throw JsonError("json: value is not " + std::string(wanted));
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) wrong_kind("a boolean");
  return boolean;
}

double JsonValue::as_double() const {
  if (kind != Kind::kNumber) wrong_kind("a number");
  double out = 0.0;
  const auto [end, ec] =
      std::from_chars(number.data(), number.data() + number.size(), out);
  if (ec != std::errc() || end != number.data() + number.size())
    throw JsonError("json: malformed number token '" + number + "'");
  return out;
}

std::uint64_t JsonValue::as_uint64() const {
  if (kind != Kind::kNumber) wrong_kind("a number");
  if (const std::optional<std::uint64_t> out = to_uint64()) return *out;
  throw JsonError("json: number token '" + number +
                  "' is not an unsigned integer");
}

std::optional<std::uint64_t> JsonValue::to_uint64() const noexcept {
  if (kind != Kind::kNumber) return std::nullopt;
  return core::to_count(number);
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) wrong_kind("a string");
  return string;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind != Kind::kArray) wrong_kind("an array");
  return array;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) wrong_kind("an object");
  for (const auto& [name, value] : object)
    if (name == key) return &value;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr)
    throw JsonError("json: missing key '" + std::string(key) + "'");
  return *value;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace simsweep::resilience
