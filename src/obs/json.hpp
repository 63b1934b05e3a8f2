// Shared JSON emission: the scalar writers and the one writer visitor.
//
// Every JSON document the simulator writes and reads back names its keys
// once, in a `template <typename V> void walk(V&, T&)` beside its struct.
// Writer runs those walks to emit; the readers (parse_scenario and the
// artifact loaders in report/artifact.cpp) run the same walks, with the
// steps only a reader takes under `if constexpr (V::kReading)`.
//
// Numbers are written with std::to_chars shortest round-trip, so a value
// re-read from JSON compares bitwise-equal to the in-memory double — the
// property the --jobs identity guarantees rest on.  Non-finite doubles
// become null: JSON has no inf/nan, and emitting a bare token would make the
// file unparseable exactly when something went wrong.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace simsweep::obs {

inline void write_json_number(std::ostream& os, double value) {
  if (value != value || value == std::numeric_limits<double>::infinity() ||
      value == -std::numeric_limits<double>::infinity()) {
    os << "null";
    return;
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) {
    os << "null";
    return;
  }
  os.write(buf, end - buf);
}

inline void write_json_number(std::ostream& os, std::uint64_t value) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) {
    os << 0;
    return;
  }
  os.write(buf, end - buf);
}

/// Minimal JSON string escaping: quotes, backslashes, and control bytes.
inline void write_json_string(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// ---------------------------------------------------------------------------
// The vocabulary walks speak.  Arguments after a value only guide readers;
// the writer ignores them.

/// Whether a scenario key must be present (an absent optional key keeps the
/// field's default).  An optional list is written only when non-empty.
enum class Need { kOptional, kRequired };

/// What a strict artifact reader accepts for a value beyond its type.
enum class Accept : std::uint8_t {
  kAny,
  kNull,         ///< a double that may be null, read back as NaN
  kNonNegative,  ///< a double >= 0
  kNonEmpty,     ///< a non-empty string
  kDigest,       ///< 16 lowercase hex characters (hex64)
};

/// Enums travel as names: a table of (enum, name) pairs, or of names that
/// stand for themselves.
template <typename E, std::size_t N>
const char* enum_name(const std::pair<E, const char*> (&table)[N], E value) {
  for (const auto& [e, name] : table)
    if (e == value) return name;
  return "?";
}

/// An entry of a name table (a string literal is a noun, not a table).
template <typename Entry>
concept NameEntry = !std::is_same_v<std::remove_cv_t<Entry>, char>;

constexpr const char* name_of(const char* entry) { return entry; }
template <typename E>
constexpr const char* name_of(const std::pair<E, const char*>& entry) {
  return entry.second;
}
constexpr const char* value_of(const char* entry) { return entry; }
template <typename E>
constexpr E value_of(const std::pair<E, const char*>& entry) {
  return entry.first;
}

/// Walks one section: a struct through its walk() overload (found by
/// argument-dependent lookup), or a callable that walks a group of fields.
template <typename V, typename T>
void visit(V& v, T& item) {
  if constexpr (std::is_invocable_v<T&, V&>)
    item(v);
  else
    walk(v, item);
}

/// True when `parts` (each through `part`) add up to exactly `total`.  A
/// sum that would wrap past the integer's range fails, so a huge count
/// cannot wrap back onto the total.
template <typename Range, typename T, typename Part = std::identity>
bool sums_to(const Range& parts, T total, Part part = {}) {
  T sum = 0;
  for (const auto& p : parts) {
    const T value = std::invoke(part, p);
    if (value > total - sum) return false;
    sum += value;
  }
  return sum == total;
}

/// Writes one JSON object's members in walk order; optional members only
/// when set.  object() writes the braces.
class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(std::ostream& os) : os_(os) {}

  template <typename T, typename... Hints>
  void operator()(std::string_view key, const T& value, Hints...) {
    name(key);
    write(value);
  }

  template <typename T, typename... Hints>
  void operator()(std::string_view key, const std::optional<T>& value,
                  Hints... hints) {
    if (value) (*this)(key, *value, hints...);
  }

  /// An enum is written as its name in `table`; a string is its own name.
  template <typename T, NameEntry Entry, std::size_t N, typename... Hints>
  void operator()(std::string_view key, const T& value,
                  const Entry (&table)[N], Hints...) {
    name(key);
    if constexpr (std::is_enum_v<T>)
      os_ << '"' << enum_name(table, value) << '"';  // names need no escaping
    else
      write(value);
  }

  template <typename E, NameEntry Entry, std::size_t N, typename... Hints>
  void operator()(std::string_view key, const std::optional<E>& value,
                  const Entry (&table)[N], Hints... hints) {
    if (value) (*this)(key, *value, table, hints...);
  }

  void positive(std::string_view key, double value) { (*this)(key, value); }

  /// `"key":true`, written only when set.
  void flag(std::string_view key, bool set) {
    if (set) (*this)(key, true);
  }

  template <typename T>
  void section(std::string_view key, T&& item, Need = Need::kOptional) {
    name(key);
    object(item);
  }

  /// A pointer, optional or shared_ptr names a section only when set.
  template <typename P>
    requires requires(P& p) { *p; p ? 0 : 0; }
  void section(std::string_view key, P& item) {
    if (item) section(key, *item);
  }

  /// A list of objects.  `each` is a reader-only item check, an index key
  /// written first in every item (`"worker":i`), or a callable
  /// `(visitor, item, i)` that walks item i in place of its walk().
  template <typename T, typename Each = std::nullptr_t>
  void list(std::string_view key, std::vector<T>& items,
            Need need = Need::kOptional, Each each = nullptr) {
    if (need == Need::kOptional && items.empty()) return;
    name(key);
    os_ << '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) os_ << ',';
      os_ << '{';
      Writer child(os_);
      if constexpr (std::is_same_v<Each, const char*>) child(each, i);
      if constexpr (std::is_invocable_v<Each&, Writer&, T&, std::size_t>)
        each(child, items[i], i);
      else
        visit(child, items[i]);
      os_ << '}';
    }
    os_ << ']';
  }

  template <typename T>
  void list(std::string_view key, std::optional<std::vector<T>>& items) {
    if (items) list(key, *items, Need::kRequired);
  }

  /// A map-shaped section: one member per entry, in std::map order.
  template <typename T>
  void map(std::string_view key, std::map<std::string, T>& entries,
           const char* /*noun*/) {
    name(key);
    os_ << '{';
    bool first = true;
    for (auto& [entry, value] : entries) {
      if (!first) os_ << ',';
      first = false;
      write_json_string(os_, entry);
      os_ << ':';
      if constexpr (std::is_arithmetic_v<T>)
        write(value);
      else
        object(value);
    }
    os_ << '}';
  }

  /// A JSON document stored as a string value, written when set.
  template <typename T>
  void embedded(std::string_view key, std::optional<T>& item) {
    if (!item) return;
    std::ostringstream text;
    Writer(text).object(*item);
    (*this)(key, text.str());
  }

  template <typename... Args>
  void check(Args&&...) const {}

  template <typename T>
  void object(T& item) {
    os_ << '{';
    Writer child(os_);
    visit(child, item);
    os_ << '}';
  }

 private:
  void name(std::string_view key) {
    if (!first_) os_.put(',');
    first_ = false;
    os_.put('"').write(key.data(), static_cast<std::streamsize>(key.size()));
    os_.write("\":", 2);
  }

  void write(double value) { write_json_number(os_, value); }
  template <std::unsigned_integral U>
  void write(U value) {
    write_json_number(os_, static_cast<std::uint64_t>(value));
  }
  void write(bool value) { os_ << (value ? "true" : "false"); }
  void write(std::string_view text) { write_json_string(os_, text); }
  template <typename T>
  void write(const std::vector<T>& values) {
    os_ << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os_ << ',';
      write(values[i]);
    }
    os_ << ']';
  }
  /// A (time, value) sample, such as a scenario's trace load, is a pair.
  template <typename S>
    requires requires(const S& s) { s.time + s.value; }
  void write(const S& sample) {
    os_ << '[';
    write(sample.time);
    os_ << ',';
    write(sample.value);
    os_ << ']';
  }

  std::ostream& os_;
  bool first_ = true;
};

/// Writes `item` as one JSON object through its walk (or a callable that
/// walks its fields).  The writer only reads through the references the
/// walk hands it.
template <typename T>
void write_json(std::ostream& os, const T& item) {
  Writer(os).object(const_cast<T&>(item));
}

}  // namespace simsweep::obs
