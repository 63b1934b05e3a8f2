// Minimal JSON reader for the resilience layer.
//
// The sweep journal and quarantine report are JSON the simulator itself
// emitted, so the reader only needs to invert obs/json.hpp faithfully: it
// keeps each number's *raw token* and reparses it on demand with
// std::from_chars, which round-trips both shortest-decimal doubles and full
// 64-bit counters bitwise — the property the resume-identity guarantee
// rests on.  Objects preserve member order (journal records are written in
// a fixed order; preserving it keeps error messages and tests simple).
//
// Deliberately not a general-purpose parser: no streaming, no SAX, inputs
// are one journal line or one report file.  Malformed input throws
// JsonError with a byte offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simsweep::resilience {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  std::size_t offset = 0;      ///< byte offset of the value's first character
  std::size_t key_offset = 0;  ///< byte offset of the member key (object children)
  bool boolean = false;
  std::string number;  ///< raw token, e.g. "-3.25e9" (kNumber only)
  std::string string;  ///< decoded text (kString only)
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }

  /// Typed accessors; throw JsonError naming the expected kind on mismatch
  /// (and, for numbers, on tokens that do not fit the requested type).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  /// as_uint64 without the throw: nullopt for anything that is not a
  /// number token spelling a whole uint64.
  [[nodiscard]] std::optional<std::uint64_t> to_uint64() const noexcept;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;

  /// Object member lookup.  `find` returns null when absent; `at` throws
  /// JsonError naming the missing key.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
};

/// Parses exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed).  Throws JsonError on anything else.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace simsweep::resilience
