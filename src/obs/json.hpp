// Shared JSON scalar emission for the observability layer.
//
// Every obs emitter (metrics snapshot, Chrome trace, profiler report,
// provenance block) writes numbers via std::to_chars shortest round-trip so
// a value re-read from JSON compares bitwise-equal to the in-memory double —
// the property the --jobs identity guarantees rest on.  Non-finite doubles
// become null: JSON has no inf/nan, and emitting a bare token would make the
// file unparseable exactly when something went wrong.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string_view>
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

/// `[v0,v1,...]`, each element through write_json_number.
template <typename T>
void write_json_array(std::ostream& os, const std::vector<T>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ',';
    write_json_number(os, values[i]);
  }
  os << ']';
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

}  // namespace simsweep::obs
