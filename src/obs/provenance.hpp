// Build/run provenance stamped into every JSON emitter.
//
// A metrics snapshot or trace file divorced from the binary and config that
// produced it is unreproducible; the shared "meta" object ties each artifact
// back to the exact build (git describe + build type, captured at configure
// time) and run (root seed + a digest of the experiment config).  Emitters
// take an optional `const Provenance*` so existing callers pay nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace simsweep::obs {

struct Provenance {
  std::string version;     // git describe --always --dirty (configure time)
  std::string build_type;  // CMAKE_BUILD_TYPE
  std::uint64_t seed = 0;  // root seed of the run
  std::string config_digest;  // hex FNV-1a over the serialized config

  /// True when the artifact covers only part of the run — an interrupted
  /// sweep flushed what it had (journal salvage) instead of finishing.
  /// Consumers must not diff a partial artifact against a complete one.
  bool partial = false;

  /// Writes the {"version":...,"build_type":...,"seed":...,
  /// "config_digest":...} object (no trailing newline).  A "partial":true
  /// member is appended only when `partial` is set, so complete artifacts
  /// are byte-for-byte what they were before the flag existed.
  void write_json(std::ostream& os) const;
};

template <typename V>
void walk(V& v, Provenance& p) {
  v("version", p.version, Accept::kNonEmpty);
  v("build_type", p.build_type);
  v("seed", p.seed);
  v("config_digest", p.config_digest, Accept::kDigest);
  v.flag("partial", p.partial);
}

inline void Provenance::write_json(std::ostream& os) const {
  obs::write_json(os, *this);
}

/// A file artifact's document: the provenance block under "meta", when
/// there is one, then the body's own keys.
template <typename T>
struct Stamped {
  Provenance* meta = nullptr;
  T* body = nullptr;
};

template <typename V, typename T>
void walk(V& v, Stamped<T>& doc) {
  v.section("meta", doc.meta);
  visit(v, *doc.body);
}

/// Writes `body` as one JSON object, led by a "meta" block when `meta` is
/// set.
template <typename T>
void write_json(std::ostream& os, const T& body, const Provenance* meta) {
  write_json(os, Stamped<T>{const_cast<Provenance*>(meta),
                            const_cast<T*>(&body)});
}

/// Provenance pre-filled with the compiled-in version/build-type stamps.
[[nodiscard]] Provenance make_provenance(std::uint64_t seed,
                                         std::string config_digest);

/// 64-bit FNV-1a, the digest primitive behind config_digest.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

/// Lower-case fixed-width hex of a 64-bit value ("00ff...").
[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace simsweep::obs
