#include "obs/provenance.hpp"

#include <utility>

#ifndef SIMSWEEP_GIT_DESCRIBE
#define SIMSWEEP_GIT_DESCRIBE "unknown"
#endif
#ifndef SIMSWEEP_BUILD_TYPE
#define SIMSWEEP_BUILD_TYPE "unknown"
#endif

namespace simsweep::obs {

Provenance make_provenance(std::uint64_t seed, std::string config_digest) {
  Provenance p;
  p.version = SIMSWEEP_GIT_DESCRIBE;
  p.build_type = SIMSWEEP_BUILD_TYPE;
  p.seed = seed;
  p.config_digest = std::move(config_digest);
  return p;
}

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace simsweep::obs
