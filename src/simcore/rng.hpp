// Deterministic random-number generation for simulations.
//
// Every stochastic model in the simulator draws from an Rng that is seeded
// explicitly, so a (seed, stream) pair fully determines an experiment.
// Streams let independent model components (e.g. the load source of each
// host) consume randomness without perturbing one another when the platform
// size changes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace simsweep::sim {

/// Derives a child seed from a root seed and a stream index using
/// SplitMix64, the standard seed-sequence scrambler.  Distinct streams of
/// the same root seed are statistically independent for our purposes.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t root,
                                                  std::uint64_t stream) noexcept {
  std::uint64_t z = root + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// MT19937-64 (Nishimura, ACM TOMACS 10(4), 2000): the generator
/// std::mt19937_64 is, bit for bit and for every seed, with its twist run
/// one state word per draw instead of over all 312 words before the first
/// draw of each block.  That is exact: twist step i reads only words i,
/// i + 1 and (i + 156) mod 312, and run just before output i it finds the
/// words below i already twisted and the others not, as the block loop
/// does.  A stream that draws k < 312 times pays k twist steps, not 312,
/// and the matrix term is masked in, not branched on a random bit.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) noexcept {
    x_[0] = seed;
    for (std::size_t j = 1; j < kN; ++j) {
      seed = 6364136223846793005ULL * (seed ^ (seed >> 62)) + j;
      x_[j] = seed;
    }
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~result_type{0};
  }

  result_type operator()() noexcept {
    const std::size_t i = next_;
    const std::size_t after = i + 1 == kN ? 0 : i + 1;
    const std::size_t ahead = i < kN - kM ? i + kM : i - (kN - kM);
    const result_type y = (x_[i] & kUpperMask) | (x_[after] & kLowerMask);
    result_type z = x_[ahead] ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
    x_[i] = z;
    next_ = after;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kLowerMask = ~kUpperMask;

  std::array<result_type, kN> x_;
  std::size_t next_ = 0;  ///< word the next draw twists and tempers
};

/// Deterministic random source over Mt19937_64, exposing only the
/// distributions the models need; trivially copyable so tests can snapshot
/// generator state.  The generator is fixed: every golden output and
/// reference makespan follows from its exact draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  Rng(std::uint64_t root, std::uint64_t stream) : engine_(derive_seed(root, stream)) {}

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform real in [0, 1).
  [[nodiscard]] double uniform01() { return uniform(0.0, 1.0); }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given mean (not rate).
  [[nodiscard]] double exponential_mean(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Raw 64-bit draw, for hashing/splitting.
  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

  /// Spawn an independent child generator.
  [[nodiscard]] Rng split(std::uint64_t stream) { return Rng(engine_(), stream); }

 private:
  Mt19937_64 engine_;
};

}  // namespace simsweep::sim
