// Deterministic pseudo-random number generation.
//
// All randomness in confail (schedule choices, wake-policy selection,
// spurious-wakeup injection, workload generation) flows through these
// generators so that every run is reproducible from a single 64-bit seed.
// No component ever consults the wall clock or std::random_device.
#pragma once

#include <cstdint>
#include <vector>

namespace confail {

/// SplitMix64: tiny, fast, passes BigCrush when used for seeding.
/// Used both directly and to seed Xoshiro256**.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the library's general-purpose generator.
/// Deterministically seeded from a single 64-bit value via SplitMix64.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) noexcept;

  /// Next 64 uniformly distributed bits.
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound) using Lemire's bounded method.
  /// bound must be nonzero.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Pick a uniformly random element index of a non-empty container size.
  template <typename Container>
  std::size_t pickIndex(const Container& c) noexcept {
    return static_cast<std::size_t>(below(c.size()));
  }

 private:
  std::uint64_t s_[4];
};

/// Fisher–Yates shuffle driven by a Xoshiro256 generator.
template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(rng.below(i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

}  // namespace confail
