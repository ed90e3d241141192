// Deterministic pseudorandom generators.
//
// Everything in this repository that consumes randomness (graph generation,
// placements, the pseudorandom UXS substitute, the randomized baseline) is
// seeded explicitly, so identical inputs always produce identical runs —
// a requirement for reproducing a *deterministic* distributed algorithm.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace gather::support {

/// SplitMix64 — used for seed expansion (Steele, Lea & Flood 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  [[nodiscard]] std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality, deterministic.
/// Satisfies the UniformRandomBitGenerator concept so it composes with
/// <random> distributions where needed.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound). Requires bound > 0. Uses rejection
  /// sampling (Lemire-style) to avoid modulo bias.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Combine seed components into a single 64-bit seed (order-sensitive).
/// Inline: the semi-synchronous scheduler's coin chains three of these
/// per counted round (sim/scheduler.cpp).
[[nodiscard]] inline std::uint64_t hash_combine(std::uint64_t a,
                                                std::uint64_t b) noexcept {
  // 64-bit mix of (a, b); boost::hash_combine style with 64-bit constants.
  std::uint64_t h = a + 0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2);
  h ^= b + 0x2545f4914f6cdd1dULL;
  return SplitMix64(h).next();
}

}  // namespace gather::support
