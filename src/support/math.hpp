// Integer math helpers used by the round-schedule arithmetic.
//
// The paper's schedules (Σ_{j=1..i} 2(n-1)^j cycles, n^5 log n UXS lengths)
// overflow 64-bit arithmetic for moderate n, and every robot must compute
// the *same* schedule, so all schedule math is saturating and centralized
// here.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace gather::support {

inline constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// Saturating addition on uint64.
[[nodiscard]] constexpr std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) noexcept {
  return (a > kU64Max - b) ? kU64Max : a + b;
}

/// Saturating multiplication on uint64.
[[nodiscard]] constexpr std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  if (a > kU64Max / b) return kU64Max;
  return a * b;
}

/// Saturating integer power a^e.
[[nodiscard]] constexpr std::uint64_t sat_pow(std::uint64_t a, unsigned e) noexcept {
  std::uint64_t result = 1;
  for (unsigned i = 0; i < e; ++i) result = sat_mul(result, a);
  return result;
}

/// Number of bits needed to represent v (bit_width); 0 for v == 0.
[[nodiscard]] constexpr unsigned bit_width_u64(std::uint64_t v) noexcept {
  return static_cast<unsigned>(std::bit_width(v));
}

/// ceil(log2(v)) for v >= 1; 0 for v == 1.
[[nodiscard]] constexpr unsigned ceil_log2(std::uint64_t v) noexcept {
  if (v <= 1) return 0;
  return bit_width_u64(v - 1);
}

/// Ceiling division for nonnegative integers, b > 0.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

}  // namespace gather::support
