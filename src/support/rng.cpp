#include "support/rng.hpp"

namespace gather::support {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // A state of all zeros is the only invalid state; SplitMix64 cannot
  // produce four zero words from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t Xoshiro256::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::below(std::uint64_t bound) noexcept {
  // Rejection sampling over the largest multiple of `bound`.
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Xoshiro256::between(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range
  return lo + below(span);
}

double Xoshiro256::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

}  // namespace gather::support
