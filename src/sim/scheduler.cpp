#include "sim/scheduler.hpp"

#include <algorithm>
#include <array>

#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

// Function multiversioning for the semi-synchronous coin kernels: one
// source compiled for AVX-512, AVX2 and baseline x86-64, one of them
// picked at load time by an ifunc resolver. The kernels are integer
// math only, so every clone computes the same bits. gcc builds the
// AVX-512 clone for x86-64-v4, whose AVX512DQ has a vector 64-bit
// multiply (vpmullq) for the SplitMix rounds; gcc rejects a bare
// "avx512dq" clone, and clang keeps the plain AVX512F one. Off under
// ThreadSanitizer, whose runtime is not initialized yet when the
// resolver runs (the process crashes at startup).
#if defined(__SANITIZE_THREAD__)
#define GATHER_NO_TARGET_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GATHER_NO_TARGET_CLONES 1
#endif
#endif
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(GATHER_NO_TARGET_CLONES)
#if __has_attribute(target_clones) && defined(__clang__)
#define GATHER_TARGET_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#elif __has_attribute(target_clones)
#define GATHER_TARGET_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
#endif
#ifndef GATHER_TARGET_CLONES
#define GATHER_TARGET_CLONES
#endif

namespace gather::sim {

namespace {

/// One deterministic 64-bit draw per (seed, a, b) — the adversaries'
/// choices must be pure functions so skip/naive execution and reruns
/// agree (see the Scheduler purity contract).
inline std::uint64_t draw(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  return support::SplitMix64(
             support::hash_combine(support::hash_combine(seed, a), b))
      .next();
}

/// The slot-independent half of the coin draw for rounds first..first+63:
/// keys[j] = hash_combine(seed, hash_combine(0xa1, first + j)).
GATHER_TARGET_CLONES
void coin_round_keys(std::uint64_t seed, Round first, std::uint64_t* keys) {
  for (std::uint64_t j = 0; j < Scheduler::kWordRounds; ++j) {
    keys[j] =
        support::hash_combine(seed, support::hash_combine(0xa1, first + j));
  }
}

/// The slot-dependent half: bit j of out[i] is the coin of round
/// first + j for slots[i], i.e. draw(seed, hash_combine(0xa1, first + j),
/// slots[i]) & 1. The inner loop has no branch, so it vectorizes.
GATHER_TARGET_CLONES
void coin_words(const std::uint64_t* keys, const std::uint32_t* slots,
                std::size_t count, std::uint64_t* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t slot = slots[i];
    std::uint64_t word = 0;
    // A 64-bit counter: with a 32-bit one the shift below has no vector
    // form and the loop stays scalar.
    for (std::uint64_t j = 0; j < Scheduler::kWordRounds; ++j) {
      // SplitMix64(h).next() & 1, spelled out: the coin is bit 0 of
      // z ^ (z >> 31) for the last product z, so only bits 0 and 31 of
      // that product matter, and they depend only on the low 32 bits of
      // both factors. A 32 x 32 -> 64-bit multiply computes them.
      std::uint64_t z = support::hash_combine(keys[j], slot) +
                        0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z ^= z >> 27;
      const std::uint64_t low = (z & 0xffffffffULL) * 0x133111ebULL;
      word |= ((low ^ (low >> 31)) & 1) << j;
    }
    out[i] = word;
  }
}

}  // namespace

Round Scheduler::release_round(std::uint32_t, RobotId) const { return 0; }

Round Scheduler::crash_round(std::uint32_t, RobotId) const { return kNoRound; }

bool Scheduler::activates(Round, std::uint32_t, RobotId) const { return true; }

void Scheduler::activation_words(Round block,
                                 std::span<const std::uint32_t> slots,
                                 std::span<const RobotId> ids,
                                 std::span<std::uint64_t> out) const {
  GATHER_EXPECTS(block <= kNoRound / kWordRounds);
  GATHER_EXPECTS(ids.size() == slots.size() && out.size() == slots.size());
  const Round first = block * kWordRounds;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    std::uint64_t word = 0;
    for (Round j = 0; j < kWordRounds; ++j) {
      if (activates(first + j, slots[i], ids[i])) word |= std::uint64_t{1} << j;
    }
    out[i] = word;
  }
}

Round Scheduler::fairness_bound() const { return 0; }

Round Scheduler::extend_cap(Round cap) const { return cap; }

bool Scheduler::adversarial() const { return true; }

// ---- adversarial-delay ----------------------------------------------------

AdversarialDelayScheduler::AdversarialDelayScheduler(std::uint64_t seed,
                                                     Round max_delay,
                                                     std::size_t k) {
  // kNoRound-adjacent bounds would wrap `max_delay + 1` to zero; no
  // meaningful schedule has delays near 2^64 anyway.
  max_delay_ = std::min(max_delay, kNoRound - 1);
  delays_.reserve(k);
  for (std::size_t slot = 0; slot < k; ++slot) {
    delays_.push_back(
        max_delay_ == 0 ? 0 : draw(seed, 0x7d, slot) % (max_delay_ + 1));
  }
}

AdversarialDelayScheduler::AdversarialDelayScheduler(std::vector<Round> delays)
    : delays_(std::move(delays)) {
  for (const Round d : delays_) max_delay_ = std::max(max_delay_, d);
}

Round AdversarialDelayScheduler::release_round(std::uint32_t slot,
                                               RobotId) const {
  return slot < delays_.size() ? delays_[slot] : 0;
}

Round AdversarialDelayScheduler::extend_cap(Round cap) const {
  // The whole schedule shifts by at most the largest delay; +8 matches
  // the slack the legacy delayed-start harnesses used.
  return support::sat_add(cap, support::sat_add(max_delay_, 8));
}

// ---- semi-synchronous -----------------------------------------------------

SemiSynchronousScheduler::SemiSynchronousScheduler(std::uint64_t seed,
                                                   Round fairness)
    : seed_(seed), fairness_(fairness) {
  GATHER_EXPECTS(fairness >= 1);
}

// Guaranteed phase round every `fairness_` rounds (the fairness bound),
// pseudorandom coin otherwise. Pure in (r, slot) by construction. The
// coin lives in its own tag domain — with a bare `draw(seed_, r, slot)`
// the round r == 0x5c coin would collide with the phase draw and
// correlate suppression with the phase assignment.
Round SemiSynchronousScheduler::phase_of(std::uint32_t slot) const {
  return draw(seed_, 0x5c, slot) % fairness_;
}

Round SemiSynchronousScheduler::coin(Round r, std::uint32_t slot) const {
  return draw(seed_, support::hash_combine(0xa1, r), slot) & 1;
}

bool SemiSynchronousScheduler::activates(Round r, std::uint32_t slot,
                                         RobotId) const {
  return r % fairness_ == phase_of(slot) || coin(r, slot) != 0;
}

void SemiSynchronousScheduler::activation_words(
    Round block, std::span<const std::uint32_t> slots,
    std::span<const RobotId> ids, std::span<std::uint64_t> out) const {
  GATHER_EXPECTS(block <= kNoRound / kWordRounds);
  GATHER_EXPECTS(ids.size() == slots.size() && out.size() == slots.size());
  const Round first = block * kWordRounds;
  std::array<std::uint64_t, kWordRounds> keys;
  coin_round_keys(seed_, first, keys.data());
  coin_words(keys.data(), slots.data(), slots.size(), out.data());
  // Phase rounds: bits j with (first + j) % fairness_ == phase. `every`
  // marks the multiples of fairness_ below 64; a slot's phase bits are
  // that mask shifted to the slot's first phase round in the block.
  std::uint64_t every = 1;
  for (Round j = fairness_; j < kWordRounds; j += fairness_) {
    every |= std::uint64_t{1} << j;
  }
  const Round rem = first % fairness_;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Round phase = phase_of(slots[i]);
    const Round offset = phase >= rem ? phase - rem : phase + (fairness_ - rem);
    if (offset < kWordRounds) out[i] |= every << offset;
  }
}

Round SemiSynchronousScheduler::extend_cap(Round cap) const {
  // Caps are robot-local budgets (activation counts). The fairness bound
  // guarantees at least one activation per window of fairness_ rounds,
  // so reaching local time `cap` needs at most cap × fairness_ global
  // rounds, plus one window of slack for the first activation of the
  // window-aligned worst case. Anything less can falsely report
  // non-termination for an algorithm that gathers under synchrony
  // (pinned by tests/scheduler_test.cpp).
  return support::sat_add(support::sat_mul(cap, fairness_),
                          support::sat_add(fairness_, 8));
}

// ---- crash-fault ----------------------------------------------------------

CrashFaultScheduler::CrashFaultScheduler(std::uint64_t seed,
                                         std::size_t crashes, Round window,
                                         std::size_t k)
    : crash_at_(k, kNoRound) {
  GATHER_EXPECTS(crashes <= k);
  // The `crashes` victims are the slots with the smallest per-slot draws
  // (an order statistic, so exactly `crashes` robots crash); each victim's
  // crash round is a second independent draw from [0, window].
  std::vector<std::uint32_t> slots(k);
  for (std::uint32_t s = 0; s < k; ++s) slots[s] = s;
  std::sort(slots.begin(), slots.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint64_t da = draw(seed, 0xcf, a);
              const std::uint64_t db = draw(seed, 0xcf, b);
              return da != db ? da < db : a < b;
            });
  window = std::min(window, kNoRound - 1);  // avoid wrapping `window + 1`
  for (std::size_t i = 0; i < crashes; ++i) {
    crash_at_[slots[i]] = draw(seed, 0xc4, slots[i]) % (window + 1);
  }
}

CrashFaultScheduler::CrashFaultScheduler(std::vector<Round> crash_rounds)
    : crash_at_(std::move(crash_rounds)) {}

Round CrashFaultScheduler::crash_round(std::uint32_t slot, RobotId) const {
  return slot < crash_at_.size() ? crash_at_[slot] : kNoRound;
}

bool CrashFaultScheduler::adversarial() const {
  return std::any_of(crash_at_.begin(), crash_at_.end(),
                     [](Round c) { return c != kNoRound; });
}

}  // namespace gather::sim
