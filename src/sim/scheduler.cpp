#include "sim/scheduler.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace gather::sim {

namespace {

/// One deterministic 64-bit draw per (seed, a, b) — the adversaries'
/// choices must be pure functions so skip/naive execution and reruns
/// agree (see the Scheduler purity contract). Inline so the per-round
/// coin loop in count_activations carries no call.
inline std::uint64_t draw(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  return support::SplitMix64(
             support::hash_combine(support::hash_combine(seed, a), b))
      .next();
}

}  // namespace

Round Scheduler::release_round(std::uint32_t, RobotId) const { return 0; }

Round Scheduler::crash_round(std::uint32_t, RobotId) const { return kNoRound; }

bool Scheduler::activates(Round, std::uint32_t, RobotId) const { return true; }

Round Scheduler::count_activations(std::uint32_t slot, RobotId id, Round begin,
                                   Round end) const {
  Round count = 0;
  for (Round g = begin; g < end; ++g) {
    if (activates(g, slot, id)) ++count;
  }
  return count;
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

Round SemiSynchronousScheduler::count_activations(std::uint32_t slot, RobotId,
                                                  Round begin,
                                                  Round end) const {
  const Round phase = phase_of(slot);
  // `rem` tracks g % fairness_ without a division per round. The coin
  // bit is added rather than branched on: it is a fair coin, so a branch
  // would mispredict half the time.
  Round count = 0;
  Round rem = begin % fairness_;
  for (Round g = begin; g < end; ++g) {
    count += rem == phase ? 1 : coin(g, slot);
    if (++rem == fairness_) rem = 0;
  }
  return count;
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
