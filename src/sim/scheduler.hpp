// The scheduling adversary — who acts when.
//
// The paper proves its theorems against a fully synchronous adversary:
// all robots wake in round 0 and every robot executes Look-Compute-Move
// in every round (§1.1). The surrounding literature shows the interesting
// behaviour lives in the scheduler — arbitrary startup times (Dieudonné &
// Pelc, "Anonymous Meeting in Networks"), semi-synchronous subset
// activation and crash faults (the ASYNC/SSYNC models of the Look-Compute-
// Move literature). This interface makes the adversary a first-class,
// swappable axis of a run instead of an assumption baked into the engine.
//
// Division of labour: the *engine* owns the mechanism (wake heap,
// event-driven round skipping, occupancy wakeups — pure optimization,
// invisible to the model); the *scheduler* owns the policy (when each
// robot starts, which pending robots are activated in a round, when a
// robot crashes). A scheduler expresses its policy through three pure
// per-robot functions, so the same run is reproducible under both the
// skipping and the naive engine and across reruns:
//
//  * release_round(slot, id) — the robot's start round τ. Before τ the
//    robot is dormant: it occupies its start node and is visible to
//    co-located robots (public state Init), but is never activated. From
//    τ on it runs its program in *local time*: RoundView::round counts
//    the rounds this scheduler has activated it since τ (r − τ for
//    non-suppressing schedulers), and its Stay deadlines are translated
//    back by the engine. This is exactly the arbitrary-startup model
//    (it subsumed the deleted core::DelayedRobot wrapper) and, combined
//    with activates(), the activation-count robot clock of the SSYNC
//    model (DESIGN.md §3.8).
//  * crash_round(slot, id) — the round from which the robot is crashed:
//    never activated again, never terminates, frozen at its node with its
//    last public state. Crashed robots still count for the ground-truth
//    gathering predicate, which is what exercises detection soundness —
//    a correct detecting algorithm must not announce completion while a
//    crashed robot sits elsewhere (RunResult::false_announcement records
//    any such announcement).
//  * activates(r, slot, id) — semi-synchronous subset activation: a
//    pending robot (released, not crashed, wake deadline due) acts in
//    round r only if this predicate says so; otherwise its decision is
//    deferred to the next activated round. Must be a pure function of its
//    arguments and must not starve: every robot activates at least once
//    in any window of fairness_bound() consecutive rounds. Every
//    activated round — acted on or slept through — advances the robot's
//    local clock by one, so a robot's local time at round r is the
//    number of rounds in [release, r) this predicate accepts.
//  * activation_words(block, slots, ids, out) — that predicate for 64
//    rounds and many robots at once: bit j of out[i] is
//    activates(64·block + j, slots[i], ids[i]). The skipping engine keeps
//    a ledger of these words (sim/engine.cpp) and reads every local clock
//    and activation decision from it. The default is the activates()
//    loop; an override may only compute the same bits faster, or skip
//    and naive stepping stop agreeing.
//
// The synchronous scheduler answers (0, never, always) — bit-identical
// to an engine with no scheduler at all (pinned by
// tests/scheduler_test.cpp). Concrete adversaries are registered in
// scenario::schedulers() so sweeps can grid over them by name.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace gather::sim {

/// Adversarial scheduling policy consulted by the engine. Stateless per
/// round: all three policy functions must be pure (see file comment), so
/// one Scheduler instance may be shared across engines and threads.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// First round at which the robot in `slot` executes its program
  /// (0 = synchronous start). Dormant before that; local time after.
  [[nodiscard]] virtual Round release_round(std::uint32_t slot,
                                            RobotId id) const;

  /// Round from which the robot is permanently crashed (kNoRound = never).
  [[nodiscard]] virtual Round crash_round(std::uint32_t slot,
                                          RobotId id) const;

  /// Whether a pending robot is activated in round r. Consulted only when
  /// fairness_bound() > 0.
  [[nodiscard]] virtual bool activates(Round r, std::uint32_t slot,
                                       RobotId id) const;

  /// Rounds per activation word.
  static constexpr Round kWordRounds = 64;

  /// Activation bits of the 64 rounds of `block`: bit j of out[i] is
  /// activates(64·block + j, slots[i], ids[i]). The three spans have one
  /// entry per robot, and block is at most kNoRound / 64. The default
  /// evaluates activates() bit by bit, so a scheduler that overrides
  /// only activates() stays exact.
  virtual void activation_words(Round block,
                                std::span<const std::uint32_t> slots,
                                std::span<const RobotId> ids,
                                std::span<std::uint64_t> out) const;

  /// Suppression window: a pending robot is activated at least once every
  /// this-many rounds. 0 = this scheduler never suppresses (the engine
  /// skips the activates() consultation entirely).
  [[nodiscard]] virtual Round fairness_bound() const;

  /// Stretch an algorithm-derived hard round cap to cover the slack this
  /// adversary introduces (start delays, suppression). Identity for
  /// adversaries that do not stretch schedules. Must be conservative: a
  /// run that terminates within `cap` of every robot's LOCAL time must
  /// fit in extend_cap(cap) GLOBAL rounds, or a cap-limited adversarial
  /// run could falsely report non-termination (pinned by
  /// tests/scheduler_test.cpp).
  [[nodiscard]] virtual Round extend_cap(Round cap) const;

  /// Whether this instance can actually perturb a run. Degenerate
  /// parameterizations (max-delay = 0, fairness = 1, zero crashes)
  /// report false, and harnesses then treat a ContractViolation as an
  /// engine/algorithm bug (propagate/abort) rather than a recordable
  /// adversary outcome. Defaults to true: an unknown custom scheduler
  /// is presumed adversarial.
  [[nodiscard]] virtual bool adversarial() const;
};

/// The paper's model (§1.1): simultaneous start, every robot every round,
/// no faults. Bit-identical to running the engine with no scheduler.
class SynchronousScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "synchronous";
  }
  [[nodiscard]] bool adversarial() const override { return false; }
};

/// Arbitrary startup times (§3 future work; Dieudonné & Pelc): robot i
/// starts at an adversary-chosen round τ_i and runs in local time.
/// Subsumed the legacy core::DelayedRobot wrapper, now deleted; its
/// behaviour survives as the absolute equivalence-era trace pins in
/// tests/scheduler_test.cpp section 2 and tests/delayed_test.cpp.
class AdversarialDelayScheduler final : public Scheduler {
 public:
  /// Per-slot delays drawn deterministically from [0, max_delay] for the
  /// k robots of a scenario; slots beyond k start at 0.
  AdversarialDelayScheduler(std::uint64_t seed, Round max_delay,
                            std::size_t k);

  /// Explicit per-slot delays (slot = add_robot order) — the form tests
  /// and harnesses use to plant exact schedules (ties, all-late, ...).
  explicit AdversarialDelayScheduler(std::vector<Round> delays);

  [[nodiscard]] std::string_view name() const override {
    return "adversarial-delay";
  }
  [[nodiscard]] Round release_round(std::uint32_t slot,
                                    RobotId id) const override;
  [[nodiscard]] Round extend_cap(Round cap) const override;
  [[nodiscard]] bool adversarial() const override { return max_delay_ > 0; }

 private:
  std::vector<Round> delays_;
  Round max_delay_ = 0;
};

/// Semi-synchronous activation (the SSYNC flavour): each round the
/// adversary activates a deterministic pseudorandom subset of the pending
/// robots; every robot has a guaranteed phase round every `fairness`
/// rounds, so no robot is suppressed for `fairness` or more consecutive
/// rounds. fairness = 1 degenerates to the synchronous scheduler.
class SemiSynchronousScheduler final : public Scheduler {
 public:
  SemiSynchronousScheduler(std::uint64_t seed, Round fairness);

  [[nodiscard]] std::string_view name() const override {
    return "semi-synchronous";
  }
  [[nodiscard]] bool activates(Round r, std::uint32_t slot,
                               RobotId id) const override;
  /// Same bits as activates(): the 64 slot-independent round keys are
  /// hashed once per block, each slot pays the coin's two remaining
  /// finalizers per round, and its phase rounds come from one stride
  /// mask shifted to its phase.
  void activation_words(Round block, std::span<const std::uint32_t> slots,
                        std::span<const RobotId> ids,
                        std::span<std::uint64_t> out) const override;
  [[nodiscard]] Round fairness_bound() const override { return fairness_; }
  [[nodiscard]] Round extend_cap(Round cap) const override;
  [[nodiscard]] bool adversarial() const override { return fairness_ > 1; }

 private:
  /// The slot's guaranteed round modulo fairness_.
  [[nodiscard]] Round phase_of(std::uint32_t slot) const;
  /// The pseudorandom activation bit (0 or 1) of a non-phase round.
  [[nodiscard]] Round coin(Round r, std::uint32_t slot) const;

  std::uint64_t seed_ = 0;
  Round fairness_ = 1;
};

/// Crash faults: `crashes` of the k robots halt permanently at
/// adversary-chosen rounds in [0, window]. A crashed robot still occupies
/// its node (ground truth), so gathering can become impossible while the
/// survivors' detection logic runs on — the probe for "gathering with
/// detection must not falsely announce".
class CrashFaultScheduler final : public Scheduler {
 public:
  CrashFaultScheduler(std::uint64_t seed, std::size_t crashes, Round window,
                      std::size_t k);

  /// Explicit per-slot crash rounds (kNoRound = never crashes).
  explicit CrashFaultScheduler(std::vector<Round> crash_rounds);

  [[nodiscard]] std::string_view name() const override {
    return "crash-fault";
  }
  [[nodiscard]] Round crash_round(std::uint32_t slot,
                                  RobotId id) const override;
  [[nodiscard]] bool adversarial() const override;

 private:
  std::vector<Round> crash_at_;
};

}  // namespace gather::sim
