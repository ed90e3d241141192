// The three top-level robot programs of the paper.
//
//  * FasterGatheringRobot — §2.3 Faster-Gathering: the step ladder
//    (Undispersed-Gathering; (i)-Hop-Meeting + Undispersed-Gathering for
//    i = 1..5; UXS catch-all), with the Lemma 11 alone/not-alone
//    detection at the end of every step. This is the headline algorithm
//    of Theorems 12 and 16.
//  * UndispersedGatheringRobot — standalone §2.2 (Theorem 8): requires an
//    undispersed start; terminates unconditionally at round R(n).
//  * UxsGatheringRobot — standalone §2.1 (Theorem 6): works for any
//    configuration; also serves as the Ta-Shma–Zwick-style baseline.
#pragma once

#include <optional>

#include "core/config.hpp"
#include "core/hop_meeting.hpp"
#include "core/schedule.hpp"
#include "core/undispersed.hpp"
#include "core/uxs_gathering.hpp"
#include "sim/robot.hpp"

namespace gather::core {

class FasterGatheringRobot final : public sim::Robot {
 public:
  FasterGatheringRobot(RobotId id, AlgorithmConfig config);

  [[nodiscard]] Action on_round(const RoundView& view) override;

  [[nodiscard]] const Schedule& schedule() const noexcept { return sched_; }
  /// Peak Phase-1 map size in bits across all steps (the O(m log n) term).
  [[nodiscard]] std::uint64_t peak_map_bits() const noexcept {
    return peak_map_bits_;
  }

 private:
  AlgorithmConfig config_;
  Schedule sched_;
  std::size_t stage_idx_ = 0;
  std::optional<HopMeetingBehavior> hop_;
  std::optional<UndispersedBehavior> ug_;
  std::optional<UxsGatheringBehavior> uxs_;
  std::uint64_t peak_map_bits_ = 0;

  /// Publish the behavior's tag and group id and its route promise; clamp
  /// a Follow's promise deadline and the route's to the stage's
  /// detection round.
  Action apply(const BehaviorResult& r, Round detect_round);
  Action detection(const RoundView& view, Round next_stage_start);
  void note_map_memory();
};

class UndispersedGatheringRobot final : public sim::Robot {
 public:
  UndispersedGatheringRobot(RobotId id, std::size_t n, Round fairness = 1);

  [[nodiscard]] Action on_round(const RoundView& view) override;

  [[nodiscard]] std::uint64_t map_bits() const {
    return ug_.map_memory_bits();
  }

 private:
  UndispersedBehavior ug_;
  Round end_;
};

class UxsGatheringRobot final : public sim::Robot {
 public:
  UxsGatheringRobot(RobotId id, uxs::SequencePtr sequence, Round fairness = 1);

  [[nodiscard]] Action on_round(const RoundView& view) override;

 private:
  UxsGatheringBehavior behavior_;
};

}  // namespace gather::core
