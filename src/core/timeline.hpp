// Post-run analysis: bucket a decoded binary trace (sim/trace.hpp) by
// the schedule's stages to show where a run spent its movement — which
// step did the work, who moved, and when gathering actually happened. Stage
// attribution is the quantity Theorems 12 and 16 reason about (which
// ladder step resolves a given initial configuration). Powers
// gather_cli --timeline and the debugging workflow ("why did this run
// resolve in stage 3?").
#pragma once

#include <iosfwd>
#include <vector>

#include "core/schedule.hpp"
#include "sim/trace.hpp"

namespace gather::core {

struct StageActivity {
  std::size_t stage_index = 0;
  StageKind kind = StageKind::Undispersed;
  unsigned hop = 0;
  Round start = 0;
  Round duration = 0;
  std::uint64_t moves = 0;
  /// Moves per robot within this stage — a dense vector indexed by the
  /// robot's rank in Timeline::robot_labels() (raw labels are sparse in
  /// [1, n^b], so stages index the dense rank space instead of paying a
  /// node-based map or an O(max label) array). Same length for every
  /// stage of one Timeline.
  std::vector<std::uint64_t> moves_by_robot;
  sim::Round first_move = sim::kNoRound;
  sim::Round last_move = sim::kNoRound;

  /// Number of robots with at least one move in this stage.
  [[nodiscard]] std::size_t active_robots() const noexcept;
};

class Timeline {
 public:
  /// Bucket the move events of `trace` — every TraceRound's `moves` and
  /// `carried` entries — into the schedule's stages. Events beyond the
  /// last stage are attributed to it.
  [[nodiscard]] static Timeline from_trace(const sim::Trace& trace,
                                           const Schedule& schedule);

  [[nodiscard]] const std::vector<StageActivity>& stages() const noexcept {
    return stages_;
  }

  /// Sorted distinct labels of the robots that moved anywhere in the
  /// trace; every stage's moves_by_robot is indexed by position here.
  [[nodiscard]] const std::vector<sim::RobotId>& robot_labels() const noexcept {
    return labels_;
  }

  /// Moves of `label` within `stage` (0 if that robot never moved).
  [[nodiscard]] std::uint64_t moves_for(const StageActivity& stage,
                                        sim::RobotId label) const;

  /// Total moves across all stages (== metrics.total_moves of the traced
  /// run).
  [[nodiscard]] std::uint64_t total_moves() const noexcept;

  /// The first stage with any movement (-1 if the trace has no moves).
  [[nodiscard]] int first_active_stage() const noexcept;

  /// Render as an aligned table.
  void print(std::ostream& os) const;

 private:
  std::vector<StageActivity> stages_;
  std::vector<sim::RobotId> labels_;
};

}  // namespace gather::core
