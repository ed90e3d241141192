#include "core/timeline.hpp"

#include <algorithm>
#include <ostream>

#include "support/math.hpp"
#include "support/table.hpp"

namespace gather::core {

Timeline Timeline::from_trace(const sim::Trace& trace,
                              const Schedule& schedule) {
  Timeline timeline;
  for (std::size_t i = 0; i < schedule.stages().size(); ++i) {
    const Stage& stage = schedule.stages()[i];
    StageActivity activity;
    activity.stage_index = i;
    activity.kind = stage.kind;
    activity.hop = stage.hop;
    activity.start = stage.start;
    activity.duration = stage.duration;
    timeline.stages_.push_back(std::move(activity));
  }
  if (timeline.stages_.empty()) return timeline;

  // Dense label space: rank-compress the labels of the robots that move
  // so per-stage counters are flat arrays of length #movers, independent
  // of how sparse the label range [1, n^b] is. A move event is an active
  // move or a carried (standing-follow) move.
  std::vector<std::uint8_t> moved(trace.robots.size(), 0);
  for (const sim::TraceRound& round : trace.rounds) {
    for (const sim::TraceMove& move : round.moves) moved[move.slot] = 1;
    for (const sim::TraceMove& move : round.carried) moved[move.slot] = 1;
  }
  for (std::size_t slot = 0; slot < moved.size(); ++slot) {
    if (moved[slot] != 0) timeline.labels_.push_back(trace.robots[slot].id);
  }
  std::sort(timeline.labels_.begin(), timeline.labels_.end());
  timeline.labels_.erase(
      std::unique(timeline.labels_.begin(), timeline.labels_.end()),
      timeline.labels_.end());
  for (StageActivity& stage : timeline.stages_)
    stage.moves_by_robot.assign(timeline.labels_.size(), 0);

  for (const sim::TraceRound& round : trace.rounds) {
    if (round.moves.empty() && round.carried.empty()) continue;
    // Stages are contiguous from round 0; find the owning stage.
    std::size_t idx = timeline.stages_.size() - 1;
    for (std::size_t i = 0; i < timeline.stages_.size(); ++i) {
      const StageActivity& s = timeline.stages_[i];
      if (round.round >= s.start &&
          round.round < support::sat_add(s.start, s.duration)) {
        idx = i;
        break;
      }
    }
    StageActivity& s = timeline.stages_[idx];
    const auto count = [&](const sim::TraceMove& move) {
      ++s.moves;
      const sim::RobotId label = trace.robots[move.slot].id;
      ++s.moves_by_robot[static_cast<std::size_t>(
          std::lower_bound(timeline.labels_.begin(), timeline.labels_.end(),
                           label) -
          timeline.labels_.begin())];
    };
    for (const sim::TraceMove& move : round.moves) count(move);
    for (const sim::TraceMove& move : round.carried) count(move);
    // Trace rounds ascend, so the first event seen is the stage's first.
    if (s.first_move == sim::kNoRound) s.first_move = round.round;
    s.last_move = round.round;
  }
  return timeline;
}

std::size_t StageActivity::active_robots() const noexcept {
  std::size_t active = 0;
  for (const std::uint64_t moves : moves_by_robot) active += moves > 0 ? 1 : 0;
  return active;
}

std::uint64_t Timeline::moves_for(const StageActivity& stage,
                                  sim::RobotId label) const {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  if (it == labels_.end() || *it != label) return 0;
  return stage.moves_by_robot[static_cast<std::size_t>(it - labels_.begin())];
}

std::uint64_t Timeline::total_moves() const noexcept {
  std::uint64_t total = 0;
  for (const StageActivity& s : stages_) total += s.moves;
  return total;
}

int Timeline::first_active_stage() const noexcept {
  for (const StageActivity& s : stages_) {
    if (s.moves > 0) return static_cast<int>(s.stage_index);
  }
  return -1;
}

void Timeline::print(std::ostream& os) const {
  using support::TextTable;
  TextTable table({"stage", "kind", "rounds [start, end)", "moves",
                   "active robots", "first/last move"});
  for (const StageActivity& s : stages_) {
    std::string kind;
    switch (s.kind) {
      case StageKind::Undispersed: kind = "undispersed"; break;
      case StageKind::HopThenUndispersed:
        // std::string first operand sidesteps GCC 12's bogus -Wrestrict on
        // operator+(const char*, std::string&&) (GCC PR105651).
        kind = std::string("hop-") + std::to_string(s.hop) + "+undisp";
        break;
      case StageKind::UxsGathering: kind = "uxs-catchall"; break;
    }
    table.add_row(
        {TextTable::num(std::uint64_t{s.stage_index}), kind,
         std::string("[") + TextTable::grouped(s.start) + ", " +
             TextTable::grouped(support::sat_add(s.start, s.duration)) +
             ")",
         TextTable::grouped(s.moves),
         TextTable::num(std::uint64_t{s.active_robots()}),
         s.moves == 0 ? "-"
                      : TextTable::grouped(s.first_move) + "/" +
                            TextTable::grouped(s.last_move)});
  }
  table.print(os);
}

}  // namespace gather::core
