#include "core/robots.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace gather::core {

// ---- FasterGatheringRobot -------------------------------------------------

FasterGatheringRobot::FasterGatheringRobot(RobotId id, AlgorithmConfig config)
    : sim::Robot(id), config_(std::move(config)),
      sched_(Schedule::make(config_)) {}

Action FasterGatheringRobot::apply(const BehaviorResult& r,
                                   Round detect_round) {
  set_tag(r.tag);
  set_group_id(r.group_id);
  Action action = r.action;
  // A stage's behavior cannot promise past the stage's detection round,
  // where on_round answers for itself.
  if (action.kind == sim::ActionKind::Follow) {
    action.stay_until = std::min(action.stay_until, detect_round);
  }
  return action;
}

void FasterGatheringRobot::note_map_memory() {
  if (ug_.has_value()) {
    peak_map_bits_ = std::max(peak_map_bits_, ug_->map_memory_bits());
  }
}

Action FasterGatheringRobot::detection(const RoundView& view,
                                       Round next_stage_start) {
  // Lemma 11: at the end of a step either every robot is alone (nothing
  // happened) or every robot is gathered. Not alone => gathered => done.
  // Terminated robots count as company: under suppression drift the
  // group's clocks reach this round at different global times, and a
  // peer that already terminated here proves gathering exactly as a live
  // one does. (No-op under synchrony: a successful step terminates every
  // robot simultaneously, so nobody ever sees a terminated peer here.)
  note_map_memory();
  // The view holds every occupant of this node, self included.
  if (view.colocated.size() > 1) {
    return Action::terminate();
  }
  return Action::stay_until_round(next_stage_start);
}

Action FasterGatheringRobot::on_round(const RoundView& view) {
  const Round r = view.round;
  const auto& stages = sched_.stages();

  while (stage_idx_ + 1 < stages.size() &&
         r >= stages[stage_idx_].start + stages[stage_idx_].duration) {
    note_map_memory();
    hop_.reset();
    ug_.reset();
    ++stage_idx_;
  }
  const Stage& stage = stages[stage_idx_];
  GATHER_PROTOCOL(r >= stage.start && r < stage.start + stage.duration);

  switch (stage.kind) {
    case StageKind::Undispersed: {
      const Round detect_round = stage.start + stage.duration - 1;
      if (r == detect_round) return detection(view, stage.start + stage.duration);
      if (!ug_.has_value()) {
        ug_.emplace(id(), config_.n, stage.start, config_.fairness);
      }
      return apply(ug_->step(view), detect_round);
    }

    case StageKind::HopThenUndispersed: {
      const Round hop_len = sched_.hop_len(stage.hop);
      const Round ug_start = stage.start + hop_len;
      const Round detect_round = stage.start + stage.duration - 1;
      if (r == detect_round) return detection(view, stage.start + stage.duration);
      if (r < ug_start) {
        if (!hop_.has_value()) {
          hop_.emplace(id(), stage.hop, stage.start, sched_.cycle_len(stage.hop),
                       sched_.maxbits());
        }
        return apply(hop_->step(view), detect_round);
      }
      if (!ug_.has_value()) {
        ug_.emplace(id(), config_.n, ug_start, config_.fairness);
      }
      return apply(ug_->step(view), detect_round);
    }

    case StageKind::UxsGathering: {
      if (!uxs_.has_value()) {
        uxs_.emplace(id(), config_.sequence, stage.start, config_.fairness);
      }
      return apply(uxs_->step(view), sim::kNoRound);
    }
  }
  throw ContractViolation("unhandled stage kind");
}

// ---- UndispersedGatheringRobot ---------------------------------------------

UndispersedGatheringRobot::UndispersedGatheringRobot(RobotId id, std::size_t n,
                                                     Round fairness)
    : sim::Robot(id), ug_(id, n, 0, fairness) {
  end_ = ug_.end_round();
}

Action UndispersedGatheringRobot::on_round(const RoundView& view) {
  if (view.round >= end_) {
    // Theorem 8: every robot terminates when its counter reaches R1 + 2n.
    return Action::terminate();
  }
  const BehaviorResult r = ug_.step(view);
  set_tag(r.tag);
  set_group_id(r.group_id);
  return r.action;
}

// ---- UxsGatheringRobot ------------------------------------------------------

UxsGatheringRobot::UxsGatheringRobot(RobotId id, uxs::SequencePtr sequence,
                                     Round fairness)
    : sim::Robot(id), behavior_(id, std::move(sequence), 0, fairness) {}

Action UxsGatheringRobot::on_round(const RoundView& view) {
  const BehaviorResult r = behavior_.step(view);
  set_tag(r.tag);
  set_group_id(r.group_id);
  return r.action;
}

}  // namespace gather::core
