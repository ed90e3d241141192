#include "core/uxs_gathering.hpp"

#include <algorithm>

#include "core/schedule.hpp"
#include "support/assert.hpp"
#include "support/bitstring.hpp"

namespace gather::core {

UxsGatheringBehavior::UxsGatheringBehavior(RobotId self,
                                           uxs::SequencePtr sequence,
                                           Round start, Round fairness)
    : self_(self),
      seq_(std::move(sequence)),
      start_(start),
      fairness_(std::max<Round>(1, fairness)) {
  GATHER_EXPECTS(seq_ != nullptr);
  GATHER_EXPECTS(seq_->length() >= 1);
  t_ = seq_->length();
  h_ = t_ * Schedule::stretch_factor(fairness_);
  bits_ = support::label_bit_length(self_);
}

Round UxsGatheringBehavior::phase_end(Round phase) const {
  return start_ + 2 * h_ * (phase + 1);
}

BehaviorResult UxsGatheringBehavior::result(Action action) const {
  BehaviorResult r;
  r.action = action;
  r.tag = following_ ? StateTag::Follower : StateTag::Leader;
  r.group_id = following_ ? leader_ : self_;
  return r;
}

BehaviorResult UxsGatheringBehavior::step(const RoundView& view) {
  const Round r = view.round;
  GATHER_PROTOCOL(r >= start_);

  // Merging: whoever is co-located with a larger label starts following
  // the largest label present (the largest-ID robot of the merged group).
  const RobotId biggest = max_other_id(view, self_);
  if (following_) {
    // Under suppression drift our leader's clock may reach its detection
    // window first; its termination means it declared gathering complete
    // at this very node, so terminate with it. Unreachable under
    // synchrony (followers terminate with the leader in the same round).
    const RobotPublicState* leader = find_colocated(view, leader_);
    if (leader != nullptr && leader->tag == StateTag::Terminated) {
      return result(Action::terminate());
    }
    if (biggest > leader_) leader_ = biggest;
    return result(Action::follow(leader_));
  }
  if (biggest > self_) {
    following_ = true;
    leader_ = biggest;
    return result(Action::follow(leader_));
  }

  return leader_step(view);
}

BehaviorResult UxsGatheringBehavior::leader_step(const RoundView& view) {
  const Round r = view.round;
  const Round phase = (r - start_) / (2 * h_);
  const Round rel = (r - start_) % (2 * h_);

  if (phase >= bits_ + 1) {
    // The 2H termination window elapsed and no larger label appeared
    // (a larger label would have converted us to a follower): gathering
    // is complete (Lemma 2); terminate (Lemma 3).
    return result(Action::terminate());
  }

  if (phase == bits_) {
    // Label exhausted: wait out one whole 2H phase, watching for larger
    // labels (the engine wakes us on any arrival).
    return result(Action::stay_until_round(phase_end(phase)));
  }

  // Working on bit `phase`: bit 1 explores first, bit 0 waits first.
  const bool bit =
      support::label_bit_lsb_first(self_, static_cast<unsigned>(phase));
  const bool exploring = bit ? (rel < h_) : (rel >= h_);
  if (!exploring) {
    const Round boundary =
        bit ? phase_end(phase) : start_ + 2 * h_ * phase + h_;
    return result(Action::stay_until_round(boundary));
  }

  const Round window_end =
      bit ? start_ + 2 * h_ * phase + h_ : phase_end(phase);
  if (view.degree == 0) {
    // Single-node graph: exploration degenerates to waiting.
    return result(Action::stay_until_round(window_end));
  }

  // The walk position is a per-phase step counter, NOT window arithmetic:
  // under fairness > 1 every step is followed by a dwell (so stationary
  // smaller robots get activated — and standing-registered — before we
  // move on), and dwell rounds must not skip sequence offsets. At
  // fairness 1 the counter equals the window offset and this is the
  // paper's walk, move for move.
  if (walk_phase_ != phase) {
    walk_phase_ = phase;
    walk_step_ = 0;
    dwell_left_ = 0;
  }
  if (walk_step_ >= t_) {
    // All T steps done; wait out the stretched window.
    return result(Action::stay_until_round(window_end));
  }
  if (dwell_left_ > 0) {
    --dwell_left_;
    return result(Action::stay_one(r));
  }
  // Step 0 starts a fresh walk (entry port unset); later steps chain off
  // the entry port of the previous move.
  const sim::Port entry = (walk_step_ == 0) ? sim::kNoPort : view.entry_port;
  const sim::Port exit = uxs::next_port(
      entry, seq_->offset(static_cast<std::uint64_t>(walk_step_)),
      view.degree);
  ++walk_step_;
  if (fairness_ > 1) dwell_left_ = fairness_;
  return result(Action::move(exit, true));
}

}  // namespace gather::core
