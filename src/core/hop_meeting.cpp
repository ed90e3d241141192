#include "core/hop_meeting.hpp"

#include "support/assert.hpp"
#include "support/bitstring.hpp"
#include "support/math.hpp"

namespace gather::core {

HopMeetingBehavior::HopMeetingBehavior(RobotId self, unsigned hop, Round start,
                                       Round cycle_len, unsigned cycles)
    : self_(self), hop_(hop), start_(start), cycle_len_(cycle_len) {
  GATHER_EXPECTS(hop >= 1);
  GATHER_EXPECTS(cycle_len >= 1);
  GATHER_EXPECTS(cycles >= 1);
  end_ = start_ + support::sat_mul(cycle_len_, cycles);
}

BehaviorResult HopMeetingBehavior::result(Action action) const {
  BehaviorResult r;
  r.action = action;
  r.tag = StateTag::HopMeeting;
  r.group_id = 0;
  return r;
}

BehaviorResult HopMeetingBehavior::step(const RoundView& view) {
  const Round r = view.round;
  GATHER_PROTOCOL(r >= start_ && r < end_);

  // "They meet and assemble there": freeze on any co-location. A frozen
  // robot stays put whatever it sees.
  if (frozen_ || any_other_live(view, self_)) {
    frozen_ = true;
    return result(Action::stay_watching(end_, sim::kNobody));
  }

  const Round cycle = (r - start_) / cycle_len_;
  const Round pos = (r - start_) % cycle_len_;
  const Round cycle_end = std::min(end_, start_ + (cycle + 1) * cycle_len_);

  const bool bit =
      support::label_bit_lsb_first(self_, static_cast<unsigned>(cycle));
  if (!bit) {
    // Bit 0 (or label exhausted): hold position for the whole cycle.
    return result(Action::stay_until_round(cycle_end));
  }

  // Bit 1: exhaustive ball walk, then wait out the cycle.
  if (walker_cycle_ != cycle) {
    // A fresh walk must start exactly at a cycle boundary.
    GATHER_PROTOCOL(pos == 0);
    walker_.emplace(hop_);
    walker_cycle_ = cycle;
  }
  const auto move = walker_->next_move(view.degree, view.entry_port);
  if (move.has_value()) {
    return result(Action::move(*move, true));
  }
  return result(Action::stay_until_round(cycle_end));
}

}  // namespace gather::core
