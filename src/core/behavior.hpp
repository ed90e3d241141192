// Shared plumbing for the paper's three sub-algorithms.
//
// Each sub-algorithm (Undispersed-Gathering §2.2/Theorem 8, i-Hop-Meeting
// §2.3/Lemmas 9–10, UXS gathering §2.1/Theorem 6) is implemented as a
// *behavior*: a state machine
// that consumes one RoundView per activation and produces an action plus
// the public state (role tag + groupid) the robot broadcasts from the
// next round on. Top-level robots compose behaviors along the Schedule.
#pragma once

#include <algorithm>
#include <optional>

#include "sim/robot.hpp"

namespace gather::core {

using sim::Action;
using sim::RobotId;
using sim::RobotPublicState;
using sim::Round;
using sim::RoundView;
using sim::StateTag;

struct BehaviorResult {
  Action action;
  StateTag tag = StateTag::Init;
  RobotId group_id = 0;
};

// ---- view scanning helpers ----------------------------------------------
// All scans ignore terminated robots and the robot itself. The view is
// sorted by id (sim::RoundView), so id-keyed lookups are O(log k); the
// group-id-keyed scans (min_other_group_id, min_group_finder) stay linear
// because group ids are not sorted.

/// The co-located entry with the given id, terminated or not; nullptr if
/// absent. Binary search over the id-sorted view.
[[nodiscard]] inline const RobotPublicState* find_colocated(
    const RoundView& view, RobotId id) {
  const auto it = std::lower_bound(
      view.colocated.begin(), view.colocated.end(), id,
      [](const RobotPublicState& s, RobotId key) { return s.id < key; });
  return it != view.colocated.end() && it->id == id ? &*it : nullptr;
}

/// True if a robot with the given id is co-located (and not terminated).
[[nodiscard]] inline bool is_colocated(const RoundView& view, RobotId id) {
  const RobotPublicState* s = find_colocated(view, id);
  return s != nullptr && s->tag != StateTag::Terminated;
}

/// True if any co-located robot other than `self` is not terminated.
[[nodiscard]] inline bool any_other_live(const RoundView& view, RobotId self) {
  return std::any_of(view.colocated.begin(), view.colocated.end(),
                     [self](const RobotPublicState& s) {
                       return s.id != self && s.tag != StateTag::Terminated;
                     });
}

/// Smallest live co-located robot id, `self` included (0 if none): the
/// first live entry of the id-sorted view.
[[nodiscard]] inline RobotId min_live_id(const RoundView& view) {
  for (const RobotPublicState& s : view.colocated) {
    if (s.tag != StateTag::Terminated) return s.id;
  }
  return 0;
}

/// Largest co-located robot id other than `self` (0 if none): the first
/// live entry from the back of the id-sorted view.
[[nodiscard]] inline RobotId max_other_id(const RoundView& view, RobotId self) {
  for (auto it = view.colocated.rbegin(); it != view.colocated.rend(); ++it) {
    if (it->id != self && it->tag != StateTag::Terminated) return it->id;
  }
  return 0;
}

/// Smallest group_id among co-located robots (excluding `self`) whose tag
/// is Finder or Helper and whose group_id is set; nullopt if none.
[[nodiscard]] inline std::optional<RobotId> min_other_group_id(
    const RoundView& view, RobotId self) {
  std::optional<RobotId> best;
  for (const RobotPublicState& s : view.colocated) {
    if (s.id == self || s.group_id == 0) continue;
    if (s.tag != StateTag::Finder && s.tag != StateTag::Helper) continue;
    if (!best || s.group_id < *best) best = s.group_id;
  }
  return best;
}

/// The co-located Finder with the smallest group_id (excluding `self`);
/// nullopt if no finder is present.
[[nodiscard]] inline std::optional<RobotPublicState> min_group_finder(
    const RoundView& view, RobotId self) {
  std::optional<RobotPublicState> best;
  for (const RobotPublicState& s : view.colocated) {
    if (s.id == self || s.tag != StateTag::Finder) continue;
    if (!best || s.group_id < best->group_id ||
        (s.group_id == best->group_id && s.id < best->id)) {
      best = s;
    }
  }
  return best;
}

}  // namespace gather::core
