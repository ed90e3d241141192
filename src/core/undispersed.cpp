#include "core/undispersed.hpp"

#include "core/schedule.hpp"
#include "support/assert.hpp"

namespace gather::core {

UndispersedBehavior::UndispersedBehavior(RobotId self, std::size_t n,
                                         Round start, Round fairness)
    : self_(self), n_(n), start_(start), fairness_(std::max<Round>(1, fairness)) {
  phase2_ = start_ + Schedule::ug_phase2(n_, fairness_);
  tour_start_ = start_ + Schedule::ug_tour_start(n_, fairness_);
  end_ = start_ + Schedule::ug_total(n_, fairness_);
  // Suppression tolerance: the finder's very first move must not outrun
  // the helpers' first activations, so the behavior opens with one dwell.
  dwell_left_ = fairness_ > 1 ? fairness_ : 0;
}

BehaviorResult UndispersedBehavior::result(Action action) const {
  BehaviorResult r;
  r.action = action;
  switch (role_) {
    case Role::Finder: r.tag = StateTag::Finder; break;
    case Role::Helper: r.tag = StateTag::Helper; break;
    case Role::Waiter: r.tag = StateTag::Waiter; break;
    case Role::Unassigned: r.tag = StateTag::Init; break;
  }
  r.group_id = group_id_;
  return r;
}

void UndispersedBehavior::assign_role(const RoundView& view) {
  // Roles follow from the configuration at the start round (§2.2): alone
  // -> waiter; otherwise the minimum-ID co-located robot is the finder
  // and the rest are its helpers. Both reads stop early on the id-sorted
  // view, so a crowded start does not cost every robot a full scan.
  if (!any_other_live(view, self_)) {
    role_ = Role::Waiter;
    group_id_ = 0;
    return;
  }
  const RobotId min_id = std::min(self_, min_live_id(view));
  if (min_id == self_) {
    role_ = Role::Finder;
    group_id_ = self_;
  } else {
    role_ = Role::Helper;
    group_id_ = min_id;
    followed_ = 0;  // phase-1 following is token duty, not capture
  }
}

BehaviorResult UndispersedBehavior::step(const RoundView& view) {
  GATHER_PROTOCOL(view.round >= start_ && view.round < end_);
  if (role_ == Role::Unassigned) {
    GATHER_PROTOCOL(view.round == start_);
    assign_role(view);
  }
  switch (role_) {
    case Role::Finder: return finder_step(view);
    case Role::Helper: return helper_step(view);
    case Role::Waiter: return waiter_step(view);
    case Role::Unassigned: break;
  }
  throw ProtocolViolation("unassigned role in UndispersedBehavior::step");
}

BehaviorResult UndispersedBehavior::finder_step(const RoundView& view) {
  const Round r = view.round;
  // Every consult since the one that promised a route was replayed from
  // it (sim/action.hpp): take those tour steps now.
  if (route_from_ != sim::kNoRound) {
    mapper_.skip_tour(r - route_from_ - 1);
    route_from_ = sim::kNoRound;
  }

  if (r < phase2_) {
    // ---- Phase 1: map construction with the helper-group token ----------
    // Suppression tolerance, part 1 — the start handshake: when this
    // behavior follows an earlier stage (the Faster-Gathering ladder),
    // clock drift can make the finder reach the stage boundary long
    // before its co-located companions do; mapping before they have even
    // assigned their helper roles strands the token. Hold the first move
    // until every co-located robot broadcasts membership (Helper with
    // this group id). Event-driven and empty at fairness 1, where all
    // clocks agree and the handshake would never observe anything.
    if (fairness_ > 1 && !mapper_.started()) {
      for (const RobotPublicState& s : view.colocated) {
        if (s.id == self_ || s.tag == StateTag::Terminated) continue;
        if (s.tag != StateTag::Helper || s.group_id != self_) {
          return result(Action::stay_one(r));
        }
      }
    }
    // Part 2: dwell fairness rounds after every arrival (>= fairness
    // global rounds, since the local clock never outruns global time) so
    // every co-located robot is activated — and its standing Follow
    // registered — before the next move. Empty at fairness 1.
    if (dwell_left_ > 0) {
      --dwell_left_;
      return result(Action::stay_one(r));
    }
    bool token_here = false;
    for (const RobotPublicState& s : view.colocated) {
      if (s.id != self_ && s.tag == StateTag::Helper && s.group_id == self_) {
        token_here = true;
        break;
      }
    }
    const auto decision = mapper_.on_round(view.degree, view.entry_port,
                                           token_here);
    if (decision.has_value()) {
      if (fairness_ > 1) dwell_left_ = fairness_;
      BehaviorResult out =
          result(Action::move(decision->port, decision->take_token));
      // An identification tour reads only token_here, which is false
      // whenever the finder is alone: promise the tour's remaining
      // ports until phase 2. Dwells rule this out above fairness 1.
      const std::span<const sim::Port> ahead = mapper_.tour_ahead();
      if (fairness_ == 1 && !ahead.empty()) {
        out.route = sim::RoutePromise{ahead, phase2_};
        route_from_ = r;
      }
      return out;
    }
    // Map complete and home again: wait out the shared R1 budget.
    return result(Action::stay_until_round(phase2_));
  }

  // ---- Phase 2: spanning-tree collection tour ---------------------------
  if (!tour_ready_) {
    GATHER_PROTOCOL(mapper_.finished());
    mapper_.map().closed_tour(mapper_.map().root(), tour_);
    tour_idx_ = 0;
    tour_ready_ = true;
    // The first tour move must carry whatever sits at the root.
    dwell_left_ = fairness_ > 1 ? fairness_ : 0;
  }

  // Capture rules first (evaluated on this round's snapshot view).
  const auto min_gid = min_other_group_id(view, self_);
  if (min_gid.has_value() && *min_gid < group_id_) {
    const auto finder = min_group_finder(view, self_);
    if (finder.has_value() && finder->group_id == *min_gid) {
      // Captured by a smaller-groupid finder: follow it from now on.
      role_ = Role::Helper;
      group_id_ = finder->group_id;
      followed_ = finder->id;
      return result(Action::follow(followed_, end_));
    }
    // The minimum belongs to a helper: park here with its groupid.
    role_ = Role::Helper;
    group_id_ = *min_gid;
    followed_ = 0;
    return result(Action::stay_until_round(end_));
  }

  // The settling buffer before the tour (empty at fairness 1): by local
  // round tour_start_ every other robot has locally entered phase 2, so
  // no visit can find a waiter still running its phase-1 rules.
  if (r < tour_start_) {
    return result(Action::stay_until_round(tour_start_));
  }

  // Not captured: continue (or finish) the tour, dwelling after arrivals.
  if (tour_idx_ < tour_.ports.size()) {
    if (dwell_left_ > 0) {
      --dwell_left_;
      return result(Action::stay_one(r));
    }
    const sim::Port port = tour_.ports[tour_idx_++];
    if (fairness_ > 1) dwell_left_ = fairness_;
    return result(Action::move(port, true));
  }
  return result(Action::stay_until_round(end_));
}

BehaviorResult UndispersedBehavior::helper_step(const RoundView& view) {
  const Round r = view.round;

  if (r < phase2_) {
    // ---- Phase 1: act as the finder's movable token ----------------------
    // Mirror the finder whenever it is co-located; its take_followers flag
    // decides whether the token moves or is left behind. Nothing here
    // changes before phase 2 unless the co-located robots or their states
    // do (degree and entry port are not read), so the Follow promises to
    // stand until then (sim/action.hpp). Away from the finder the helper
    // stays put whoever else passes: the Stay watches the finder only.
    if (is_colocated(view, group_id_)) {
      return result(Action::follow(group_id_, phase2_));
    }
    return result(Action::stay_watching(phase2_, group_id_));
  }

  // ---- Phase 2: stay until captured by a smaller-groupid finder ---------
  const auto finder = min_group_finder(view, self_);
  // Both Follows below stand until end_ while the co-located robots and
  // their states are unchanged: the capture is not repeated once
  // group_id_ is the captor's, and the captor checks read only the
  // co-located entries. A captured finder's Follow (finder_step) hands
  // over to these same rules at its next consult.
  if (finder.has_value() && finder->group_id < group_id_) {
    group_id_ = finder->group_id;
    followed_ = finder->id;
    return result(Action::follow(followed_, end_));
  }
  if (followed_ != 0) {
    // Under suppression our captor may reach its termination deadline
    // while our clock still lags: it terminated at the gather node, so
    // park here with it (unreachable under synchrony — all clocks agree).
    const RobotPublicState* captor = find_colocated(view, followed_);
    if (captor != nullptr && captor->tag == StateTag::Terminated) {
      followed_ = 0;
      return result(Action::stay_until_round(end_));
    }
    if (captor == nullptr) {
      // Clock drift can let us capture onto a finder that is locally
      // still in phase 1 and then lose it to a token-drop move. Sound
      // recovery per Lemma 7's monotonicity: keep the (smaller) group
      // id, park, and wait to be re-captured by the next tour that
      // passes — the minimum-group finder's tour visits every node.
      // Unreachable under synchrony, where phases agree globally.
      followed_ = 0;
      return result(Action::stay_until_round(end_));
    }
    // Keep mirroring the robot we were captured by (it may itself have
    // parked, in which case we park with it).
    return result(Action::follow(followed_, end_));
  }
  return result(Action::stay_until_round(end_));
}

BehaviorResult UndispersedBehavior::waiter_step(const RoundView& view) {
  if (view.round >= phase2_) {
    // A finder's visit converts the waiter into a helper that follows it.
    const auto finder = min_group_finder(view, self_);
    if (finder.has_value()) {
      role_ = Role::Helper;
      group_id_ = finder->group_id;
      followed_ = finder->id;
      return result(Action::follow(followed_));
    }
  }
  // Before phase 2 nothing a waiter sees changes its Stay.
  if (view.round < phase2_) {
    return result(Action::stay_watching(phase2_, sim::kNobody));
  }
  return result(Action::stay_until_round(end_));
}

std::uint64_t UndispersedBehavior::map_memory_bits() const {
  return mapper_.started() ? mapper_.map().memory_bits() : 0;
}

}  // namespace gather::core
