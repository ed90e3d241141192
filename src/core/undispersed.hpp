// Undispersed-Gathering (§2.2, Theorem 8): gathering with detection in
// O(n^3) rounds when some start node holds two or more robots.
//
// Roles are fixed by the configuration at the behavior's start round:
// the minimum-ID robot of a multi-robot node is the *finder*, its
// co-located companions are *helpers* (groupid = finder's label), and
// every solitary robot is a *waiter* (groupid unset).
//
// Phase 1 (rounds [start, start+R1)): each finder builds a map with its
// helper group as a movable token (TokenMapper); waiters sit still; all
// parties wait out the shared R1(n) budget to stay synchronized.
//
// Phase 2 (rounds [start+R1, start+R1+2n)): each finder walks a closed
// spanning-tree tour of its map. Capture rules (Lemma 7): groupids act as
// pair identities; the smaller groupid always wins. A finder that meets a
// robot with smaller groupid is captured (follows a finder, or parks on a
// helper); helpers and waiters start following the smallest-groupid
// finder that visits them. The minimum-groupid finder is never captured,
// completes its tour in exactly 2(n-1) moves, and everyone ends at its
// start node.
//
// All rounds are the robot's LOCAL time (sim::RoundView). Under an
// announced fairness bound B > 1 (the semi-synchronous model, DESIGN.md
// §3.8) the behavior becomes suppression-tolerant without changing a
// single synchronous decision: finders dwell B local rounds after every
// arrival — at least B global rounds, so every co-located robot gets an
// activation (and a standing Follow the engine can carry) before the
// group moves on — the phase-2 boundary keeps its place but the
// collection tour starts only at R1·(B+1)·B, after every waiter's local
// clock provably passed phase 2, and the budgets stretch accordingly
// (core::Schedule::ug_*). At B = 1 dwells are empty and all boundaries
// collapse to the paper's.
//
// The behavior covers rounds [start, start + ug_total); the owner
// decides at round start+ug_total whether to terminate (standalone:
// always; inside Faster-Gathering: the Lemma 11 alone/not-alone
// detection).
#pragma once

#include <optional>

#include "core/behavior.hpp"
#include "core/token_mapper.hpp"
#include "sim/types.hpp"

namespace gather::core {

class UndispersedBehavior {
 public:
  /// `n` is the number of nodes (known to robots); `start` the behavior's
  /// first (local) round; `fairness` the announced scheduler fairness
  /// bound (1 = the paper's synchronous model).
  UndispersedBehavior(RobotId self, std::size_t n, Round start,
                      Round fairness = 1);

  /// Valid for view.round in [start, start + ug_total).
  [[nodiscard]] BehaviorResult step(const RoundView& view);

  /// Peak map memory (bits) — 0 for non-finders.
  [[nodiscard]] std::uint64_t map_memory_bits() const;

  [[nodiscard]] Round phase2_round() const noexcept { return phase2_; }
  [[nodiscard]] Round end_round() const noexcept { return end_; }

 private:
  enum class Role : std::uint8_t { Unassigned, Finder, Helper, Waiter };

  RobotId self_;
  std::size_t n_;
  Round start_;
  Round fairness_;    ///< announced fairness bound B (dwell length)
  Round phase2_;      ///< start + R1·stretch
  Round tour_start_;  ///< start + R1·stretch·B (== phase2_ at B = 1)
  Round end_;         ///< start + ug_total (the owner's decision round)
  /// Remaining dwell rounds before the finder's next move (always 0 at
  /// fairness 1).
  Round dwell_left_ = 0;

  Role role_ = Role::Unassigned;
  RobotId group_id_ = 0;
  /// Helper: the robot currently being followed (0 = parked).
  RobotId followed_ = 0;
  /// Finder phase 1.
  TokenMapper mapper_;
  /// Finder phase 1: the local round of the last consult that promised
  /// a route (kNoRound = none outstanding). The engine may have replayed
  /// tour steps since; the next consult catches the mapper up.
  Round route_from_ = sim::kNoRound;
  /// Finder phase 2 tour.
  bool tour_ready_ = false;
  MapGraph::Tour tour_;
  std::size_t tour_idx_ = 0;

  void assign_role(const RoundView& view);
  [[nodiscard]] BehaviorResult finder_step(const RoundView& view);
  [[nodiscard]] BehaviorResult helper_step(const RoundView& view);
  [[nodiscard]] BehaviorResult waiter_step(const RoundView& view);
  [[nodiscard]] BehaviorResult result(Action action) const;
};

}  // namespace gather::core
