// Unit tests driving the behavior state machines directly with
// hand-built views — pinning the paper's per-rule semantics (role
// assignment, §2.1 merge/terminate rules, §2.3 freeze and bit schedule,
// §2.2 helper/waiter rules) independent of the engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/behavior.hpp"
#include "core/hop_meeting.hpp"
#include "core/undispersed.hpp"
#include "core/uxs_gathering.hpp"
#include "support/rng.hpp"
#include "uxs/uxs.hpp"

namespace gather::core {
namespace {

using sim::ActionKind;
using sim::RobotPublicState;
using sim::RoundView;
using sim::StateTag;

RoundView make_view(Round round, std::uint32_t degree,
                    const std::vector<RobotPublicState>* colocated,
                    sim::Port entry = sim::kNoPort) {
  RoundView view;
  view.round = round;
  view.degree = degree;
  view.entry_port = entry;
  view.colocated = *colocated;  // span over the test's backing vector
  return view;
}

RobotPublicState state(RobotId id, StateTag tag, RobotId gid) {
  RobotPublicState s;
  s.id = id;
  s.tag = tag;
  s.group_id = gid;
  return s;
}

// ---- view helpers vs linear references ----------------------------------

// The id-keyed helpers search the id-sorted view (binary search, or a
// walk from the back); each must agree with a plain linear scan on every
// id: present, absent, below and above the view, the robot itself, and
// terminated entries. The same holds for min_live_id and for the
// Undispersed role rule built on these reads.
TEST(ViewHelpers, MatchLinearReferenceOnRandomSortedViews) {
  support::Xoshiro256 rng(2023);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t size = rng.below(12);  // 0..11 entries
    std::vector<RobotPublicState> entries;
    RobotId id = 0;
    for (std::size_t i = 0; i < size; ++i) {
      id += 1 + static_cast<RobotId>(rng.below(3));  // gaps = absent ids
      const StateTag tag =
          rng.below(3) == 0 ? StateTag::Terminated : StateTag::Helper;
      entries.push_back(state(id, tag, 1 + static_cast<RobotId>(rng.below(4))));
    }
    const RoundView view = make_view(0, 2, &entries);
    // Every id from 0 through one past the last, so the first and last
    // positions, the gaps and both out-of-range ends are all queried.
    for (RobotId query = 0; query <= id + 1; ++query) {
      const auto linear = std::find_if(
          entries.begin(), entries.end(),
          [query](const RobotPublicState& s) { return s.id == query; });
      const RobotPublicState* found = find_colocated(view, query);
      if (linear == entries.end()) {
        EXPECT_EQ(found, nullptr) << "trial " << trial << " id " << query;
      } else {
        EXPECT_EQ(found, &*linear) << "trial " << trial << " id " << query;
      }
      EXPECT_EQ(is_colocated(view, query),
                linear != entries.end() &&
                    linear->tag != StateTag::Terminated)
          << "trial " << trial << " id " << query;

      // `query` as the robot itself (present in the view or not).
      std::size_t others = 0;
      RobotId max_other = 0;
      for (const RobotPublicState& s : entries) {
        if (s.id == query || s.tag == StateTag::Terminated) continue;
        ++others;
        max_other = std::max(max_other, s.id);
      }
      EXPECT_EQ(any_other_live(view, query), others > 0)
          << "trial " << trial << " self " << query;
      EXPECT_EQ(max_other_id(view, query), max_other)
          << "trial " << trial << " self " << query;

      // Role assignment (§2.2) as UndispersedBehavior makes it, against
      // the linear rule: alone -> waiter, else the minimum live id
      // (itself included) is the finder and the rest are its helpers.
      if (linear != entries.end() && linear->tag != StateTag::Terminated) {
        RobotId min_live = query;
        for (const RobotPublicState& s : entries) {
          if (s.tag != StateTag::Terminated) {
            min_live = std::min(min_live, s.id);
          }
        }
        const StateTag expected = others == 0          ? StateTag::Waiter
                                  : min_live == query ? StateTag::Finder
                                                      : StateTag::Helper;
        const RobotId expected_group = others == 0 ? 0 : min_live;
        UndispersedBehavior b(query, /*n=*/5, /*start=*/0);
        const BehaviorResult r = b.step(view);
        EXPECT_EQ(r.tag, expected) << "trial " << trial << " self " << query;
        EXPECT_EQ(r.group_id, expected_group)
            << "trial " << trial << " self " << query;
      }
    }
    RobotId first_live = 0;
    for (const RobotPublicState& s : entries) {
      if (s.tag != StateTag::Terminated) {
        first_live = s.id;
        break;
      }
    }
    EXPECT_EQ(min_live_id(view), first_live) << "trial " << trial;
  }
}

// ---- UndispersedBehavior: role assignment and helper/waiter rules -------

TEST(UndispersedRoles, AloneBecomesWaiter) {
  UndispersedBehavior b(/*self=*/7, /*n=*/5, /*start=*/0);
  const std::vector<RobotPublicState> solo{state(7, StateTag::Init, 0)};
  const auto r = b.step(make_view(0, 2, &solo));
  EXPECT_EQ(r.tag, StateTag::Waiter);
  EXPECT_EQ(r.group_id, 0u);
  EXPECT_EQ(r.action.kind, ActionKind::Stay);
}

TEST(UndispersedRoles, MinimumIdBecomesFinder) {
  UndispersedBehavior b(3, 5, 0);
  const std::vector<RobotPublicState> crowd{state(3, StateTag::Init, 0),
                                            state(9, StateTag::Init, 0)};
  const auto r = b.step(make_view(0, 2, &crowd));
  EXPECT_EQ(r.tag, StateTag::Finder);
  EXPECT_EQ(r.group_id, 3u);
  // The finder immediately starts Phase-1 mapping: a move.
  EXPECT_EQ(r.action.kind, ActionKind::Move);
}

TEST(UndispersedRoles, NonMinimumBecomesHelperOfMinimum) {
  UndispersedBehavior b(9, 5, 0);
  const std::vector<RobotPublicState> crowd{state(3, StateTag::Init, 0),
                                            state(9, StateTag::Init, 0)};
  const auto r = b.step(make_view(0, 2, &crowd));
  EXPECT_EQ(r.tag, StateTag::Helper);
  EXPECT_EQ(r.group_id, 3u);
  // Phase 1: the helper mirrors its finder (the movable token).
  EXPECT_EQ(r.action.kind, ActionKind::Follow);
  EXPECT_EQ(r.action.leader, 3u);
}

TEST(UndispersedHelper, ParksWhenFinderAbsent) {
  UndispersedBehavior b(9, 5, 0);
  const std::vector<RobotPublicState> crowd{state(3, StateTag::Init, 0),
                                            state(9, StateTag::Init, 0)};
  (void)b.step(make_view(0, 2, &crowd));
  // Next round the finder is gone (crossed alone): the token stays.
  const std::vector<RobotPublicState> alone{state(9, StateTag::Helper, 3)};
  const auto r = b.step(make_view(1, 2, &alone));
  EXPECT_EQ(r.action.kind, ActionKind::Stay);
  EXPECT_EQ(r.action.stay_until, b.phase2_round());
}

TEST(UndispersedHelper, Phase2FollowsSmallerGroupFinderOnly) {
  UndispersedBehavior b(9, 3, 0);
  const std::vector<RobotPublicState> crowd{state(3, StateTag::Init, 0),
                                            state(9, StateTag::Init, 0)};
  (void)b.step(make_view(0, 2, &crowd));  // helper of group 3

  // Phase 2: own finder (equal groupid) arrives -> helper does NOT follow.
  const std::vector<RobotPublicState> own{state(3, StateTag::Finder, 3),
                                          state(9, StateTag::Helper, 3)};
  const auto stay = b.step(make_view(b.phase2_round(), 2, &own));
  EXPECT_EQ(stay.action.kind, ActionKind::Stay);
  EXPECT_EQ(stay.group_id, 3u);

  // A smaller-groupid finder arrives -> capture.
  const std::vector<RobotPublicState> smaller{state(2, StateTag::Finder, 2),
                                              state(9, StateTag::Helper, 3)};
  const auto follow = b.step(make_view(b.phase2_round() + 1, 2, &smaller));
  EXPECT_EQ(follow.action.kind, ActionKind::Follow);
  EXPECT_EQ(follow.action.leader, 2u);
  EXPECT_EQ(follow.group_id, 2u);
}

TEST(UndispersedWaiter, IgnoresFindersDuringPhase1) {
  UndispersedBehavior b(7, 5, 0);
  const std::vector<RobotPublicState> solo{state(7, StateTag::Init, 0)};
  (void)b.step(make_view(0, 2, &solo));
  // A finder passes through during Phase 1: the waiter must not react.
  const std::vector<RobotPublicState> visit{state(2, StateTag::Finder, 2),
                                            state(7, StateTag::Waiter, 0)};
  const auto r = b.step(make_view(5, 2, &visit));
  EXPECT_EQ(r.action.kind, ActionKind::Stay);
  EXPECT_EQ(r.tag, StateTag::Waiter);
}

TEST(UndispersedWaiter, FollowsMinimumFinderInPhase2) {
  UndispersedBehavior b(7, 5, 0);
  const std::vector<RobotPublicState> solo{state(7, StateTag::Init, 0)};
  (void)b.step(make_view(0, 2, &solo));
  const std::vector<RobotPublicState> visit{state(4, StateTag::Finder, 4),
                                            state(6, StateTag::Finder, 6),
                                            state(7, StateTag::Waiter, 0)};
  const auto r = b.step(make_view(b.phase2_round() + 2, 2, &visit));
  EXPECT_EQ(r.action.kind, ActionKind::Follow);
  EXPECT_EQ(r.action.leader, 4u);  // minimum groupid finder
  EXPECT_EQ(r.tag, StateTag::Helper);
  EXPECT_EQ(r.group_id, 4u);
}

// ---- HopMeetingBehavior: bit schedule and freeze -------------------------

TEST(HopMeeting, BitZeroStaysWholeCycle) {
  // Label 2 = 10b: bit 0 (LSB) is 0 -> stay through cycle 0.
  HopMeetingBehavior b(/*self=*/2, /*hop=*/1, /*start=*/0, /*cycle_len=*/10,
                       /*cycles=*/3);
  const std::vector<RobotPublicState> solo{state(2, StateTag::HopMeeting, 0)};
  const auto r = b.step(make_view(0, 3, &solo));
  EXPECT_EQ(r.action.kind, ActionKind::Stay);
  EXPECT_EQ(r.action.stay_until, 10u);  // next cycle boundary
}

TEST(HopMeeting, BitOneWalksThenRests) {
  // Label 1 = 1b: bit 0 is 1 -> walk the radius-1 ball (degree 2:
  // 4 moves), then wait out the cycle.
  HopMeetingBehavior b(1, 1, 0, 10, 3);
  const std::vector<RobotPublicState> solo{state(1, StateTag::HopMeeting, 0)};
  Round r = 0;
  int moves = 0;
  sim::Port entry = sim::kNoPort;
  for (; r < 10; ++r) {
    const auto result = b.step(make_view(r, 2, &solo, entry));
    if (result.action.kind == ActionKind::Move) {
      ++moves;
      entry = 0;  // any entry port works for this check
    } else {
      EXPECT_EQ(result.action.stay_until, 10u);
      break;
    }
  }
  EXPECT_EQ(moves, 4);  // 2 neighbors, out and back each
}

TEST(HopMeeting, FreezesOnCompanyUntilEnd) {
  HopMeetingBehavior b(1, 2, 0, 50, 4);
  const std::vector<RobotPublicState> crowd{state(1, StateTag::HopMeeting, 0),
                                            state(9, StateTag::HopMeeting, 0)};
  const auto r = b.step(make_view(7, 3, &crowd));
  EXPECT_EQ(r.action.kind, ActionKind::Stay);
  EXPECT_EQ(r.action.stay_until, b.end_round());
  EXPECT_TRUE(b.frozen());
  // Still frozen later even when alone again.
  const std::vector<RobotPublicState> solo{state(1, StateTag::HopMeeting, 0)};
  const auto later = b.step(make_view(60, 3, &solo));
  EXPECT_EQ(later.action.kind, ActionKind::Stay);
  EXPECT_EQ(later.action.stay_until, b.end_round());
}

TEST(HopMeeting, ExhaustedLabelReadsZeroBits) {
  // Label 1 has one bit; cycles beyond it are 0-bits (stay) — the
  // paper's "waits for the procedure to end".
  HopMeetingBehavior b(1, 1, 0, 10, 3);
  const std::vector<RobotPublicState> solo{state(1, StateTag::HopMeeting, 0)};
  const auto r = b.step(make_view(15, 2, &solo));
  EXPECT_EQ(r.action.kind, ActionKind::Stay);
  EXPECT_EQ(r.action.stay_until, 20u);
}

// ---- UxsGatheringBehavior: §2.1 leader/follower machine ------------------

uxs::SequencePtr tiny_sequence() {
  return std::make_shared<uxs::ExplorationSequence>(
      "tiny", std::vector<std::uint32_t>{1, 1, 1, 1});  // T = 4
}

TEST(UxsBehavior, BitOneExploresFirstHalf) {
  // Label 1 = 1b: bit 0 = 1 -> explore rounds 0..3, wait rounds 4..7.
  UxsGatheringBehavior b(1, tiny_sequence(), 0);
  const std::vector<RobotPublicState> solo{state(1, StateTag::Leader, 1)};
  const auto move = b.step(make_view(0, 2, &solo));
  EXPECT_EQ(move.action.kind, ActionKind::Move);
  EXPECT_EQ(move.tag, StateTag::Leader);
  const auto wait = b.step(make_view(4, 2, &solo));
  EXPECT_EQ(wait.action.kind, ActionKind::Stay);
  EXPECT_EQ(wait.action.stay_until, 8u);
}

TEST(UxsBehavior, BitZeroWaitsFirstHalf) {
  // Label 2 = 10b: bit 0 = 0 -> wait rounds 0..3, explore 4..7.
  UxsGatheringBehavior b(2, tiny_sequence(), 0);
  const std::vector<RobotPublicState> solo{state(2, StateTag::Leader, 2)};
  const auto wait = b.step(make_view(0, 2, &solo));
  EXPECT_EQ(wait.action.kind, ActionKind::Stay);
  EXPECT_EQ(wait.action.stay_until, 4u);
  const auto move = b.step(make_view(4, 2, &solo));
  EXPECT_EQ(move.action.kind, ActionKind::Move);
}

TEST(UxsBehavior, MergesTowardLargerLabel) {
  UxsGatheringBehavior b(2, tiny_sequence(), 0);
  const std::vector<RobotPublicState> crowd{state(2, StateTag::Leader, 2),
                                            state(9, StateTag::Leader, 9)};
  const auto r = b.step(make_view(0, 2, &crowd));
  EXPECT_EQ(r.action.kind, ActionKind::Follow);
  EXPECT_EQ(r.action.leader, 9u);
  EXPECT_EQ(r.tag, StateTag::Follower);
  EXPECT_EQ(r.group_id, 9u);
}

TEST(UxsBehavior, FollowerRetargetsToEvenLargerLabel) {
  UxsGatheringBehavior b(2, tiny_sequence(), 0);
  const std::vector<RobotPublicState> first{state(2, StateTag::Leader, 2),
                                            state(9, StateTag::Leader, 9)};
  (void)b.step(make_view(0, 2, &first));
  const std::vector<RobotPublicState> second{state(2, StateTag::Follower, 9),
                                             state(9, StateTag::Leader, 9),
                                             state(12, StateTag::Leader, 12)};
  const auto r = b.step(make_view(1, 2, &second));
  EXPECT_EQ(r.action.kind, ActionKind::Follow);
  EXPECT_EQ(r.action.leader, 12u);
}

TEST(UxsBehavior, LeaderIgnoresSmallerArrivals) {
  UxsGatheringBehavior b(9, tiny_sequence(), 0);
  const std::vector<RobotPublicState> crowd{state(2, StateTag::Leader, 2),
                                            state(9, StateTag::Leader, 9)};
  const auto r = b.step(make_view(0, 2, &crowd));
  EXPECT_NE(r.action.kind, ActionKind::Follow);
  EXPECT_EQ(r.tag, StateTag::Leader);
}

TEST(UxsBehavior, TerminatesAfterQuietWindow) {
  // Label 1: bit phase [0,8), termination window [8,16), decision at 16.
  UxsGatheringBehavior b(1, tiny_sequence(), 0);
  const std::vector<RobotPublicState> solo{state(1, StateTag::Leader, 1)};
  const auto waiting = b.step(make_view(8, 2, &solo));
  EXPECT_EQ(waiting.action.kind, ActionKind::Stay);
  EXPECT_EQ(waiting.action.stay_until, 16u);
  const auto done = b.step(make_view(16, 2, &solo));
  EXPECT_EQ(done.action.kind, ActionKind::Terminate);
}

TEST(UxsBehavior, ArrivalDuringWindowPreventsTermination) {
  UxsGatheringBehavior b(1, tiny_sequence(), 0);
  const std::vector<RobotPublicState> solo{state(1, StateTag::Leader, 1)};
  (void)b.step(make_view(8, 2, &solo));
  // A larger robot shows up mid-window: follow it, don't terminate.
  const std::vector<RobotPublicState> crowd{state(1, StateTag::Leader, 1),
                                            state(6, StateTag::Leader, 6)};
  const auto r = b.step(make_view(12, 2, &crowd));
  EXPECT_EQ(r.action.kind, ActionKind::Follow);
  EXPECT_EQ(r.action.leader, 6u);
}

TEST(UxsBehavior, WalkUsesUxsSemantics) {
  // Walk step 0 uses entry = none: port = offset mod degree = 1 mod 3.
  UxsGatheringBehavior b(1, tiny_sequence(), 0);
  const std::vector<RobotPublicState> solo{state(1, StateTag::Leader, 1)};
  const auto first = b.step(make_view(0, 3, &solo));
  ASSERT_EQ(first.action.kind, ActionKind::Move);
  EXPECT_EQ(first.action.port, 1u);
  // Step 1 chains: (entry 2 + offset 1) mod 3 = 0.
  const auto second = b.step(make_view(1, 3, &solo, /*entry=*/2));
  ASSERT_EQ(second.action.kind, ActionKind::Move);
  EXPECT_EQ(second.action.port, 0u);
}

}  // namespace
}  // namespace gather::core
