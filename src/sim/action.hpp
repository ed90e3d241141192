// The per-round decision a robot hands back to the engine.
//
// The model's round is: communicate with co-located robots, compute, then
// optionally move (§1.1). `Stay{until}` is the engine's efficiency
// contract: the robot promises that, as long as the set of robots at its
// node does not change, it would keep deciding "stay" up to (but not
// including) round `until` — which lets the engine skip the quiet rounds
// wholesale without changing observable behaviour. `until` is expressed
// in the robot's LOCAL time (RoundView::round — activations since
// release); the engine owns the translation to global wake rounds.
//
// `Follow{leader, until}` models the face-to-face message "I am moving
// through port p, come along" from a co-located leader: the follower's
// action resolves to the leader's action in the same round. `until`
// (reusing `stay_until`, LOCAL time, 0 = none) is the follower's own
// promise: while the set of robots co-located with it and their public
// states stay unchanged, every consult before local round `until`
// returns this same Follow and changes no robot state. The promise
// covers the co-located robots only, not the node's degree or the entry
// port, so it survives the whole group moving on to an empty node. The
// skipping engine acts on it: under a suppressing scheduler it sleeps
// the follower until its leader's wake or that deadline, whichever
// comes first, instead of re-consulting it at every activated round; on
// the global clock it answers the follower's consults by repeating the
// Follow without calling the robot. A Move with take_followers == false
// is how a finder *leaves its token behind* during map construction
// (§2.2 Phase 1).
#pragma once

#include <string>

#include "sim/types.hpp"

namespace gather::sim {

enum class ActionKind : std::uint8_t { Stay, Move, Follow, Terminate };

struct Action {
  ActionKind kind = ActionKind::Stay;
  /// Stay: wake deadline; Follow: promise deadline (both robot-local)
  Round stay_until = 0;
  Port port = kNoPort;         ///< Move: exit port
  bool take_followers = true;  ///< Move: do co-located followers come along?
  RobotId leader = 0;          ///< Follow: co-located robot to mirror

  [[nodiscard]] static Action stay_until_round(Round until) {
    Action a;
    a.kind = ActionKind::Stay;
    a.stay_until = until;
    return a;
  }

  /// Stay for exactly one round (re-decide next round).
  [[nodiscard]] static Action stay_one(Round current_round) {
    return stay_until_round(current_round + 1);
  }

  [[nodiscard]] static Action move(Port port, bool take_followers = true) {
    Action a;
    a.kind = ActionKind::Move;
    a.port = port;
    a.take_followers = take_followers;
    return a;
  }

  /// Mirror `leader`; `until` > 0 promises the same decision before
  /// local round `until` while the co-located robots and their public
  /// states stay unchanged (degree and entry port may change).
  [[nodiscard]] static Action follow(RobotId leader, Round until = 0) {
    Action a;
    a.kind = ActionKind::Follow;
    a.leader = leader;
    a.stay_until = until;
    return a;
  }

  [[nodiscard]] static Action terminate() {
    Action a;
    a.kind = ActionKind::Terminate;
    return a;
  }
};

[[nodiscard]] std::string to_string(ActionKind kind);

}  // namespace gather::sim
