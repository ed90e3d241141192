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
// A *watched* Stay{until, watch} (reusing `leader`) promises more: before
// local round `until`, every consult returns this same Stay and changes
// no robot state, whatever the occupancy, as long as robot `watch` is not
// co-located and live (no view entry with its label, or one tagged
// Terminated). `kNobody` as the watch makes the promise unconditional.
// On the global clock the skipping engine lets such a sleeper *ride out*
// an occupancy change that does not bring its watch: it credits the
// consult the wake would have caused instead of making it.
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
//
// A Move may also carry a *route promise* (Robot::promise_route, a side
// channel so Action stays 32 bytes): the ports of the robot's next Moves,
// one per consult, up to a local deadline. It holds at every consult
// whose view is the robot alone — degree and entry port are not covered.
// The global-clock skipping engine replays the next port at such a
// consult without calling the robot; a consult with company calls it,
// and the robot catches up on the steps it did not see by the local
// rounds that passed. A real consult replaces or clears the route.
#pragma once

#include <string>

#include "sim/types.hpp"

namespace gather::sim {

enum class ActionKind : std::uint8_t { Stay, Move, Follow, Terminate };

/// A watched Stay's watch that no robot is: the promise holds whatever
/// the occupancy.
inline constexpr RobotId kNobody = ~RobotId{0};

struct Action {
  ActionKind kind = ActionKind::Stay;
  /// Stay: wake deadline; Follow: promise deadline (both robot-local)
  Round stay_until = 0;
  Port port = kNoPort;         ///< Move: exit port
  bool take_followers = true;  ///< Move: do co-located followers come along?
  /// Follow: co-located robot to mirror; Stay: the watch (0 = a plain
  /// Stay, kNobody = unconditional).
  RobotId leader = 0;

  [[nodiscard]] static Action stay_until_round(Round until) {
    Action a;
    a.kind = ActionKind::Stay;
    a.stay_until = until;
    return a;
  }

  /// Stay until local round `until`; before it every consult returns
  /// this same Stay and changes no robot state while robot `watch` is
  /// not co-located and live (kNobody: whatever the occupancy).
  [[nodiscard]] static Action stay_watching(Round until, RobotId watch) {
    Action a = stay_until_round(until);
    a.leader = watch;
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

// The engine copies one Action per consulted robot per round.
static_assert(sizeof(Action) == 32, "keep Action at 32 bytes");

[[nodiscard]] std::string to_string(ActionKind kind);

}  // namespace gather::sim
