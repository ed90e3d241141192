// Phase-1 map construction (§2.2; the O(mn) ⊆ O(n^3) term of Theorem 8):
// the finder, using its co-located
// helper group as a *movable token*, builds a port-labeled map of the
// anonymous graph — the token-explorer approach of Dieudonné–Pelc–Peleg
// [18], reconstructed here.
//
// Frontier loop (BFS order over unresolved (node, port) pairs — the
// paper's "balls of increasing radius"):
//   1. walk WITH the token to the frontier node u (resolved edges only);
//   2. cross the unknown port p together; note the entry port q and the
//      degree of the far node x; leave the token at x and step back to u;
//   3. walk a closed tour of all known map nodes; if the token is sighted
//      at map node w, then x ≡ w — physical co-location with one's OWN
//      token (identified by groupid, so concurrent finder/token pairs
//      cannot be confused) is the identification test;
//   4. otherwise x is a new node: name it, queue its ports, and rejoin
//      the token by crossing p again.
//
// Move budget per directed port: ≤ (n-1) + 1 + 1 + 2(n-1) + 1 ≤ 3n moves,
// within the R1(n) = (4n+2)·n(n-1) + 2n + 8 budget shared by all robots
// (Schedule::map_budget); the walk home at the end costs ≤ n-1 more.
#pragma once

#include <deque>
#include <optional>
#include <span>

#include "core/map_graph.hpp"
#include "sim/types.hpp"

namespace gather::core {

class TokenMapper {
 public:
  TokenMapper() = default;

  struct Decision {
    sim::Port port = sim::kNoPort;
    /// False when the finder moves alone (dropping the token / touring).
    bool take_token = true;
  };

  /// One call per round. `degree` / `entry_port` describe the finder's
  /// current node and last traversal; `token_here` is whether a robot of
  /// the finder's own group is co-located. Returns the move to make, or
  /// nullopt once the map is complete and the finder is back home with
  /// the token.
  [[nodiscard]] std::optional<Decision> on_round(std::uint32_t degree,
                                                 sim::Port entry_port,
                                                 bool token_here);

  [[nodiscard]] bool finished() const noexcept { return state_ == State::Done; }
  [[nodiscard]] bool started() const noexcept { return map_.has_value(); }
  [[nodiscard]] const MapGraph& map() const {
    GATHER_EXPECTS(map_.has_value());
    return *map_;
  }
  /// Finder's current position in its map (valid while on known nodes).
  [[nodiscard]] MapGraph::MapNode position() const noexcept { return map_pos_; }

  /// Right after on_round returned an identification-tour step: the
  /// ports of the tour's remaining steps, which on_round returns one per
  /// call for as long as the token is not here. Empty otherwise.
  [[nodiscard]] std::span<const sim::Port> tour_ahead() const noexcept {
    if (state_ != State::Tour) return {};
    return std::span<const sim::Port>(tour_.ports).subspan(tour_idx_);
  }
  /// Take `steps` tour steps without calls, as that many on_round calls
  /// without the token would (at most tour_ahead().size()).
  void skip_tour(std::size_t steps);

 private:
  enum class State : std::uint8_t {
    Init,        ///< before the first round
    Select,      ///< pick the next frontier port (token co-located)
    WalkToTask,  ///< en route to the frontier node u, token in tow
    Cross,       ///< at u: cross the unknown port together
    AfterCross,  ///< at x: record q and δ(x), step back alone
    TourSetup,   ///< back at u: prepare the identification tour
    Tour,        ///< touring known nodes, watching for the token
    WalkHome,    ///< map complete: return to the root with the token
    Done,
  };

  State state_ = State::Init;
  std::optional<MapGraph> map_;
  MapGraph::MapNode map_pos_ = 0;

  std::deque<std::pair<MapGraph::MapNode, sim::Port>> frontier_;
  MapGraph::MapNode task_u_ = 0;
  sim::Port task_p_ = 0;
  std::uint32_t x_degree_ = 0;
  sim::Port x_entry_ = sim::kNoPort;

  std::vector<sim::Port> plan_;
  std::size_t plan_idx_ = 0;
  MapGraph::Tour tour_;
  std::size_t tour_idx_ = 0;
  MapGraph::MapNode tour_pos_ = 0;

  void queue_ports(MapGraph::MapNode v, sim::Port except);
};

}  // namespace gather::core
