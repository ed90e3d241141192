// The finder's growing map of the anonymous graph (§2.2 Phase 1; the
// O(m log n)-bit memory term of Theorems 8 and 16).
//
// Map nodes are the finder's private names for physical nodes it has
// *identified* (proved distinct via the token test). Each map node stores
// its observed degree and, per port, whether the edge endpoint is
// resolved and to which map node / entry port it leads. The resolved
// subgraph is connected at all times (nodes are only added via resolved
// edges), which is what makes navigation and closed tours possible.
//
// Routes and tours are written into caller-owned vectors, and the
// breadth-first search behind them runs in scratch the map keeps, so a
// finder that plans one route or tour per frontier port allocates only
// while its map grows. A map belongs to one robot: the scratch makes
// concurrent calls on one MapGraph unsafe, even the const ones.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace gather::core {

class MapGraph {
 public:
  using MapNode = std::uint32_t;

  /// Create with the initial node (the node where map building starts).
  explicit MapGraph(std::uint32_t root_degree);

  [[nodiscard]] MapNode root() const noexcept { return 0; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::uint32_t degree(MapNode v) const;

  /// Add a newly identified node of the given observed degree.
  MapNode add_node(std::uint32_t degree);

  /// Record that (u, pu) and (v, pv) are the two endpoints of one edge.
  void resolve(MapNode u, sim::Port pu, MapNode v, sim::Port pv);

  [[nodiscard]] bool is_resolved(MapNode v, sim::Port p) const;
  /// Endpoint of a resolved port: (map node, far entry port).
  [[nodiscard]] std::pair<MapNode, sim::Port> endpoint(MapNode v, sim::Port p) const;

  [[nodiscard]] bool complete() const;

  /// BFS port-route from `from` to `to` over resolved edges, written
  /// into `route` (replacing its contents).
  void path_ports(MapNode from, MapNode to,
                  std::vector<sim::Port>& route) const;

  /// A closed walk as parallel arrays: step i leaves through ports[i]
  /// and arrives at map node arrivals[i].
  struct Tour {
    std::vector<sim::Port> ports;
    std::vector<MapNode> arrivals;
  };
  /// Closed walk from `start` that visits every map node and returns to
  /// `start`: a DFS tour of the BFS tree over resolved edges, children in
  /// ascending parent-side port order; 2(n'-1) steps for n' map nodes,
  /// written into `tour` (replacing its contents).
  void closed_tour(MapNode start, Tour& tour) const;

  /// Export the completed map as a port-labeled graph (requires complete()),
  /// for the isomorphism oracle in tests.
  [[nodiscard]] graph::Graph to_graph() const;

  /// Memory footprint of the map in bits under O(log n)-bit node names —
  /// the quantity behind the paper's O(m log n) memory claim.
  [[nodiscard]] std::uint64_t memory_bits() const;

 private:
  struct PortSlot {
    bool resolved = false;
    MapNode to = 0;
    sim::Port to_port = 0;
  };
  struct Node {
    std::uint32_t degree = 0;
    std::vector<PortSlot> ports;
  };
  std::vector<Node> nodes_;
  std::size_t resolved_half_edges_ = 0;

  /// BFS over resolved edges, ports scanned in ascending order, into
  /// bfs_ (map_graph.cpp).
  struct Bfs {
    static constexpr MapNode kUnseen = static_cast<MapNode>(-1);
    /// Tree edge into a node: its parent, the parent-side port (`down`)
    /// and the child-side port (`up`). kUnseen parent = not reached.
    struct Via {
      MapNode parent = kUnseen;
      sim::Port down = sim::kNoPort;
      sim::Port up = sim::kNoPort;
    };
    std::vector<Via> via;  ///< per map node
    std::vector<MapNode> order;
    std::vector<std::uint32_t> first_child;  ///< per BFS position, plus an end
    /// closed_tour's DFS frames: a BFS position and its next child.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;
  };
  mutable Bfs bfs_;
  void bfs(MapNode start, MapNode target) const;
};

}  // namespace gather::core
