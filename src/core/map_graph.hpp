// The finder's growing map of the anonymous graph (§2.2 Phase 1; the
// O(m log n)-bit memory term of Theorems 8 and 16).
//
// Map nodes are the finder's private names for physical nodes it has
// *identified* (proved distinct via the token test). Each map node stores
// its observed degree and, per port, whether the edge endpoint is
// resolved and to which map node / entry port it leads. The resolved
// subgraph is connected at all times (nodes are only added via resolved
// edges), which is what makes navigation and closed tours possible.
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

  /// BFS port-route from `from` to `to` over resolved edges.
  [[nodiscard]] std::vector<sim::Port> path_ports(MapNode from, MapNode to) const;

  /// Closed walk from `start` that visits every map node and returns to
  /// `start`: a DFS tour of the BFS tree over resolved edges, children in
  /// ascending parent-side port order. Returns the (exit port, arrival
  /// node) steps; 2(n'-1) steps for n' map nodes.
  struct TourStep {
    sim::Port port;
    MapNode arrives_at;
  };
  [[nodiscard]] std::vector<TourStep> closed_tour(MapNode start) const;

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

  /// BFS over resolved edges, ports scanned in ascending order (map_graph.cpp).
  struct Bfs;
  [[nodiscard]] Bfs bfs(MapNode start, MapNode target) const;
};

}  // namespace gather::core
