// BFS spanning trees, oracle-side: examples/maze_rescue.cpp carves its
// maze from one. The finder robot's Phase-2 tour of Undispersed-Gathering
// (§2.2) walks its *map* instead, via core::MapGraph::closed_tour.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace gather::graph {

/// A rooted spanning tree, described by each node's parent and the ports
/// of the connecting edge. parent[root] == root.
struct SpanningTree {
  NodeId root = 0;
  std::vector<NodeId> parent;
  std::vector<Port> port_to_parent;    ///< child-side port; kNoPort at root
  std::vector<Port> port_from_parent;  ///< parent-side port; kNoPort at root
};

/// BFS spanning tree rooted at `root`. Requires connected g.
[[nodiscard]] SpanningTree bfs_spanning_tree(const Graph& g, NodeId root);

}  // namespace gather::graph
