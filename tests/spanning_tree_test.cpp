// BFS spanning-tree tests: the tree examples/maze_rescue.cpp carves its
// maze from.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"

namespace gather::graph {
namespace {

TEST(SpanningTree, ParentDistancesDecrease) {
  const Graph g = make_grid(4, 4);
  const SpanningTree tree = bfs_spanning_tree(g, 5);
  const auto dist = bfs_distances(g, 5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == tree.root) continue;
    EXPECT_EQ(dist[v], dist[tree.parent[v]] + 1);  // BFS tree property
  }
}

TEST(SpanningTree, PortFieldsConsistent) {
  const Graph g = make_random_connected(14, 25, 3);
  const SpanningTree tree = bfs_spanning_tree(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == tree.root) continue;
    const HalfEdge down = g.traverse(tree.parent[v], tree.port_from_parent[v]);
    EXPECT_EQ(down.to, v);
    EXPECT_EQ(down.to_port, tree.port_to_parent[v]);
  }
}

}  // namespace
}  // namespace gather::graph
