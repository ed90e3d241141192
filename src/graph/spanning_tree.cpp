#include "graph/spanning_tree.hpp"

#include <queue>

#include "graph/algorithms.hpp"

namespace gather::graph {

SpanningTree bfs_spanning_tree(const Graph& g, NodeId root) {
  GATHER_EXPECTS(root < g.num_nodes());
  const std::size_t n = g.num_nodes();
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(n, root);
  tree.port_to_parent.assign(n, kNoPort);
  tree.port_from_parent.assign(n, kNoPort);
  std::vector<bool> seen(n, false);
  seen[root] = true;
  std::queue<NodeId> frontier;
  frontier.push(root);
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (Port p = 0; p < g.degree(v); ++p) {
      const HalfEdge h = g.traverse(v, p);
      if (!seen[h.to]) {
        seen[h.to] = true;
        tree.parent[h.to] = v;
        tree.port_from_parent[h.to] = p;
        tree.port_to_parent[h.to] = h.to_port;
        frontier.push(h.to);
        ++reached;
      }
    }
  }
  GATHER_ENSURES(reached == n);
  return tree;
}

}  // namespace gather::graph
