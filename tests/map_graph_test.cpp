// MapGraph tests: the finder's partial-map bookkeeping, navigation over
// resolved edges, closed tours, and export for the isomorphism oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <string>
#include <utility>

#include "core/map_graph.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "support/rng.hpp"

namespace gather::core {
namespace {

TEST(MapGraph, StartsWithRootOnly) {
  MapGraph map(3);
  EXPECT_EQ(map.num_nodes(), 1u);
  EXPECT_EQ(map.degree(map.root()), 3u);
  EXPECT_FALSE(map.complete());
  EXPECT_FALSE(map.is_resolved(0, 0));
}

TEST(MapGraph, ResolveSetsBothSides) {
  MapGraph map(2);
  const auto fresh = map.add_node(1);
  map.resolve(map.root(), 0, fresh, 0);
  EXPECT_TRUE(map.is_resolved(0, 0));
  EXPECT_TRUE(map.is_resolved(fresh, 0));
  const auto [to, port] = map.endpoint(map.root(), 0);
  EXPECT_EQ(to, fresh);
  EXPECT_EQ(port, 0u);
}

TEST(MapGraph, DoubleResolveRejected) {
  MapGraph map(2);
  const auto fresh = map.add_node(2);
  map.resolve(0, 0, fresh, 0);
  EXPECT_THROW(map.resolve(0, 0, fresh, 1), ContractViolation);
}

TEST(MapGraph, CompleteAfterAllPortsResolved) {
  // Two nodes joined by one edge, each degree 1.
  MapGraph map(1);
  const auto fresh = map.add_node(1);
  EXPECT_FALSE(map.complete());
  map.resolve(0, 0, fresh, 0);
  EXPECT_TRUE(map.complete());
}

TEST(MapGraph, PathPortsNavigatesResolvedSubgraph) {
  // Build a path 0-1-2 in map space.
  MapGraph map(1);
  const auto a = map.add_node(2);
  map.resolve(0, 0, a, 0);
  const auto b = map.add_node(1);
  map.resolve(a, 1, b, 0);
  std::vector<sim::Port> route;
  map.path_ports(0, b, route);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(route[0], 0u);
  EXPECT_EQ(route[1], 1u);
  map.path_ports(b, b, route);
  EXPECT_TRUE(route.empty());
}

TEST(MapGraph, ClosedTourVisitsAllAndCloses) {
  // Star with 3 leaves in map space.
  MapGraph map(3);
  for (sim::Port p = 0; p < 3; ++p) {
    const auto leaf = map.add_node(1);
    map.resolve(0, p, leaf, 0);
  }
  MapGraph::Tour tour;
  map.closed_tour(0, tour);
  EXPECT_EQ(tour.ports.size(), 6u);
  ASSERT_EQ(tour.arrivals.size(), 6u);
  std::set<MapGraph::MapNode> seen{0};
  MapGraph::MapNode at = 0;
  for (std::size_t i = 0; i < tour.ports.size(); ++i) {
    at = map.endpoint(at, tour.ports[i]).first;
    EXPECT_EQ(at, tour.arrivals[i]);
    seen.insert(at);
  }
  EXPECT_EQ(at, 0u);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(MapGraph, ClosedTourFromNonRoot) {
  MapGraph map(2);
  const auto a = map.add_node(2);
  map.resolve(0, 0, a, 0);
  const auto b = map.add_node(2);
  map.resolve(a, 1, b, 0);
  MapGraph::Tour tour;
  map.closed_tour(a, tour);
  EXPECT_EQ(tour.ports.size(), 4u);
  EXPECT_EQ(tour.arrivals.back(), a);
}

TEST(MapGraph, SingleNodeTourIsEmpty) {
  MapGraph map(0);
  MapGraph::Tour tour{{1}, {1}};  // stale contents are replaced
  map.closed_tour(0, tour);
  EXPECT_TRUE(tour.ports.empty());
  EXPECT_TRUE(tour.arrivals.empty());
  EXPECT_TRUE(map.complete());
}

TEST(MapGraph, ToGraphRoundTripsRing) {
  // Encode a 4-ring: each node degree 2, port 1 -> next's port 0.
  MapGraph map(2);
  MapGraph::MapNode prev = 0;
  std::vector<MapGraph::MapNode> nodes{0};
  for (int i = 0; i < 3; ++i) {
    const auto fresh = map.add_node(2);
    map.resolve(prev, 1, fresh, 0);
    nodes.push_back(fresh);
    prev = fresh;
  }
  map.resolve(prev, 1, 0, 0);
  ASSERT_TRUE(map.complete());
  const graph::Graph exported = map.to_graph();
  EXPECT_EQ(exported.num_nodes(), 4u);
  EXPECT_EQ(exported.num_edges(), 4u);
  EXPECT_TRUE(graph::validate(exported));
  // Ring with uniform prev/next ports IS port-isomorphic to itself rooted
  // anywhere; sanity: it is a connected 2-regular graph on 4 nodes.
  for (graph::NodeId v = 0; v < 4; ++v) EXPECT_EQ(exported.degree(v), 2u);
}

TEST(MapGraph, MemoryBitsGrowWithEdges) {
  MapGraph small(1);
  const auto leaf = small.add_node(1);
  small.resolve(0, 0, leaf, 0);
  MapGraph big(3);
  for (sim::Port p = 0; p < 3; ++p) {
    const auto fresh = big.add_node(1);
    big.resolve(0, p, fresh, 0);
  }
  EXPECT_GT(big.memory_bits(), small.memory_bits());
}

// ---- differential: the single-BFS tour against the reference ------------
//
// The reference is the earlier implementation, kept here verbatim in
// substance: a BFS tree with per-node child lists sorted by parent-side
// port for closed_tour, and a separate early-exit BFS for path_ports.

struct RefTree {
  std::vector<MapGraph::MapNode> parent;
  std::vector<sim::Port> port_to_parent;
  std::vector<sim::Port> port_from_parent;
};

RefTree ref_bfs_tree(const MapGraph& map, MapGraph::MapNode start) {
  const auto n = static_cast<MapGraph::MapNode>(map.num_nodes());
  RefTree tree;
  tree.parent.assign(n, start);
  tree.port_to_parent.assign(n, sim::kNoPort);
  tree.port_from_parent.assign(n, sim::kNoPort);
  std::vector<bool> seen(n, false);
  seen[start] = true;
  std::queue<MapGraph::MapNode> frontier;
  frontier.push(start);
  while (!frontier.empty()) {
    const auto v = frontier.front();
    frontier.pop();
    for (sim::Port p = 0; p < map.degree(v); ++p) {
      if (!map.is_resolved(v, p)) continue;
      const auto [to, to_port] = map.endpoint(v, p);
      if (!seen[to]) {
        seen[to] = true;
        tree.parent[to] = v;
        tree.port_from_parent[to] = p;
        tree.port_to_parent[to] = to_port;
        frontier.push(to);
      }
    }
  }
  return tree;
}

MapGraph::Tour ref_closed_tour(const MapGraph& map, MapGraph::MapNode start) {
  const RefTree tree = ref_bfs_tree(map, start);
  std::vector<std::vector<MapGraph::MapNode>> children(map.num_nodes());
  for (MapGraph::MapNode v = 0; v < map.num_nodes(); ++v) {
    if (v == start) continue;
    children[tree.parent[v]].push_back(v);
  }
  for (auto& kids : children) {
    std::sort(kids.begin(), kids.end(),
              [&](MapGraph::MapNode a, MapGraph::MapNode b) {
                return tree.port_from_parent[a] < tree.port_from_parent[b];
              });
  }
  MapGraph::Tour steps;
  struct Frame {
    MapGraph::MapNode node;
    std::size_t next_child;
  };
  std::vector<Frame> stack{{start, 0}};
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child < children[top.node].size()) {
      const MapGraph::MapNode child = children[top.node][top.next_child];
      ++top.next_child;
      steps.ports.push_back(tree.port_from_parent[child]);
      steps.arrivals.push_back(child);
      stack.push_back(Frame{child, 0});
    } else {
      if (top.node != start) {
        steps.ports.push_back(tree.port_to_parent[top.node]);
        steps.arrivals.push_back(tree.parent[top.node]);
      }
      stack.pop_back();
    }
  }
  return steps;
}

std::vector<sim::Port> ref_path_ports(const MapGraph& map,
                                      MapGraph::MapNode from,
                                      MapGraph::MapNode to) {
  if (from == to) return {};
  const auto n = static_cast<MapGraph::MapNode>(map.num_nodes());
  std::vector<sim::Port> via_port(n, sim::kNoPort);
  std::vector<MapGraph::MapNode> via_node(n, from);
  std::vector<bool> seen(n, false);
  seen[from] = true;
  std::queue<MapGraph::MapNode> frontier;
  frontier.push(from);
  while (!frontier.empty() && !seen[to]) {
    const MapGraph::MapNode v = frontier.front();
    frontier.pop();
    for (sim::Port p = 0; p < map.degree(v); ++p) {
      if (!map.is_resolved(v, p)) continue;
      const MapGraph::MapNode next = map.endpoint(v, p).first;
      if (!seen[next]) {
        seen[next] = true;
        via_port[next] = p;
        via_node[next] = v;
        frontier.push(next);
      }
    }
  }
  std::vector<sim::Port> route;
  for (MapGraph::MapNode v = to; v != from; v = via_node[v]) {
    route.push_back(via_port[v]);
  }
  std::reverse(route.begin(), route.end());
  return route;
}

/// A uniformly chosen unresolved (node, port), if any.
bool pick_free_port(const MapGraph& map, support::Xoshiro256& rng,
                    std::pair<MapGraph::MapNode, sim::Port>& out) {
  std::vector<std::pair<MapGraph::MapNode, sim::Port>> free;
  for (MapGraph::MapNode v = 0; v < map.num_nodes(); ++v) {
    for (sim::Port p = 0; p < map.degree(v); ++p) {
      if (!map.is_resolved(v, p)) free.emplace_back(v, p);
    }
  }
  if (free.empty()) return false;
  out = free[rng.below(free.size())];
  return true;
}

void expect_matches_reference(const MapGraph& map, const std::string& label) {
  // One tour and one route buffer for every call, as the mapper reuses
  // its own: each call must replace what the previous one left.
  const auto n = static_cast<MapGraph::MapNode>(map.num_nodes());
  MapGraph::Tour got;
  std::vector<sim::Port> route;
  for (MapGraph::MapNode start = 0; start < n; ++start) {
    map.closed_tour(start, got);
    const MapGraph::Tour want = ref_closed_tour(map, start);
    ASSERT_EQ(got.ports, want.ports) << label << " start=" << start;
    ASSERT_EQ(got.arrivals, want.arrivals) << label << " start=" << start;
    for (MapGraph::MapNode to = 0; to < n; ++to) {
      map.path_ports(start, to, route);
      ASSERT_EQ(route, ref_path_ports(map, start, to))
          << label << " from=" << start << " to=" << to;
    }
  }
}

TEST(MapGraph, TourAndRoutesMatchReferenceOnRandomPartialMaps) {
  // Seeded partial maps grown the way the mapper grows them (new nodes
  // only through a resolved edge, so the resolved part stays connected),
  // plus edges between known nodes: self-loops on one or two ports and
  // parallel edges. Every intermediate map is checked from every start.
  std::size_t checked_loops = 0;
  std::size_t checked_parallel = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::Xoshiro256 rng(seed);
    const auto random_degree = [&] {
      return static_cast<std::uint32_t>(1 + rng.below(5));
    };
    MapGraph map(random_degree());
    for (int step = 0; step < 24; ++step) {
      std::pair<MapGraph::MapNode, sim::Port> a;
      if (!pick_free_port(map, rng, a)) break;
      if (map.num_nodes() < 14 && rng.below(2) == 0) {
        const auto fresh = map.add_node(random_degree());
        const auto fresh_port =
            static_cast<sim::Port>(rng.below(map.degree(fresh)));
        map.resolve(a.first, a.second, fresh, fresh_port);
      } else {
        std::pair<MapGraph::MapNode, sim::Port> b;
        if (!pick_free_port(map, rng, b)) break;
        if (a.first == b.first) ++checked_loops;
        bool parallel = false;
        for (sim::Port p = 0; p < map.degree(a.first); ++p) {
          parallel = parallel || (map.is_resolved(a.first, p) &&
                                  map.endpoint(a.first, p).first == b.first);
        }
        if (parallel) ++checked_parallel;
        map.resolve(a.first, a.second, b.first, b.second);
      }
      expect_matches_reference(map, "seed=" + std::to_string(seed) +
                                        " step=" + std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
  // The generator really produced the awkward cases.
  EXPECT_GT(checked_loops, 0u);
  EXPECT_GT(checked_parallel, 0u);
}

TEST(MapGraph, EndpointRequiresResolved) {
  MapGraph map(2);
  EXPECT_THROW((void)map.endpoint(0, 0), ContractViolation);
}

}  // namespace
}  // namespace gather::core
