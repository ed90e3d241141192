#include "core/map_graph.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace gather::core {

MapGraph::MapGraph(std::uint32_t root_degree) {
  nodes_.push_back(Node{root_degree, std::vector<PortSlot>(root_degree)});
}

std::uint32_t MapGraph::degree(MapNode v) const {
  GATHER_EXPECTS(v < nodes_.size());
  return nodes_[v].degree;
}

MapGraph::MapNode MapGraph::add_node(std::uint32_t degree) {
  nodes_.push_back(Node{degree, std::vector<PortSlot>(degree)});
  return static_cast<MapNode>(nodes_.size() - 1);
}

void MapGraph::resolve(MapNode u, sim::Port pu, MapNode v, sim::Port pv) {
  GATHER_EXPECTS(u < nodes_.size() && v < nodes_.size());
  // Protocol-class: the mapper derives these arguments from token
  // sightings, and an adversarial schedule that shears the token
  // protocol (misaligned starts, crashes) feeds inconsistent
  // resolutions here — a recordable robot-side outcome, not a library
  // bug (see support/assert.hpp on the taxonomy).
  GATHER_PROTOCOL(pu < nodes_[u].degree && pv < nodes_[v].degree);
  GATHER_PROTOCOL(!nodes_[u].ports[pu].resolved);
  GATHER_PROTOCOL(!nodes_[v].ports[pv].resolved);
  nodes_[u].ports[pu] = PortSlot{true, v, pv};
  nodes_[v].ports[pv] = PortSlot{true, u, pu};
  resolved_half_edges_ += (u == v && pu == pv) ? 1 : 2;
}

bool MapGraph::is_resolved(MapNode v, sim::Port p) const {
  GATHER_EXPECTS(v < nodes_.size());
  GATHER_EXPECTS(p < nodes_[v].degree);
  return nodes_[v].ports[p].resolved;
}

std::pair<MapGraph::MapNode, sim::Port> MapGraph::endpoint(MapNode v,
                                                           sim::Port p) const {
  GATHER_EXPECTS(is_resolved(v, p));
  const PortSlot& slot = nodes_[v].ports[p];
  return {slot.to, slot.to_port};
}

bool MapGraph::complete() const {
  for (const Node& node : nodes_) {
    for (const PortSlot& slot : node.ports) {
      if (!slot.resolved) return false;
    }
  }
  return true;
}

// One breadth-first search over resolved edges. Ports are scanned in
// ascending order, so the nodes first reached from order[i] are the
// contiguous range order[first_child[i] .. first_child[i+1]), already in
// ascending parent-side port order: the BFS tree's child lists, with no
// per-node vectors and no sort.
void MapGraph::bfs(MapNode start, MapNode target) const {
  Bfs& t = bfs_;
  // The map grows one node at a time: an exact-size reallocation per
  // node would fragment the heap (measured: +4% peak RSS on perfbench
  // `dispersed`), so grow the buffer geometrically.
  if (t.via.capacity() < nodes_.size()) t.via.reserve(2 * nodes_.size());
  t.via.assign(nodes_.size(), Bfs::Via{});
  t.order.clear();
  t.first_child.clear();
  t.via[start].parent = start;
  t.order.push_back(start);
  // Stop once `target` is reached (kUnseen: never): the route to it is
  // final by then.
  const auto searching = [&] {
    return target == Bfs::kUnseen || t.via[target].parent == Bfs::kUnseen;
  };
  for (std::size_t head = 0; head < t.order.size() && searching(); ++head) {
    const MapNode v = t.order[head];
    t.first_child.push_back(static_cast<std::uint32_t>(t.order.size()));
    const Node& node = nodes_[v];
    for (sim::Port p = 0; p < node.degree; ++p) {
      const PortSlot& slot = node.ports[p];
      if (!slot.resolved || t.via[slot.to].parent != Bfs::kUnseen) continue;
      t.via[slot.to] = Bfs::Via{v, p, slot.to_port};
      t.order.push_back(slot.to);
    }
  }
  t.first_child.push_back(static_cast<std::uint32_t>(t.order.size()));
}

void MapGraph::path_ports(MapNode from, MapNode to,
                          std::vector<sim::Port>& route) const {
  GATHER_EXPECTS(from < nodes_.size() && to < nodes_.size());
  route.clear();
  if (from == to) return;
  bfs(from, to);
  const Bfs& t = bfs_;
  // The resolved subgraph is connected by construction.
  GATHER_ENSURES(t.via[to].parent != Bfs::kUnseen);
  for (MapNode v = to; v != from; v = t.via[v].parent) {
    route.push_back(t.via[v].down);
  }
  std::reverse(route.begin(), route.end());
}

void MapGraph::closed_tour(MapNode start, Tour& tour) const {
  GATHER_EXPECTS(start < nodes_.size());
  bfs(start, Bfs::kUnseen);
  const Bfs& t = bfs_;
  GATHER_ENSURES(t.order.size() == nodes_.size());
  tour.ports.clear();
  tour.arrivals.clear();
  const auto step = [&tour](sim::Port port, MapNode arrives_at) {
    tour.ports.push_back(port);
    tour.arrivals.push_back(arrives_at);
  };
  // DFS over BFS positions: each frame walks its node's child range.
  auto& stack = bfs_.stack;
  stack.clear();
  stack.emplace_back(0, t.first_child[0]);
  while (!stack.empty()) {
    auto& [at, next_child] = stack.back();
    if (next_child < t.first_child[at + 1]) {
      const std::uint32_t child = next_child++;
      const MapNode c = t.order[child];
      step(t.via[c].down, c);
      stack.emplace_back(child, t.first_child[child]);
    } else {
      const MapNode v = t.order[at];
      if (at != 0) step(t.via[v].up, t.via[v].parent);
      stack.pop_back();
    }
  }
  GATHER_ENSURES(tour.ports.size() == 2 * (nodes_.size() - 1));
}

graph::Graph MapGraph::to_graph() const {
  GATHER_EXPECTS(complete());
  std::vector<std::vector<graph::HalfEdge>> adjacency(nodes_.size());
  for (MapNode v = 0; v < nodes_.size(); ++v) {
    adjacency[v].resize(nodes_[v].degree);
    for (sim::Port p = 0; p < nodes_[v].degree; ++p) {
      const PortSlot& slot = nodes_[v].ports[p];
      adjacency[v][p] = graph::HalfEdge{slot.to, slot.to_port};
    }
  }
  return graph::Graph::from_adjacency(std::move(adjacency));
}

std::uint64_t MapGraph::memory_bits() const {
  // Node names and port numbers are O(log n)-bit quantities; each port
  // slot stores (resolved?, to, to_port): 1 + 2⌈log2(n'+1)⌉ bits, plus the
  // degree per node.
  const std::uint64_t name_bits =
      std::max<std::uint64_t>(1, support::ceil_log2(nodes_.size() + 1));
  std::uint64_t bits = 0;
  for (const Node& node : nodes_) {
    bits += name_bits;  // degree field
    bits += node.ports.size() * (1 + 2 * name_bits);
  }
  return bits;
}

}  // namespace gather::core
