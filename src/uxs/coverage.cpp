#include "uxs/coverage.hpp"

namespace gather::uxs {

namespace {

/// Walk the offsets (offset(i) for step i), invoking visit(node) on
/// every visited node (including the start) until it returns false;
/// returns the last node.
template <typename Offset, typename Visit>
graph::NodeId walk(const graph::Topology& g, Offset&& offset,
                   graph::NodeId start, std::uint64_t steps, Visit&& visit) {
  graph::NodeId at = start;
  Port entry = graph::kNoPort;
  if (!visit(at)) return at;
  for (std::uint64_t i = 0; i < steps; ++i) {
    const std::uint32_t degree = g.degree(at);
    if (degree == 0) break;  // single-node graph
    const Port exit = next_port(entry, offset(i), degree);
    const graph::HalfEdge h = g.traverse(at, exit);
    at = h.to;
    entry = h.to_port;
    if (!visit(at)) break;
  }
  return at;
}

template <typename Offset>
bool explores(const graph::Topology& g, Offset&& offset, std::uint64_t length,
              graph::NodeId start) {
  // Stop at full coverage: the rest of the prefix cannot undo it, and
  // the covering oracle re-checks ever longer prefixes from every start.
  const std::size_t n = g.num_nodes();
  std::vector<bool> seen(n, false);
  std::size_t count = 0;
  walk(g, offset, start, length, [&](graph::NodeId v) {
    if (!seen[v]) {
      seen[v] = true;
      ++count;
    }
    return count < n;
  });
  return count == n;
}

}  // namespace

bool explores_from(const graph::Topology& g, const ExplorationSequence& seq,
                   graph::NodeId start) {
  return explores(g, [&](std::uint64_t i) { return seq.offset(i); },
                  seq.length(), start);
}

bool covers_all_starts(const graph::Topology& g, const ExplorationSequence& seq) {
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!explores_from(g, seq, v)) return false;
  }
  return true;
}

bool covers_all_starts(const graph::Topology& g,
                       std::span<const std::uint32_t> offsets) {
  const auto offset = [&](std::uint64_t i) { return offsets[i]; };
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!explores(g, offset, offsets.size(), v)) return false;
  }
  return true;
}

graph::NodeId walk_endpoint(const graph::Topology& g,
                            const ExplorationSequence& seq,
                            graph::NodeId start, std::uint64_t steps) {
  GATHER_EXPECTS(steps <= seq.length());
  return walk(g, [&](std::uint64_t i) { return seq.offset(i); }, start, steps,
              [](graph::NodeId) { return true; });
}

}  // namespace gather::uxs
