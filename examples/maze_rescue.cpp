// Maze rescue — the paper's motivating scenario (§1): "multiple humans
// or robots trying to find each other in a discretized space such as a
// maze with rooms and corridors".
//
// Builds a random perfect maze (spanning tree of a grid), drops rescue
// robots at far-apart rooms, runs Faster-Gathering, and renders the maze
// with start positions and the meeting room.
#include <iostream>
#include <set>

#include "core/run.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/placement.hpp"
#include "graph/spanning_tree.hpp"
#include "support/rng.hpp"
#include "uxs/uxs.hpp"

namespace {

using namespace gather;

/// A maze: the rooms of a rows×cols grid connected by the corridors of a
/// random spanning tree (every room reachable, no cycles — worst case
/// for exploration).
struct Maze {
  std::size_t rows, cols;
  graph::Graph graph;  // nodes = rooms, edges = corridors
  std::set<std::pair<graph::NodeId, graph::NodeId>> corridors;
};

Maze build_maze(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  const graph::Graph grid = graph::make_grid(rows, cols);
  // Uniform-ish random spanning tree: BFS tree of the grid from a random
  // room after randomizing exploration order via shuffled ports.
  const graph::Graph shuffled = graph::shuffle_ports(grid, seed);
  const graph::SpanningTree tree = graph::bfs_spanning_tree(
      shuffled, static_cast<graph::NodeId>(seed % grid.num_nodes()));
  graph::GraphBuilder builder(grid.num_nodes());
  Maze maze{rows, cols, graph::Graph{}, {}};
  for (graph::NodeId v = 0; v < grid.num_nodes(); ++v) {
    if (v == tree.root) continue;
    const graph::NodeId p = tree.parent[v];
    builder.add_edge(p, v);
    maze.corridors.insert({std::min(p, v), std::max(p, v)});
  }
  maze.graph = builder.finish();
  return maze;
}

void render(const Maze& maze, const graph::Placement& placement,
            graph::NodeId gather_node) {
  auto id = [&](std::size_t r, std::size_t c) {
    return static_cast<graph::NodeId>(r * maze.cols + c);
  };
  auto corridor = [&](graph::NodeId a, graph::NodeId b) {
    return maze.corridors.count({std::min(a, b), std::max(a, b)}) != 0;
  };
  std::set<graph::NodeId> starts;
  for (const auto& r : placement) starts.insert(r.node);

  for (std::size_t c = 0; c < maze.cols; ++c) std::cout << "+--";
  std::cout << "+\n";
  for (std::size_t r = 0; r < maze.rows; ++r) {
    std::cout << "|";
    for (std::size_t c = 0; c < maze.cols; ++c) {
      const graph::NodeId v = id(r, c);
      const char mark = (v == gather_node) ? '*'
                        : starts.count(v)  ? 'R'
                                           : ' ';
      std::cout << mark << mark
                << (c + 1 < maze.cols && corridor(v, id(r, c + 1)) ? ' ' : '|');
    }
    std::cout << "\n+";
    for (std::size_t c = 0; c < maze.cols; ++c) {
      const graph::NodeId v = id(r, c);
      std::cout << (r + 1 < maze.rows && corridor(v, id(r + 1, c)) ? "  +"
                                                                   : "--+");
    }
    std::cout << "\n";
  }
}

}  // namespace

int main() {
  const Maze maze = build_maze(5, 8, 2024);
  const std::size_t k = 6;

  // Rescue robots enter at maximally separated rooms.
  const auto rooms = graph::nodes_adversarial_spread(maze.graph, k, 3);
  const auto placement = graph::make_placement(
      rooms, graph::labels_random_distinct(k, maze.graph.num_nodes(), 2, 5));

  core::RunSpec spec;
  spec.algorithm = core::AlgorithmKind::FasterGathering;
  spec.config =
      core::make_config(maze.graph, uxs::make_covering_sequence(maze.graph, 7));
  const core::RunOutcome out = core::run_gathering(maze.graph, placement, spec);

  std::cout << "Maze rescue: " << k << " robots in a " << maze.rows << "x"
            << maze.cols << " maze (R = entry room, * = meeting room)\n\n";
  render(maze, placement, out.result.gather_node);
  std::cout << "\nmin pairwise entry distance: "
            << graph::min_pairwise_distance(maze.graph,
                                            graph::start_nodes(placement))
            << "\nresolved by stage:           "
            << core::stage_label(out.gathered_stage_hop)
            << "\nrounds:                      " << out.result.metrics.rounds
            << "\ntotal corridor traversals:   "
            << out.result.metrics.total_moves
            << "\ndetection correct:           " << std::boolalpha
            << out.result.detection_correct << "\n";
  return out.result.detection_correct ? 0 : 1;
}
