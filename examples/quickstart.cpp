// Quickstart: gather five robots on a ring with Faster-Gathering.
//
// Demonstrates the minimal public API surface:
//   1. build a port-labeled graph (graph::make_*),
//   2. choose start nodes and labels (graph::placement helpers),
//   3. configure the algorithm (core::make_config + exploration sequence),
//   4. run (core::run_gathering) and inspect the outcome.
#include <iostream>

#include "core/run.hpp"
#include "graph/generators.hpp"
#include "graph/placement.hpp"
#include "uxs/uxs.hpp"

int main() {
  using namespace gather;

  // An anonymous 12-node ring: nodes have no identities, only local
  // port numbers 0/1 on their two edges.
  const graph::Graph g = graph::make_ring(12);

  // Five robots with labels from [1, n^2], spread adversarially
  // (max-min distance) — the hard case the paper targets.
  const std::size_t k = 5;
  const auto nodes = graph::nodes_adversarial_spread(g, k, /*seed=*/42);
  const auto labels = graph::labels_random_distinct(k, g.num_nodes(), 2, 7);
  const graph::Placement placement = graph::make_placement(nodes, labels);

  std::cout << "Robots (label @ start node):";
  for (const graph::RobotStart& r : placement) {
    std::cout << "  " << r.label << "@" << r.node;
  }
  std::cout << "\n";

  // Configure Faster-Gathering. The exploration sequence is the §2.1
  // black box; robots derive it from n. (make_covering_sequence is the
  // fast test-grade oracle; use make_pseudorandom_sequence with
  // uxs::paper_length for the paper's worst-case T.)
  core::RunSpec spec;
  spec.algorithm = core::AlgorithmKind::FasterGathering;
  spec.config = core::make_config(g, uxs::make_covering_sequence(g, 42));

  const core::RunOutcome out = core::run_gathering(g, placement, spec);

  std::cout << "gathered:          " << std::boolalpha
            << out.result.gathered_at_end << "\n"
            << "detection correct: " << out.result.detection_correct << "\n"
            << "gather node:       " << out.result.gather_node << "\n"
            << "rounds:            " << out.result.metrics.rounds << "\n"
            << "total moves:       " << out.result.metrics.total_moves << "\n"
            << "resolved by stage: " << core::stage_label(out.gathered_stage_hop)
            << " (0 = undispersed step, i = i-hop step, 6 = UXS catch-all)\n";
  return out.result.detection_correct ? 0 : 1;
}
