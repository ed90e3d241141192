// Coverage validation: does a sequence explore a given graph?
//
// This is the exact property the proofs of Lemmas 1–5 rely on ("a robot
// that explores for T rounds visits every node, in particular the waiting
// robot's node"). Experiments validate their sequence/graph pairs with
// these checks before trusting §2.1 results.
#pragma once

#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "uxs/uxs.hpp"

namespace gather::uxs {

/// Walk the sequence from `start` (entry kNoPort); return true if every
/// node of g is visited. Nodes of degree 0 (only n = 1) trivially covered.
[[nodiscard]] bool explores_from(const graph::Topology& g,
                                 const ExplorationSequence& seq,
                                 graph::NodeId start);

/// True if the sequence explores g from every start node.
[[nodiscard]] bool covers_all_starts(const graph::Topology& g,
                                     const ExplorationSequence& seq);
/// The same check on stored offsets, without wrapping them in a sequence.
[[nodiscard]] bool covers_all_starts(const graph::Topology& g,
                                     std::span<const std::uint32_t> offsets);

/// The node reached after walking `steps` sequence elements from `start`.
[[nodiscard]] graph::NodeId walk_endpoint(const graph::Topology& g,
                                          const ExplorationSequence& seq,
                                          graph::NodeId start,
                                          std::uint64_t steps);

}  // namespace gather::uxs
