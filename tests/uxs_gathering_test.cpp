// Theorem 6 tests: UXS-based gathering with detection for any number of
// robots and any initial configuration, in O(T log L) rounds.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/run.hpp"
#include "graph/generators.hpp"
#include "graph/placement.hpp"
#include "sim/trace.hpp"
#include "support/bitstring.hpp"
#include "uxs/coverage.hpp"
#include "uxs/uxs.hpp"

namespace gather::core {
namespace {

RunSpec uxs_spec(const graph::Graph& g, std::uint64_t seed) {
  RunSpec spec;
  spec.algorithm = AlgorithmKind::UxsOnly;
  spec.config = make_config(g, uxs::make_covering_sequence(g, seed));
  return spec;
}

class UxsGatheringOnFamilies
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(UxsGatheringOnFamilies, GathersAndDetectsFromDispersedStarts) {
  const auto [k, seed] = GetParam();
  for (const auto& entry : graph::standard_test_suite(seed)) {
    SCOPED_TRACE(entry.name + " k=" + std::to_string(k));
    const graph::Graph& g = entry.graph;
    if (g.num_nodes() < k) continue;
    const auto nodes = graph::nodes_dispersed_random(g, k, seed);
    const auto placement = graph::make_placement(
        nodes, graph::labels_random_distinct(k, g.num_nodes(), 2, seed + 1));
    const RunOutcome out = run_gathering(g, placement, uxs_spec(g, seed));
    EXPECT_TRUE(out.result.all_terminated);
    EXPECT_FALSE(out.result.hit_round_cap);
    EXPECT_TRUE(out.result.gathered_at_end);
    EXPECT_TRUE(out.result.detection_correct);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ks, UxsGatheringOnFamilies,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3},
                                         std::size_t{5}),
                       ::testing::Values(std::uint64_t{2}, std::uint64_t{7})));

TEST(UxsGathering, RoundBoundIsTwoTTimesBitsPlusOne) {
  // Lemma 5: the run lasts at most 2T(bitlen(L)+1) rounds, L = max label.
  const graph::Graph g = graph::make_ring(8);
  const auto seq = uxs::make_covering_sequence(g, 3);
  graph::Placement placement;
  placement.push_back({0, 13});
  placement.push_back({4, 22});
  RunSpec spec;
  spec.algorithm = AlgorithmKind::UxsOnly;
  spec.config = make_config(g, seq);
  const RunOutcome out = run_gathering(g, placement, spec);
  ASSERT_TRUE(out.result.detection_correct);
  const sim::Round t = seq->length();
  const unsigned max_bits = support::label_bit_length(22);
  EXPECT_LE(out.result.metrics.rounds, 2 * t * (max_bits + 1) + 1);
}

TEST(UxsGathering, LargestLabelWinsLeadership) {
  // The final gather node is wherever the largest label ends its phases —
  // all other robots follow it (Lemma 4). Verify everyone terminated at
  // one node and detection was simultaneous.
  const graph::Graph g = graph::make_grid(3, 3);
  graph::Placement placement;
  placement.push_back({0, 3});
  placement.push_back({4, 60});
  placement.push_back({8, 17});
  const RunOutcome out = run_gathering(g, placement, uxs_spec(g, 5));
  EXPECT_TRUE(out.result.detection_correct);
  EXPECT_EQ(out.result.metrics.first_termination,
            out.result.metrics.last_termination);
}

TEST(UxsGathering, EqualLengthLabelsMeetOnDifferingBit) {
  // The Lemma 2 subtlety: robots with equal-length labels never meet a
  // waiting partner — they must meet during the bit where labels differ.
  const graph::Graph g = graph::make_path(7);
  const auto labels = graph::labels_equal_length(3, 7, 2);
  graph::Placement placement;
  placement.push_back({0, labels[0]});
  placement.push_back({3, labels[1]});
  placement.push_back({6, labels[2]});
  const RunOutcome out = run_gathering(g, placement, uxs_spec(g, 9));
  EXPECT_TRUE(out.result.detection_correct);
}

TEST(UxsGathering, SingleRobotTerminatesAlone) {
  const graph::Graph g = graph::make_ring(6);
  graph::Placement placement;
  placement.push_back({2, 9});
  const RunOutcome out = run_gathering(g, placement, uxs_spec(g, 1));
  EXPECT_TRUE(out.result.all_terminated);
  EXPECT_TRUE(out.result.gathered_at_end);  // trivially
  EXPECT_TRUE(out.result.detection_correct);
}

TEST(UxsGathering, UndispersedStartFormsInitialGroups) {
  const graph::Graph g = graph::make_ring(7);
  graph::Placement placement;
  placement.push_back({1, 4});
  placement.push_back({1, 11});  // group at node 1 follows 11
  placement.push_back({5, 6});
  const RunOutcome out = run_gathering(g, placement, uxs_spec(g, 4));
  EXPECT_TRUE(out.result.detection_correct);
}

TEST(UxsGathering, ManyRobotsMoreThanNodes) {
  const graph::Graph g = graph::make_path(4);
  graph::Placement placement;
  for (std::size_t i = 0; i < 6; ++i) {
    placement.push_back({static_cast<graph::NodeId>(i % 4),
                         static_cast<sim::RobotId>(2 * i + 1)});
  }
  const RunOutcome out = run_gathering(g, placement, uxs_spec(g, 8));
  EXPECT_TRUE(out.result.detection_correct);
}

TEST(UxsGathering, SingleNodeGraphDegenerate) {
  // n = 1 admits a single robot (labels live in [1, n^b] = {1}).
  const graph::Graph g = graph::GraphBuilder(1).finish();
  graph::Placement placement;
  placement.push_back({0, 1});
  RunSpec spec;
  spec.algorithm = AlgorithmKind::UxsOnly;
  spec.config = make_config(g, uxs::make_covering_sequence(g, 1));
  const RunOutcome out = run_gathering(g, placement, spec);
  EXPECT_TRUE(out.result.detection_correct);
}

TEST(UxsGathering, LeaderWalkMatchesCoverageWalker) {
  // Cross-module consistency: the §2.1 robot's physical exploration walk
  // must be exactly the walk the coverage validator computes for the
  // same sequence — both implement the UXS semantics independently.
  const graph::Graph g = graph::make_grid(3, 3);
  const auto seq = uxs::make_covering_sequence(g, 5);
  graph::Placement placement;
  placement.push_back({4, 1});  // label 1 = bit pattern "1": explores first
  RunSpec spec;
  spec.algorithm = AlgorithmKind::UxsOnly;
  spec.config = make_config(g, seq);
  sim::TraceRecorder recorder;
  spec.trace_recorder = &recorder;
  const RunOutcome out = run_gathering(g, placement, spec);
  ASSERT_TRUE(out.result.all_terminated);
  // The lone robot's moves, in order, as (round, to).
  std::vector<std::pair<sim::Round, sim::NodeId>> moves;
  for (const sim::TraceRound& round :
       sim::decode_trace(recorder.bytes()).rounds) {
    for (const sim::TraceMove& move : round.moves)
      moves.emplace_back(round.round, move.to);
  }
  // The first T moves are phase 0's exploration walk.
  const sim::Round t = seq->length();
  ASSERT_GE(moves.size(), t);
  for (std::uint64_t steps = 1; steps <= t; ++steps) {
    const auto& [round, to] = moves[steps - 1];
    ASSERT_EQ(round, steps - 1);
    EXPECT_EQ(to, uxs::walk_endpoint(g, *seq, 4, steps))
        << "diverged at step " << steps;
  }
}

TEST(UxsGathering, NoFalseDetectionEver) {
  // The engine's detection_correct asserts nobody terminated before
  // gathering was complete; sweep a batch of seeds to hunt for early
  // terminations (Lemma 3's soundness claim).
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const graph::Graph g = graph::make_random_connected(9, 14, seed);
    const auto nodes = graph::nodes_dispersed_random(g, 4, seed);
    const auto placement = graph::make_placement(
        nodes, graph::labels_random_distinct(4, 9, 2, seed + 50));
    const RunOutcome out = run_gathering(g, placement, uxs_spec(g, seed));
    EXPECT_TRUE(out.result.detection_correct) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gather::core
