// UXS substrate tests: walker semantics, length policies, determinism,
// coverage validation, and the per-graph covering oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "graph/generators.hpp"
#include "scenario/registries.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "uxs/coverage.hpp"
#include "uxs/uxs.hpp"

namespace gather::uxs {
namespace {

TEST(NextPort, StartUsesOffsetModDegree) {
  EXPECT_EQ(next_port(graph::kNoPort, 0, 3), 0u);
  EXPECT_EQ(next_port(graph::kNoPort, 4, 3), 1u);
}

TEST(NextPort, ChainsOffEntryPort) {
  EXPECT_EQ(next_port(2, 1, 4), 3u);
  EXPECT_EQ(next_port(3, 1, 4), 0u);  // wraps
  EXPECT_EQ(next_port(1, 0, 5), 1u);  // offset 0 = leave where you entered
}

TEST(NextPort, RequiresPositiveDegree) {
  EXPECT_THROW((void)next_port(0, 1, 0), ContractViolation);
}

TEST(LengthPolicies, PaperScale) {
  EXPECT_EQ(paper_length(2), 32u * 1u);
  EXPECT_EQ(paper_length(4), 1024u * 2u);
  EXPECT_EQ(paper_length(8), 32768u * 3u);
  EXPECT_GE(paper_length(1), 1u);
}

TEST(LengthPolicies, PracticalScale) {
  EXPECT_EQ(practical_length(8, 4), 4u * 512u * 3u);
  EXPECT_GT(paper_length(16), practical_length(16, 4));
}

TEST(Pseudorandom, DeterministicInN) {
  const auto a = make_pseudorandom_sequence(9, 100);
  const auto b = make_pseudorandom_sequence(9, 100);
  ASSERT_EQ(a->length(), b->length());
  for (std::uint64_t i = 0; i < a->length(); ++i)
    EXPECT_EQ(a->offset(i), b->offset(i));
}

TEST(Pseudorandom, DifferentNDiffer) {
  const auto a = make_pseudorandom_sequence(9, 64);
  const auto b = make_pseudorandom_sequence(10, 64);
  bool diff = false;
  for (std::uint64_t i = 0; i < 64; ++i) diff |= (a->offset(i) != b->offset(i));
  EXPECT_TRUE(diff);
}

class CoverageOnFamilies : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoverageOnFamilies, CoveringOracleCoversEveryStart) {
  for (const auto& entry : graph::standard_test_suite(GetParam())) {
    SCOPED_TRACE(entry.name);
    const auto seq = make_covering_sequence(entry.graph, GetParam());
    EXPECT_TRUE(covers_all_starts(entry.graph, *seq));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageOnFamilies, ::testing::Values(1, 42));

TEST(Coverage, ShortSequenceFailsOnLargeGraph) {
  const graph::Graph g = graph::make_path(30);
  // A 3-step sequence cannot possibly visit 30 nodes.
  const ExplorationSequence seq("tiny", {0, 1, 0});
  EXPECT_FALSE(covers_all_starts(g, seq));
  EXPECT_FALSE(explores_from(g, seq, 0));
}

TEST(Coverage, SingleNodeTriviallyCovered) {
  const graph::Graph g = graph::GraphBuilder(1).finish();
  const ExplorationSequence seq("noop", {0});
  EXPECT_TRUE(covers_all_starts(g, seq));
}

TEST(Coverage, PaperLengthPseudorandomCoversSmallGraphs) {
  // The documented substitution: at the paper's T = n^5 log n, the
  // fixed-seed pseudorandom sequence explores experiment graphs from
  // every start (validated here, not assumed).
  for (std::size_t n : {4UL, 6UL}) {
    const graph::Graph ring = graph::make_ring(n);
    const auto seq = make_pseudorandom_sequence(n, paper_length(n));
    EXPECT_TRUE(covers_all_starts(ring, *seq)) << "ring n=" << n;
  }
  const graph::Graph g = graph::make_random_connected(6, 9, 3);
  const auto seq = make_pseudorandom_sequence(6, paper_length(6));
  EXPECT_TRUE(covers_all_starts(g, *seq));
}

TEST(Coverage, WalkEndpointConsistent) {
  const graph::Graph g = graph::make_ring(6);
  const auto seq = make_covering_sequence(g, 5);
  const graph::NodeId end_full = walk_endpoint(g, *seq, 0, seq->length());
  EXPECT_LT(end_full, g.num_nodes());
  EXPECT_EQ(walk_endpoint(g, *seq, 2, 0), 2u);
}

TEST(Coverage, CoveringSequenceNamesArePinnedAcrossFamilies) {
  // The covering oracle stops walking once a start has seen every node;
  // the sequence it grows must not change. Names carry the grown length
  // and were captured from the full-prefix walk.
  const std::map<std::string, std::string> pinned = {
      {"barbell n=33", "covering(n=33,len=4356)"},
      {"barbell n=8", "covering(n=8,len=256)"},
      {"binary-tree n=33", "covering(n=33,len=4356)"},
      {"binary-tree n=8", "covering(n=8,len=256)"},
      {"bipartite n=33", "covering(n=33,len=4356)"},
      {"bipartite n=8", "covering(n=8,len=256)"},
      {"caterpillar n=33", "covering(n=33,len=4356)"},
      {"caterpillar n=8", "covering(n=9,len=324)"},
      {"complete n=33", "covering(n=33,len=4356)"},
      {"complete n=8", "covering(n=8,len=256)"},
      {"grid n=33", "covering(n=35,len=4900)"},
      {"grid n=8", "covering(n=8,len=256)"},
      {"hypercube n=33", "covering(n=32,len=4096)"},
      {"hypercube n=8", "covering(n=8,len=256)"},
      {"lollipop n=33", "covering(n=33,len=26136)"},
      {"lollipop n=8", "covering(n=8,len=256)"},
      {"path n=33", "covering(n=33,len=4356)"},
      {"path n=8", "covering(n=8,len=256)"},
      {"random n=33", "covering(n=33,len=4356)"},
      {"random n=8", "covering(n=8,len=256)"},
      {"regular n=33", "covering(n=34,len=4624)"},
      {"regular n=8", "covering(n=8,len=256)"},
      {"ring n=33", "covering(n=33,len=4356)"},
      {"ring n=8", "covering(n=8,len=256)"},
      {"star n=33", "covering(n=33,len=4356)"},
      {"star n=8", "covering(n=8,len=256)"},
      {"torus n=33", "covering(n=35,len=4900)"},
      {"torus n=8", "covering(n=9,len=324)"},
      {"tree n=33", "covering(n=33,len=4356)"},
      {"tree n=8", "covering(n=8,len=256)"},
      {"wheel n=33", "covering(n=33,len=4356)"},
      {"wheel n=8", "covering(n=8,len=256)"},
  };
  std::map<std::string, std::string> actual;
  for (const auto& [name, entry] : scenario::graph_families().entries()) {
    if (name == "file") continue;  // needs an on-disk edge list
    for (const std::size_t n : {std::size_t{8}, std::size_t{33}}) {
      const auto topo = entry.factory(n, scenario::Params{}, /*seed=*/7);
      if (topo->as_csr() == nullptr) continue;  // implicit twins
      actual[name + " n=" + std::to_string(n)] =
          make_covering_sequence(*topo, /*seed=*/3)->name();
    }
  }
  EXPECT_EQ(actual.size(), 32u);  // 16 materialized families x 2 sizes
  EXPECT_EQ(actual, pinned);
}

/// Reference oracle: walk the whole sequence, then count what was seen.
bool explores_from_full_walk(const graph::Topology& g,
                             const ExplorationSequence& seq,
                             graph::NodeId start) {
  std::vector<bool> seen(g.num_nodes(), false);
  graph::NodeId at = start;
  Port entry = graph::kNoPort;
  seen[at] = true;
  for (std::uint64_t i = 0; i < seq.length(); ++i) {
    const Port exit = next_port(entry, seq.offset(i), g.degree(at));
    const graph::HalfEdge h = g.traverse(at, exit);
    at = h.to;
    entry = h.to_port;
    seen[at] = true;
  }
  return std::count(seen.begin(), seen.end(), true) ==
         static_cast<std::ptrdiff_t>(g.num_nodes());
}

TEST(Coverage, ExploresFromAgreesWithFullWalkOnRandomPrefixes) {
  support::Xoshiro256 rng(2024);
  for (const auto& entry : graph::standard_test_suite(5)) {
    SCOPED_TRACE(entry.name);
    const std::size_t n = entry.graph.num_nodes();
    const auto full = make_pseudorandom_sequence(n, 8 * n * n);
    for (int trial = 0; trial < 24; ++trial) {
      const std::uint64_t len = 1 + rng.next() % full->length();
      std::vector<std::uint32_t> offsets(len);
      for (std::uint64_t i = 0; i < len; ++i) offsets[i] = full->offset(i);
      const ExplorationSequence prefix("prefix", std::move(offsets));
      const auto start = static_cast<graph::NodeId>(rng.next() % n);
      EXPECT_EQ(explores_from(entry.graph, prefix, start),
                explores_from_full_walk(entry.graph, prefix, start))
          << "len=" << len << " start=" << start;
    }
  }
}

TEST(Sequence, OffsetBoundsChecked) {
  const ExplorationSequence seq("s", {1, 2, 3});
  EXPECT_EQ(seq.length(), 3u);
  EXPECT_EQ(seq.offset(2), 3u);
  EXPECT_THROW((void)seq.offset(3), ContractViolation);
}

}  // namespace
}  // namespace gather::uxs
