// Large randomized property sweep (TEST_P): across graph families,
// robot counts, placements, and label assignments, Faster-Gathering must
// always (a) gather, (b) detect — all robots terminate in the same round
// on one node, (c) never terminate early, and (d) finish within the
// schedule's hard cap. The family × placement grid is a declarative
// scenario::SweepSpec over the registries (every registered family is
// covered automatically as generators are added), executed through the
// parallel SweepRunner to keep wall-clock time low.
#include <gtest/gtest.h>

#include <map>

#include "core/run.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/placement.hpp"
#include "scenario/sweep.hpp"
#include "support/parallel_for.hpp"
#include "support/rng.hpp"
#include "uxs/uxs.hpp"

namespace gather::core {
namespace {

class FasterSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FasterSweep, AlwaysGathersWithSoundDetection) {
  const std::uint64_t seed = GetParam();
  scenario::SweepSpec sweep;
  sweep.base.algorithm = "faster";
  sweep.base.sequence = "covering";
  sweep.base.labeling = "random";
  for (const std::string& family : scenario::graph_families().list()) {
    if (family != "file") sweep.families.push_back(family);
  }
  sweep.sizes = {12, 16};
  sweep.placements = {"dispersed", "undispersed", "adversarial", "clustered"};
  // Both Theorem 16 robot regimes: the moderate n/3+1 and the
  // many-robots n/2+1 (which forces a Lemma 15 close pair).
  sweep.k_rules = {scenario::k_fraction(3, 1), scenario::k_fraction(2, 1)};
  sweep.seeds = {seed};

  scenario::Caches caches;
  std::vector<scenario::SweepRow> rows =
      scenario::SweepRunner::run(sweep, caches);
  const std::size_t grid_rows =
      (scenario::graph_families().list().size() - 1) * 4 * 2 * 2;

  // The 'random' default is sparse (m = 2n); add a dense slice too —
  // edge-heavy maps stress Phase 1 differently than tree-like graphs.
  scenario::SweepSpec dense = sweep;
  dense.families = {"random"};
  dense.sizes = {12};
  dense.base.family_params.set("m", "40");
  std::vector<scenario::SweepRow> dense_rows =
      scenario::SweepRunner::run(dense, caches);
  EXPECT_EQ(dense_rows.size(), 4u * 2u);
  rows.insert(rows.end(), std::make_move_iterator(dense_rows.begin()),
              std::make_move_iterator(dense_rows.end()));

  ASSERT_EQ(rows.size(), grid_rows + 4 * 2);
  for (const scenario::SweepRow& row : rows) {
    const std::string name = row.spec.family + "/" + row.spec.placement + "/n" +
                             std::to_string(row.spec.n);
    const auto& result = row.outcome.result;
    EXPECT_TRUE(result.all_terminated) << name;
    EXPECT_TRUE(result.gathered_at_end) << name;
    EXPECT_TRUE(result.detection_correct) << name;
    EXPECT_FALSE(result.hit_round_cap) << name;
    EXPECT_EQ(result.metrics.first_termination,
              result.metrics.last_termination)
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FasterSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class UxsOnlySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UxsOnlySweep, UxsGatheringSoundOnRandomGraphs) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kInstances = 6;
  std::vector<std::string> failures(kInstances);
  support::parallel_for_index(
      kInstances, support::default_thread_count(), [&](std::size_t i) {
        const std::uint64_t s = seed * 100 + i;
        const std::size_t n = 6 + (s % 6);
        const std::size_t m = (n - 1) + (s % (n * (n - 1) / 2 - n + 2));
        const graph::Graph g = graph::make_random_connected(n, m, s);
        const std::size_t k = 2 + s % 4;
        const auto nodes =
            k <= n ? graph::nodes_dispersed_random(g, k, s)
                   : graph::nodes_undispersed_random(g, k, s);
        const auto placement = graph::make_placement(
            nodes, graph::labels_random_distinct(k, n, 2, s + 7));
        RunSpec spec;
        spec.algorithm = AlgorithmKind::UxsOnly;
        spec.config = make_config(g, uxs::make_covering_sequence(g, s));
        const RunOutcome out = run_gathering(g, placement, spec);
        if (!out.result.detection_correct) failures[i] = "detection unsound";
      });
  for (std::size_t i = 0; i < kInstances; ++i) {
    EXPECT_TRUE(failures[i].empty()) << "instance " << i << ": " << failures[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UxsOnlySweep, ::testing::Values(2, 4, 6, 9));

class ShuffledPortSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShuffledPortSweep, PortNumberingIsAdversarial) {
  // The same instance under freshly permuted port numbers must still
  // gather with sound detection — algorithms may use ports only through
  // the model interface, never their incidental structure.
  const std::uint64_t seed = GetParam();
  const graph::Graph base = graph::make_grid(3, 4);
  const graph::Graph g = graph::shuffle_ports(base, seed);
  for (const bool undispersed : {true, false}) {
    const auto nodes = undispersed
                           ? graph::nodes_undispersed_random(g, 4, seed)
                           : graph::nodes_dispersed_random(g, 4, seed);
    const auto placement = graph::make_placement(
        nodes, graph::labels_random_distinct(4, g.num_nodes(), 2, seed + 5));
    RunSpec spec;
    spec.algorithm = AlgorithmKind::FasterGathering;
    spec.config = make_config(g, uxs::make_covering_sequence(g, seed));
    const RunOutcome out = run_gathering(g, placement, spec);
    EXPECT_TRUE(out.result.detection_correct)
        << "seed " << seed << " undispersed=" << undispersed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffledPortSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(PigeonholeSweep, ManyMoreRobotsThanNodes) {
  // k >> n forces an undispersed start (Pigeonhole, §2.2); the run must
  // resolve in stage 0 regardless of how the surplus robots pile up.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const graph::Graph g = graph::make_torus(3, 4);
    const std::size_t k = 30;
    std::vector<graph::NodeId> nodes;
    support::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < k; ++i)
      nodes.push_back(static_cast<graph::NodeId>(rng.below(g.num_nodes())));
    const auto placement = graph::make_placement(
        nodes, graph::labels_random_distinct(k, g.num_nodes(), 2, seed + 7));
    RunSpec spec;
    spec.algorithm = AlgorithmKind::FasterGathering;
    spec.config = make_config(g, uxs::make_covering_sequence(g, seed));
    const RunOutcome out = run_gathering(g, placement, spec);
    EXPECT_TRUE(out.result.detection_correct) << "seed " << seed;
    EXPECT_EQ(out.gathered_stage_hop, 0) << "seed " << seed;
  }
}

TEST(ScaleSweep, HundredNodeRingWithManyRobots) {
  // A larger instance end to end: n = 100, k = n/2+1 = 51 adversarially
  // spread robots. Lemma 15 guarantees a pair within distance 2, so the
  // run must resolve by stage 2 at the O(n^3) scale (~4M rounds, mostly
  // skipped waiting).
  const graph::Graph g = graph::make_ring(100);
  const std::size_t k = 51;
  const auto nodes = graph::nodes_adversarial_spread(g, k, 9);
  const auto placement = graph::make_placement(
      nodes, graph::labels_random_distinct(k, 100, 2, 17));
  RunSpec spec;
  spec.algorithm = AlgorithmKind::FasterGathering;
  spec.config = make_config(g, uxs::make_covering_sequence(g, 9));
  const RunOutcome out = run_gathering(g, placement, spec);
  EXPECT_TRUE(out.result.detection_correct);
  EXPECT_LE(out.gathered_stage_hop, 2);
  const Schedule sched = Schedule::make(spec.config);
  EXPECT_LE(out.result.metrics.rounds,
            sched.stages()[2].start + sched.stages()[2].duration);
}

TEST(CrossAlgorithmSweep, AllThreeAgreeOnGatherSuccess) {
  // On undispersed starts all three algorithms must gather with
  // detection; their round counts order as UG <= Faster (one extra
  // detection round) << UXS-only (bit phases).
  const graph::Graph g = graph::make_ring(9);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 3);
  const auto placement = graph::make_placement(
      nodes, graph::labels_random_distinct(3, 9, 2, 13));
  const auto seq = uxs::make_covering_sequence(g, 3);
  std::map<AlgorithmKind, sim::Round> rounds;
  for (const auto kind :
       {AlgorithmKind::UndispersedOnly, AlgorithmKind::FasterGathering,
        AlgorithmKind::UxsOnly}) {
    RunSpec spec;
    spec.algorithm = kind;
    spec.config = make_config(g, seq);
    const RunOutcome out = run_gathering(g, placement, spec);
    ASSERT_TRUE(out.result.detection_correct) << to_string(kind);
    rounds[kind] = out.result.metrics.rounds;
  }
  EXPECT_LE(rounds[AlgorithmKind::UndispersedOnly],
            rounds[AlgorithmKind::FasterGathering]);
}

}  // namespace
}  // namespace gather::core
