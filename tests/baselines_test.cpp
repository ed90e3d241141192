// Baseline comparator tests: the randomized walk (no detection).
#include <gtest/gtest.h>

#include "baselines/random_walk.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace gather::baselines {
namespace {

TEST(RandomWalk, GathersUnderOracleStop) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const graph::Graph g = graph::make_random_connected(10, 15, seed);
    sim::EngineConfig cfg;
    cfg.hard_cap = 500000;
    cfg.stop_when_gathered = true;
    sim::Engine engine(g, cfg);
    for (sim::RobotId id = 1; id <= 4; ++id) {
      engine.add_robot(std::make_unique<RandomWalkRobot>(id, seed),
                       static_cast<graph::NodeId>((id * 3) % g.num_nodes()));
    }
    const sim::RunResult result = engine.run();
    EXPECT_TRUE(result.gathered_at_end) << "seed " << seed;
    EXPECT_FALSE(result.hit_round_cap) << "seed " << seed;
    // No detection: the robots themselves never terminated.
    EXPECT_FALSE(result.all_terminated);
  }
}

TEST(RandomWalk, DeterministicGivenSeed) {
  const graph::Graph g = graph::make_ring(8);
  sim::Round rounds[2];
  for (int rep = 0; rep < 2; ++rep) {
    sim::EngineConfig cfg;
    cfg.hard_cap = 100000;
    cfg.stop_when_gathered = true;
    sim::Engine engine(g, cfg);
    engine.add_robot(std::make_unique<RandomWalkRobot>(1, 77), 0);
    engine.add_robot(std::make_unique<RandomWalkRobot>(2, 77), 4);
    rounds[rep] = engine.run().metrics.rounds;
  }
  EXPECT_EQ(rounds[0], rounds[1]);
}

}  // namespace
}  // namespace gather::baselines
