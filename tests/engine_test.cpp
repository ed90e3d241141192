// Engine semantics tests: simultaneous decisions, follow-chain
// resolution, take_followers (token drops), wake-on-occupancy-change,
// and — critically — skip-mode vs naive-mode equivalence.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <type_traits>

#include "core/run.hpp"
#include "graph/generators.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "support/assert.hpp"

namespace gather::sim {
namespace {

/// Robot driven by a lambda — lets tests script exact behaviours.
class ScriptedRobot final : public Robot {
 public:
  using Script = std::function<Action(ScriptedRobot&, const RoundView&)>;
  ScriptedRobot(RobotId id, Script script)
      : Robot(id), script_(std::move(script)) {}

  Action on_round(const RoundView& view) override { return script_(*this, view); }

  using Robot::set_group_id;
  using Robot::set_tag;

 private:
  Script script_;
};

EngineConfig config_with_cap(Round cap) {
  EngineConfig c;
  c.hard_cap = cap;
  return c;
}

/// Walk right on a path graph for `steps` rounds, then terminate.
ScriptedRobot::Script walk_then_terminate(Round steps) {
  return [steps](ScriptedRobot&, const RoundView& view) {
    if (view.round < steps) {
      return Action::move(view.round == 0 ? 0 : 1);  // path: port away from entry
    }
    return Action::terminate();
  };
}

TEST(Engine, SingleRobotWalksAndTerminates) {
  const graph::Graph g = graph::make_path(6);
  Engine engine(g, config_with_cap(100));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, walk_then_terminate(3)), 0);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.all_terminated);
  EXPECT_EQ(result.metrics.total_moves, 3u);
  EXPECT_EQ(engine.position_of(1), 3u);
  EXPECT_EQ(result.metrics.rounds, 3u);
}

TEST(Engine, EntryPortReported) {
  const graph::Graph g = graph::make_path(4);
  std::vector<Port> seen_entries;
  auto script = [&](ScriptedRobot&, const RoundView& view) {
    seen_entries.push_back(view.entry_port);
    if (view.round < 2) return Action::move(view.round == 0 ? 0 : 1);
    return Action::terminate();
  };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, script), 0);
  (void)engine.run();
  ASSERT_EQ(seen_entries.size(), 3u);
  EXPECT_EQ(seen_entries[0], kNoPort);  // before any move
  EXPECT_NE(seen_entries[1], kNoPort);
  EXPECT_NE(seen_entries[2], kNoPort);
}

TEST(Engine, FollowMirrorsLeaderMove) {
  const graph::Graph g = graph::make_path(5);
  auto leader = [](ScriptedRobot&, const RoundView& view) {
    if (view.round < 2) return Action::move(view.round == 0 ? 0 : 1);
    return Action::terminate();
  };
  auto follower = [](ScriptedRobot&, const RoundView& view) {
    if (view.round < 2) return Action::follow(2);
    return Action::terminate();
  };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(2, leader), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, follower), 0);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.all_terminated);
  EXPECT_EQ(engine.position_of(1), engine.position_of(2));
  EXPECT_EQ(result.metrics.total_moves, 4u);  // both moved twice
}

TEST(Engine, TakeFollowersFalseLeavesFollowerBehind) {
  const graph::Graph g = graph::make_path(5);
  auto leader = [](ScriptedRobot&, const RoundView& view) {
    if (view.round == 0) return Action::move(0, /*take_followers=*/false);
    return Action::terminate();
  };
  auto follower = [](ScriptedRobot&, const RoundView& view) {
    if (view.round == 0) return Action::follow(2);
    return Action::terminate();
  };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(2, leader), 1);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, follower), 1);
  (void)engine.run();
  EXPECT_EQ(engine.position_of(2), 0u);  // leader crossed (node 1 port 0 -> 0)
  EXPECT_EQ(engine.position_of(1), 1u);  // token stayed
}

TEST(Engine, FollowChainResolves) {
  const graph::Graph g = graph::make_path(5);
  auto head = [](ScriptedRobot&, const RoundView& view) {
    if (view.round == 0) return Action::move(1);  // node 1 port 1 -> node 2
    return Action::terminate();
  };
  auto mid = [](ScriptedRobot&, const RoundView& view) {
    if (view.round == 0) return Action::follow(3);
    return Action::terminate();
  };
  auto tail = [](ScriptedRobot&, const RoundView& view) {
    if (view.round == 0) return Action::follow(2);
    return Action::terminate();
  };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(3, head), 1);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, mid), 1);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, tail), 1);
  (void)engine.run();
  EXPECT_EQ(engine.position_of(3), 2u);
  EXPECT_EQ(engine.position_of(2), 2u);
  EXPECT_EQ(engine.position_of(1), 2u);
}

// The violation taxonomy harnesses key tolerance on: robot-side protocol
// breaches derive from ContractViolation (recordable under adversaries),
// engine-internal invariant failures deliberately do NOT (they must
// never be swallowed as a violation=1 row).
static_assert(std::is_base_of_v<gather::ContractViolation,
                                gather::ProtocolViolation>);
static_assert(!std::is_base_of_v<gather::ContractViolation,
                                 gather::EngineInvariantError>);

TEST(Engine, FollowCycleIsEngineInvariantError) {
  const graph::Graph g = graph::make_path(3);
  auto a = [](ScriptedRobot&, const RoundView&) { return Action::follow(2); };
  auto b = [](ScriptedRobot&, const RoundView&) { return Action::follow(1); };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, a), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, b), 0);
  EXPECT_THROW((void)engine.run(), EngineInvariantError);
}

TEST(Engine, FollowNonColocatedIsEngineInvariantError) {
  const graph::Graph g = graph::make_path(3);
  auto a = [](ScriptedRobot&, const RoundView&) { return Action::follow(2); };
  auto b = [](ScriptedRobot&, const RoundView& view) {
    return Action::stay_until_round(view.round + 5);
  };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, a), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, b), 2);
  EXPECT_THROW((void)engine.run(), EngineInvariantError);
}

TEST(Engine, InvalidMovePortIsProtocolViolation) {
  // A robot handing back garbage broke its own contract: robot-side,
  // recordable class.
  const graph::Graph g = graph::make_path(3);
  auto bad = [](ScriptedRobot&, const RoundView&) { return Action::move(7); };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, bad), 0);
  EXPECT_THROW((void)engine.run(), ProtocolViolation);
}

TEST(Engine, FollowerTerminatesWithLeader) {
  const graph::Graph g = graph::make_path(3);
  auto leader = [](ScriptedRobot&, const RoundView& view) {
    if (view.round < 2) return Action::stay_one(view.round);
    return Action::terminate();
  };
  auto follower = [](ScriptedRobot&, const RoundView&) {
    return Action::follow(2);
  };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(2, leader), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, follower), 0);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.all_terminated);
  EXPECT_EQ(result.metrics.first_termination, result.metrics.last_termination);
}

TEST(Engine, WakeOnArrivalInterruptsLongStay) {
  const graph::Graph g = graph::make_path(4);
  std::vector<Round> wake_rounds;
  auto sleeper = [&](ScriptedRobot&, const RoundView& view) {
    wake_rounds.push_back(view.round);
    // React to company by terminating; otherwise sleep far in the future.
    for (const RobotPublicState& s : view.colocated) {
      if (s.id != 1) return Action::terminate();
    }
    return Action::stay_until_round(1000);
  };
  auto walker = [](ScriptedRobot&, const RoundView& view) {
    if (view.round < 3) return Action::move(view.round == 0 ? 0 : 1);
    return Action::terminate();
  };
  Engine engine(g, config_with_cap(2000));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, sleeper), 3);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, walker), 0);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.all_terminated);
  // Sleeper woken by the walker's arrival (end of round 2 -> wake at 3),
  // well before its round-1000 deadline.
  EXPECT_LE(result.metrics.rounds, 10u);
  ASSERT_GE(wake_rounds.size(), 2u);
  EXPECT_EQ(wake_rounds.back(), 3u);
}

TEST(Engine, SkipJumpsQuietStretches) {
  const graph::Graph g = graph::make_ring(4);
  auto waiting = [](ScriptedRobot&, const RoundView& view) {
    if (view.round >= 100000) return Action::terminate();
    return Action::stay_until_round(100000);
  };
  Engine engine(g, config_with_cap(200001));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, waiting), 0);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.all_terminated);
  EXPECT_EQ(result.metrics.rounds, 100000u);
  // Two simulated rounds: round 0 (decision to sleep) and the deadline.
  EXPECT_EQ(result.metrics.simulated_rounds, 2u);
}

TEST(Engine, HardCapReported) {
  const graph::Graph g = graph::make_ring(4);
  auto forever = [](ScriptedRobot&, const RoundView& view) {
    return Action::move(view.round % 2 == 0 ? 0 : 1);
  };
  Engine engine(g, config_with_cap(50));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, forever), 0);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.hit_round_cap);
  EXPECT_FALSE(result.all_terminated);
}

TEST(Engine, StopWhenGathered) {
  const graph::Graph g = graph::make_path(5);
  auto to_center = [](ScriptedRobot& self, const RoundView& view) {
    // Both endpoints walk toward the middle node 2.
    if (view.degree == 1) return Action::move(0);
    (void)self;
    return Action::move(view.entry_port == 0 ? 1 : 0);
  };
  EngineConfig cfg = config_with_cap(100);
  cfg.stop_when_gathered = true;
  Engine engine(g, cfg);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, to_center), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, to_center), 4);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.gathered_at_end);
  EXPECT_EQ(result.metrics.first_gathered, 1u);
  EXPECT_FALSE(result.all_terminated);
}

TEST(Engine, DetectionCorrectRequiresSimultaneousTermination) {
  const graph::Graph g = graph::make_path(3);
  auto early = [](ScriptedRobot&, const RoundView&) {
    return Action::terminate();
  };
  auto late = [](ScriptedRobot&, const RoundView& view) {
    if (view.round < 2) return Action::stay_one(view.round);
    return Action::terminate();
  };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, early), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, late), 0);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.all_terminated);
  EXPECT_TRUE(result.gathered_at_end);
  EXPECT_FALSE(result.detection_correct);  // terminations in different rounds
}

TEST(Engine, PublicStateVisibleNextRound) {
  const graph::Graph g = graph::make_path(3);
  std::vector<StateTag> observed;
  auto announcer = [](ScriptedRobot& self, const RoundView& view) {
    self.set_tag(StateTag::Finder);  // visible to others from round 1 on
    if (view.round >= 2) return Action::terminate();
    return Action::stay_one(view.round);
  };
  auto observer = [&](ScriptedRobot&, const RoundView& view) {
    for (const RobotPublicState& s : view.colocated) {
      if (s.id == 7) observed.push_back(s.tag);
    }
    if (view.round >= 2) return Action::terminate();
    return Action::stay_one(view.round);
  };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(7, announcer), 1);
  engine.add_robot(std::make_unique<ScriptedRobot>(3, observer), 1);
  (void)engine.run();
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_EQ(observed[0], StateTag::Init);    // snapshot semantics
  EXPECT_EQ(observed[1], StateTag::Finder);  // update became visible
}

TEST(Engine, RejectsDuplicateIds) {
  const graph::Graph g = graph::make_path(3);
  Engine engine(g, config_with_cap(10));
  auto idle = [](ScriptedRobot&, const RoundView&) { return Action::terminate(); };
  engine.add_robot(std::make_unique<ScriptedRobot>(1, idle), 0);
  EXPECT_THROW(
      engine.add_robot(std::make_unique<ScriptedRobot>(1, idle), 1),
      ContractViolation);
}

TEST(Engine, RejectsInvalidMovePort) {
  const graph::Graph g = graph::make_path(3);
  auto bad = [](ScriptedRobot&, const RoundView&) { return Action::move(5); };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, bad), 0);
  EXPECT_THROW((void)engine.run(), ContractViolation);
}

// ---- skip vs naive equivalence -------------------------------------------

/// A mildly complicated deterministic script: phase-structured walking
/// and waiting, plus merge-on-meet following, exercising all engine paths.
ScriptedRobot::Script phased_script(Round horizon) {
  return [horizon](ScriptedRobot& self, const RoundView& view) -> Action {
    if (view.round >= horizon) return Action::terminate();
    RobotId biggest = 0;
    for (const RobotPublicState& s : view.colocated) {
      if (s.id != self.id() && s.tag != StateTag::Terminated)
        biggest = std::max(biggest, s.id);
    }
    if (biggest > self.id()) return Action::follow(biggest);
    const Round phase = view.round / 7;
    if ((phase + self.id()) % 3 == 0) {
      const Round boundary = std::min(horizon, (view.round / 7 + 1) * 7);
      return Action::stay_until_round(boundary);
    }
    const Port port = static_cast<Port>((view.round + self.id()) % view.degree);
    return Action::move(port);
  };
}

TEST(Engine, SkipAndNaiveProduceIdenticalTraces) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const graph::Graph g = graph::make_random_connected(9, 14, seed);
    std::uint64_t hashes[2];
    Round rounds[2];
    for (int mode = 0; mode < 2; ++mode) {
      EngineConfig cfg = config_with_cap(3000);
      cfg.naive_stepping = (mode == 1);
      Engine engine(g, cfg);
      for (RobotId id = 1; id <= 4; ++id) {
        engine.add_robot(
            std::make_unique<ScriptedRobot>(id, phased_script(211)),
            static_cast<graph::NodeId>((id * 2) % g.num_nodes()));
      }
      const RunResult result = engine.run();
      EXPECT_TRUE(result.all_terminated);
      hashes[mode] = result.metrics.trace_hash;
      rounds[mode] = result.metrics.rounds;
    }
    EXPECT_EQ(hashes[0], hashes[1]) << "seed " << seed;
    EXPECT_EQ(rounds[0], rounds[1]) << "seed " << seed;
  }
}

TEST(Engine, SkipAndNaiveEquivalentOnLargeRandomGraph) {
  // Stress version of the equivalence referee: a 64-node sparse random
  // graph with 9 robots running the phased script long enough to mix
  // follow merges, token drops, and sleep stretches across many nodes —
  // exercising the flat occupancy lists and the view arena at a scale
  // the small cases never reach. Positions, round counts, and the trace
  // fingerprint are pinned across the two stepping modes.
  const graph::Graph g = graph::make_random_connected(64, 96, 11);
  std::uint64_t hashes[2];
  Round rounds[2];
  std::vector<NodeId> positions[2];
  for (int mode = 0; mode < 2; ++mode) {
    EngineConfig cfg = config_with_cap(20000);
    cfg.naive_stepping = (mode == 1);
    Engine engine(g, cfg);
    for (RobotId id = 1; id <= 9; ++id) {
      engine.add_robot(std::make_unique<ScriptedRobot>(id, phased_script(431)),
                       static_cast<graph::NodeId>((id * 7) % g.num_nodes()));
    }
    const RunResult result = engine.run();
    ASSERT_TRUE(result.all_terminated) << "mode " << mode;
    hashes[mode] = result.metrics.trace_hash;
    rounds[mode] = result.metrics.rounds;
    for (RobotId id = 1; id <= 9; ++id) {
      positions[mode].push_back(engine.position_of(id));
    }
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(rounds[0], rounds[1]);
  EXPECT_EQ(positions[0], positions[1]);
}

TEST(Engine, RerunsAreDeterministic) {
  const graph::Graph g = graph::make_grid(3, 3);
  std::uint64_t first_hash = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Engine engine(g, config_with_cap(3000));
    for (RobotId id = 1; id <= 3; ++id) {
      engine.add_robot(std::make_unique<ScriptedRobot>(id, phased_script(140)),
                       static_cast<graph::NodeId>(id));
    }
    const RunResult result = engine.run();
    if (rep == 0) first_hash = result.metrics.trace_hash;
    EXPECT_EQ(result.metrics.trace_hash, first_hash);
  }
}

TEST(Engine, MessageBitsCountedAtDecisions) {
  // Two co-located robots exchanging state for 3 rounds, then done:
  // each decision reads the other's (id + group_id + tag) bits.
  const graph::Graph g = graph::make_path(3);
  auto chatty = [](ScriptedRobot&, const RoundView& view) {
    if (view.round >= 3) return Action::terminate();
    return Action::stay_one(view.round);
  };
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(5, chatty), 1);  // 3 bits
  engine.add_robot(std::make_unique<ScriptedRobot>(2, chatty), 1);  // 2 bits
  const RunResult result = engine.run();
  // Rounds 0..3 = 4 decision rounds for each robot. Robot 5 reads robot
  // 2's state: 2 id bits + 0 group bits + 3 tag bits = 5; robot 2 reads
  // robot 5's: 3 + 0 + 3 = 6. Total per round = 11.
  EXPECT_EQ(result.metrics.total_message_bits, 4u * 11u);
}

TEST(Engine, NoMessagesWhenAlone) {
  const graph::Graph g = graph::make_path(3);
  Engine engine(g, config_with_cap(10));
  engine.add_robot(std::make_unique<ScriptedRobot>(1, walk_then_terminate(2)), 0);
  const RunResult result = engine.run();
  EXPECT_EQ(result.metrics.total_message_bits, 0u);
}

// ---- crowded one-node runs -----------------------------------------------
//
// Faster-Gathering with every robot starting on one node: views hold k
// entries and whole groups arrive at a node together, the regime where
// the message-bit sum and the occupancy splice dominate. The pinned
// values were captured before the engine computed per-view bit sums and
// spliced arrivals in one batch; every execution strategy (skip or naive
// stepping, dense or sparse node table, serial or parallel decide) must
// reproduce them exactly. The semi-synchronous pin sends carried robots
// through the same splice.

struct CrowdedPin {
  const char* family;
  std::size_t n;
  std::size_t k;
  unsigned fairness;  ///< 0 = synchronous, else semi-synchronous fairness
  std::uint64_t trace_hash;
  std::uint64_t message_bits;
  /// Naive stepping consults sleeping robots too, so it counts more bits.
  std::uint64_t naive_message_bits;
  std::uint64_t total_moves;
  Round rounds;
  Round first_gathered;
};

constexpr CrowdedPin kCrowdedPins[] = {
    {"torus", 16, 64, 0, 5080899178599869533ULL, 9354933, 969008859, 6174,
     16968, 0},
    {"grid", 40, 160, 0, 3051456137833351700ULL, 167054140, 110513071260,
     42140, 259368, 0},
    {"torus", 9, 27, 3, 16218629018797364763ULL, 75579339, 739155511, 1393,
     168396, 0},
};

enum class Strategy { Skip, Naive, Sparse, ParallelDecide };

core::RunOutcome run_crowded(const scenario::ResolvedScenario& r,
                             Strategy strategy) {
  core::RunSpec spec = r.run_spec;
  spec.naive_engine = strategy == Strategy::Naive;
  if (strategy == Strategy::Sparse) spec.dense_node_limit = 0;
  if (strategy == Strategy::ParallelDecide) {
    spec.decide_threads = 4;
    spec.decide_min_active = 1;
  }
  return core::run_gathering(*r.graph, r.placement, spec);
}

TEST(EngineCrowded, OneNodeRunsMatchPinsUnderEveryStrategy) {
  for (const CrowdedPin& pin : kCrowdedPins) {
    scenario::ScenarioSpec spec;
    spec.family = pin.family;
    spec.n = pin.n;
    spec.k = pin.k;
    spec.placement = "one-node";
    spec.seed = 1;
    if (pin.fairness > 0) {
      spec.scheduler = "semi-synchronous";
      spec.scheduler_params.set("fairness", std::to_string(pin.fairness));
    }
    const scenario::ResolvedScenario r = scenario::resolve(spec);
    for (const Strategy strategy : {Strategy::Skip, Strategy::Naive,
                                    Strategy::Sparse,
                                    Strategy::ParallelDecide}) {
      const std::string label = std::string(pin.family) + " n=" +
                                std::to_string(pin.n) + " k=" +
                                std::to_string(pin.k) + " fairness=" +
                                std::to_string(pin.fairness) + " strategy=" +
                                std::to_string(static_cast<int>(strategy));
      const core::RunOutcome out = run_crowded(r, strategy);
      const RunMetrics& m = out.result.metrics;
      EXPECT_EQ(m.trace_hash, pin.trace_hash) << label;
      EXPECT_EQ(m.total_message_bits, strategy == Strategy::Naive
                                          ? pin.naive_message_bits
                                          : pin.message_bits)
          << label;
      EXPECT_EQ(m.total_moves, pin.total_moves) << label;
      EXPECT_EQ(m.rounds, pin.rounds) << label;
      EXPECT_EQ(m.first_gathered, pin.first_gathered) << label;
      EXPECT_TRUE(out.result.gathered_at_end) << label;
      // Under suppression robots terminate at their own activations, so
      // simultaneous termination (detection) is a synchronous-only claim.
      EXPECT_EQ(out.result.detection_correct, pin.fairness == 0) << label;
    }
  }
}

TEST(Engine, TraceRecordsMoves) {
  const graph::Graph g = graph::make_path(4);
  EngineConfig cfg = config_with_cap(10);
  TraceRecorder recorder;
  cfg.trace_recorder = &recorder;
  Engine engine(g, cfg);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, walk_then_terminate(2)), 0);
  (void)engine.run();
  const Trace trace = decode_trace(recorder.bytes());
  // Flatten the per-round move vectors into (round, from, to) events;
  // `from` is not stored, so it comes from the start node and the moves
  // before it.
  struct MoveEvent {
    Round round;
    NodeId from;
    NodeId to;
  };
  std::vector<MoveEvent> moves;
  NodeId at = trace.robots[0].start;
  for (const TraceRound& round : trace.rounds) {
    EXPECT_TRUE(round.carried.empty());
    for (const TraceMove& move : round.moves) {
      moves.push_back(MoveEvent{round.round, at, move.to});
      at = move.to;
    }
  }
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].from, 0u);
  EXPECT_EQ(moves[0].to, 1u);
  EXPECT_EQ(moves[1].round, 1u);
  EXPECT_EQ(moves[1].from, 1u);
}

}  // namespace
}  // namespace gather::sim
