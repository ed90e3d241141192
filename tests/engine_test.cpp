// Engine semantics tests: simultaneous decisions, follow-chain
// resolution, take_followers (token drops), wake-on-occupancy-change,
// and — critically — skip-mode vs naive-mode equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <type_traits>

#include "core/robots.hpp"
#include "core/run.hpp"
#include "core/schedule.hpp"
#include "graph/generators.hpp"
#include "graph/implicit.hpp"
#include "graph/placement.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "support/assert.hpp"
#include "support/parallel_for.hpp"
#include "uxs/uxs.hpp"

namespace gather::sim {
namespace {

/// Robot driven by a lambda — lets tests script exact behaviours.
class ScriptedRobot final : public Robot {
 public:
  using Script = std::function<Action(ScriptedRobot&, const RoundView&)>;
  ScriptedRobot(RobotId id, Script script)
      : Robot(id), script_(std::move(script)) {}

  Action on_round(const RoundView& view) override { return script_(*this, view); }

  using Robot::promise_route;
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
  // add_robot only appends; run() indexes the labels and rejects the
  // repeat before any round.
  engine.add_robot(std::make_unique<ScriptedRobot>(1, idle), 1);
  EXPECT_THROW((void)engine.run(), ContractViolation);
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

TEST(Engine, ContractMessagesNameSourcesFromTheCheckoutRoot) {
  // The library maps its source directory out of __FILE__, so a contract
  // message (which a trace may store) is the same bytes in any checkout.
  const graph::Graph g = graph::make_path(3);
  std::string what;
  try {
    const Engine engine(g, config_with_cap(0));  // hard_cap must be > 0
  } catch (const ContractViolation& e) {
    what = e.what();
  }
  EXPECT_NE(what.find(" at src/sim/engine.cpp:"), std::string::npos) << what;
  const std::string data = GATHER_TEST_DATA_DIR;
  const std::string source_dir = data.substr(0, data.rfind("/tests/data"));
  ASSERT_FALSE(source_dir.empty());
  EXPECT_EQ(what.find(source_dir), std::string::npos) << what;
}

// ---- crowded one-node runs -----------------------------------------------
//
// Faster-Gathering with every robot starting on one node: views hold k
// entries and whole groups arrive at a node together, the regime where
// the message-bit sum and the occupancy splice dominate. The pinned
// values were captured before the engine computed per-view bit sums and
// spliced arrivals in one batch; every execution strategy (skip or naive
// stepping, dense or sparse node table) must reproduce them exactly. The
// semi-synchronous pin sends carried robots through the same splice.

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

enum class Strategy { Skip, Naive, Sparse };

core::RunOutcome run_crowded(const scenario::ResolvedScenario& r,
                             Strategy strategy) {
  core::RunSpec spec = r.run_spec;
  spec.naive_engine = strategy == Strategy::Naive;
  if (strategy == Strategy::Sparse) spec.dense_node_limit = 0;
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
    for (const Strategy strategy :
         {Strategy::Skip, Strategy::Naive, Strategy::Sparse}) {
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

/// One Faster-Gathering run of a resolved scenario with the engine's
/// profile attached. A trace recorder turns follow sleeps off, so the
/// recorded run is the reference that polls every follower at every
/// activated round. A thrown violation is an outcome, kept by message.
struct ProfiledRun {
  RunResult result;
  EngineProfile profile;
  std::string error;
};

ProfiledRun run_profiled(const scenario::ResolvedScenario& r, Round cap,
                         std::shared_ptr<const Scheduler> scheduler,
                         bool record) {
  ProfiledRun out;
  TraceRecorder recorder;
  EngineConfig cfg = config_with_cap(cap);
  cfg.scheduler = std::move(scheduler);
  cfg.profile = &out.profile;
  if (record) cfg.trace_recorder = &recorder;
  Engine engine(*r.graph, cfg);
  for (const graph::RobotStart& start : r.placement) {
    engine.add_robot(std::make_unique<core::FasterGatheringRobot>(
                         start.label, r.run_spec.config),
                     start.node);
  }
  try {
    out.result = engine.run();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// The hard cap run_gathering uses for a Faster-Gathering scenario: the
/// spec's own, else the one derived from the schedule.
Round derived_cap(const scenario::ResolvedScenario& r) {
  if (r.run_spec.hard_cap != 0) return r.run_spec.hard_cap;
  const Round cap = core::Schedule::make(r.run_spec.config).hard_cap();
  return r.run_spec.scheduler != nullptr ? r.run_spec.scheduler->extend_cap(cap)
                                         : cap;
}

// ---- work counts ---------------------------------------------------------

/// The work a counter pin compares, printed field by field on mismatch.
struct WorkCounts {
  std::uint64_t trace_hash;
  std::uint64_t decision_calls;
  std::uint64_t total_moves;
  std::uint64_t simulated_rounds;
  std::uint64_t heap_pushes;
  std::uint64_t presorted_rounds;
  bool operator==(const WorkCounts&) const = default;
};

void PrintTo(const WorkCounts& c, std::ostream* os) {
  *os << "{trace_hash " << c.trace_hash << ", decision_calls "
      << c.decision_calls << ", total_moves " << c.total_moves
      << ", simulated_rounds " << c.simulated_rounds << ", heap_pushes "
      << c.heap_pushes << ", presorted_rounds " << c.presorted_rounds << "}";
}

WorkCounts work_counts(const RunResult& result, const EngineProfile& prof) {
  const RunMetrics& m = result.metrics;
  return {m.trace_hash,       m.decision_calls, m.total_moves,
          m.simulated_rounds, prof.heap_pushes, prof.presorted_rounds};
}

/// Stays 10,000 local rounds at a time; terminates at local round 100,000.
Action long_sleeper(ScriptedRobot&, const RoundView& view) {
  if (view.round >= 100000) return Action::terminate();
  return Action::stay_until_round(view.round + 10000);
}

// ---- wake machinery: complexity pin and bucket/heap boundaries -----------

TEST(EngineProfile, SkipModeWakeCollectionIsLinearInActiveRobots) {
  // 255 robots sleep on one far deadline while a single walker paces
  // between two nodes the sleepers never see. Skip mode must examine
  // O(active) wake entries per simulated round (about one here), not
  // all 256 slots, which naive stepping visits every round.
  constexpr RobotId kSleepers = 255;
  constexpr std::uint64_t kSlots = kSleepers + 1;
  constexpr Round kWalk = 1000;
  constexpr Round kDeadline = 5000;
  const graph::Graph g = graph::make_ring(64);
  auto sleeper = [](ScriptedRobot&, const RoundView& view) {
    if (view.round >= kDeadline) return Action::terminate();
    return Action::stay_until_round(kDeadline);
  };
  auto walker = [](ScriptedRobot&, const RoundView& view) {
    if (view.round >= kWalk) return Action::terminate();
    return Action::move(view.entry_port == kNoPort ? 0 : view.entry_port);
  };
  EngineProfile profiles[2];
  RunResult results[2];
  for (int mode = 0; mode < 2; ++mode) {
    EngineConfig cfg = config_with_cap(2 * kDeadline);
    cfg.naive_stepping = mode == 1;
    cfg.profile = &profiles[mode];
    Engine engine(g, cfg);
    for (RobotId id = 1; id <= kSleepers; ++id) {
      engine.add_robot(std::make_unique<ScriptedRobot>(id, sleeper), 0);
    }
    engine.add_robot(std::make_unique<ScriptedRobot>(kSlots, walker), 32);
    results[mode] = engine.run();
    ASSERT_TRUE(results[mode].all_terminated) << "mode " << mode;
  }
  EXPECT_EQ(results[0].metrics.trace_hash, results[1].metrics.trace_hash);
  const RunMetrics& m = results[0].metrics;
  const EngineProfile& skip = profiles[0];
  // Round 0, the walk's rounds 1..kWalk, and the deadline.
  EXPECT_EQ(m.simulated_rounds, kWalk + 2);
  EXPECT_EQ(skip.simulated_rounds, m.simulated_rounds);
  // Every examined entry is a robot that decides: nothing is scanned.
  EXPECT_EQ(skip.wake_slot_visits, m.decision_calls);
  EXPECT_LT(skip.wake_slot_visits, 2 * skip.simulated_rounds);
  // The walker's wakes (and round 0's releases) ride the bucket; only the
  // sleepers' far deadline touches the heap, and no entry goes stale.
  EXPECT_EQ(skip.bucket_pushes, kSlots + kWalk);
  EXPECT_EQ(skip.heap_pushes, kSleepers);
  EXPECT_EQ(skip.heap_pops, kSleepers);
  // Naive stepping scans every slot every round.
  EXPECT_EQ(profiles[1].wake_slot_visits,
            kSlots * results[1].metrics.simulated_rounds);
  EXPECT_EQ(profiles[1].heap_pushes + profiles[1].heap_pops, 0u);

  // The quiet schedule: one long sleeper on a ring of 8. Skip mode
  // simulates its 11 wakes; naive stepping every round up to the last.
  const graph::Graph ring = graph::make_ring(8);
  const WorkCounts kQuiet[] = {
      {1296555109371235369ULL, 11, 0, 11, 10, 11},
      {1296555109371235369ULL, 100001, 0, 100001, 0, 0}};
  for (int mode = 0; mode < 2; ++mode) {
    EngineProfile prof;
    EngineConfig cfg = config_with_cap(200000);
    cfg.naive_stepping = mode == 1;
    cfg.profile = &prof;
    Engine engine(ring, cfg);
    engine.add_robot(std::make_unique<ScriptedRobot>(1, long_sleeper), 0);
    EXPECT_EQ(work_counts(engine.run(), prof), kQuiet[mode]) << mode;
  }
}

TEST(EngineProfile, DispersedLadderSleepersKeepOneHeapEntryPerDeadline) {
  // Faster-Gathering from a dispersed start: ladder sleepers are woken
  // early by occupancy changes and go back to sleep until the same stage
  // boundary. Each re-sleep must revive the slot's queued heap entry, not
  // queue another. Before that dedupe the n=64 fixture measured
  // heap_pushes 49,983 (0.31 per decision), heap_peak 33,578 and 193,226
  // wake visits for 159,669 decisions. The n=136, k=69 row is Theorem
  // 16's dispersed ladder.
  //
  // Most consults need no robot call: token helpers whose finder is away,
  // phase-1 waiters and frozen hop-meeting robots ride out passers-by on
  // their watched Stays, and a finder touring alone is answered from its
  // route. A sleeper that rides a change out leaves its heap entry live,
  // so few entries go stale and are re-pushed.
  struct DispersedPin {
    std::size_t n;
    std::size_t k;
    WorkCounts counts;
    std::uint64_t heap_peak;
    std::uint64_t replayed_routes;
    std::uint64_t ridden_stays;
  };
  const DispersedPin kPins[] = {
      {64, 33, {11349777051333746722ULL, 159669, 107316, 8954, 623, 7594}, 34,
       59080, 45297},
      {136, 69, {773519822048699446ULL, 1288156, 838951, 40503, 1387, 32786},
       86, 517130, 409254}};
  for (const DispersedPin& pin : kPins) {
    SCOPED_TRACE(pin.n);
    scenario::ScenarioSpec spec;
    spec.family = "torus";
    spec.n = pin.n;
    spec.k = pin.k;
    spec.placement = "dispersed";
    spec.seed = 3;
    const scenario::ResolvedScenario r = scenario::resolve(spec);
    const ProfiledRun run = run_profiled(r, derived_cap(r), nullptr, false);
    const RunResult& result = run.result;
    const EngineProfile& prof = run.profile;
    ASSERT_TRUE(result.detection_correct);
    // The same run as the library's entry point, profile aside.
    EXPECT_EQ(result.metrics.trace_hash,
              core::run_gathering(*r.graph, r.placement, r.run_spec)
                  .result.metrics.trace_hash);
    const RunMetrics& m = result.metrics;
    EXPECT_LT(10 * prof.heap_pushes, m.decision_calls);
    EXPECT_LE(prof.heap_peak, 2 * spec.k);
    EXPECT_EQ(prof.heap_pops, prof.heap_pushes);
    // No duplicate is left to skip at collection: one visit per consult
    // that was not ridden out.
    EXPECT_EQ(prof.wake_slot_visits + prof.ridden_stays, m.decision_calls);
    EXPECT_EQ(work_counts(result, prof), pin.counts);
    EXPECT_EQ(prof.heap_peak, pin.heap_peak);
    EXPECT_EQ(prof.replayed_routes, pin.replayed_routes);
    EXPECT_EQ(prof.ridden_stays, pin.ridden_stays);
    // The gate: at most 40% of the consults call a robot (34% at n=64,
    // 27.8% at n=136 when it was set).
    const std::uint64_t real = m.decision_calls - prof.replayed_follows -
                               prof.replayed_routes - prof.ridden_stays;
    EXPECT_LE(10 * real, 4 * m.decision_calls)
        << real << " of " << m.decision_calls;
  }
}

TEST(EngineProfile, SuppressedSleepersReadClocksFromTheLedger) {
  // Three sleepers on a ring under semi-synchronous fairness 4, each
  // Staying 1000 local rounds at a time until local time 5000. Skip mode
  // requests one activation word per live slot per 64-round block, with
  // one scheduler call per block however many slots are live; naive
  // stepping never reads the ledger. A per-slot clock catch-up would
  // instead cover every (slot, round) pair one coin at a time.
  constexpr RobotId kSleepers = 3;
  const graph::Graph g = graph::make_ring(6);
  auto sleeper = [](ScriptedRobot&, const RoundView& view) {
    if (view.round >= 5000) return Action::terminate();
    return Action::stay_until_round(view.round + 1000);
  };
  EngineProfile profiles[2];
  RunResult results[2];
  for (int mode = 0; mode < 2; ++mode) {
    EngineConfig cfg = config_with_cap(100000);
    cfg.naive_stepping = mode == 1;
    cfg.scheduler = std::make_shared<SemiSynchronousScheduler>(5, 4);
    cfg.profile = &profiles[mode];
    Engine engine(g, cfg);
    for (RobotId id = 1; id <= kSleepers; ++id) {
      engine.add_robot(std::make_unique<ScriptedRobot>(id, sleeper),
                       static_cast<NodeId>(2 * (id - 1)));
    }
    results[mode] = engine.run();
    ASSERT_TRUE(results[mode].all_terminated) << "mode " << mode;
  }
  EXPECT_EQ(results[0].metrics.trace_hash, results[1].metrics.trace_hash);
  const RunMetrics& m = results[0].metrics;
  const EngineProfile& skip = profiles[0];
  // Every block up to the last termination (round 7978, block 124) is
  // requested once with all three sleepers live in it: 125 blocks of
  // round keys, 375 words. A per-slot catch-up would hash a round key
  // for each of about 3 x 7979 (slot, round) pairs instead.
  EXPECT_EQ(m.rounds, 7978u);
  EXPECT_EQ(skip.ledger_blocks, 125u);
  EXPECT_EQ(skip.activation_words, 375u);
  EXPECT_EQ(profiles[1].ledger_blocks + profiles[1].activation_words, 0u);

  // At scale: a long sleeper on every node of a ring of 4 or 16 under
  // fairness 4 (seed 1), still one word per live slot per block.
  struct LedgerPin {
    RobotId robots;
    WorkCounts counts;
    std::uint64_t ledger_blocks;
    std::uint64_t activation_words;
  };
  const LedgerPin kLedgerPins[] = {
      {4, {1580840083532953882ULL, 44, 0, 42, 385, 42}, 2507, 10004},
      {16, {15039835117131351202ULL, 176, 0, 162, 1526, 161}, 2508, 40014}};
  for (const LedgerPin& pin : kLedgerPins) {
    const graph::Graph ring = graph::make_ring(pin.robots);
    const auto sched = std::make_shared<SemiSynchronousScheduler>(1, 4);
    EngineProfile prof;
    EngineConfig cfg = config_with_cap(sched->extend_cap(200000));
    cfg.scheduler = sched;
    cfg.profile = &prof;
    Engine engine(ring, cfg);
    for (RobotId id = 1; id <= pin.robots; ++id) {
      engine.add_robot(std::make_unique<ScriptedRobot>(id, long_sleeper),
                       static_cast<NodeId>(id - 1));
    }
    EXPECT_EQ(work_counts(engine.run(), prof), pin.counts) << pin.robots;
    EXPECT_EQ(prof.ledger_blocks, pin.ledger_blocks) << pin.robots;
    EXPECT_EQ(prof.activation_words, pin.activation_words) << pin.robots;
  }
}

/// "" when the sleeping run reproduces the polling run's outputs and its
/// consults plus skipped polls equal the polling run's consults.
std::string follow_sleep_difference(const ProfiledRun& polling,
                                    const ProfiledRun& sleeping) {
  if (polling.error != sleeping.error) return "error";
  if (!polling.error.empty()) return "";
  const RunResult& a = polling.result;
  const RunResult& b = sleeping.result;
  const RunMetrics& x = a.metrics;
  const RunMetrics& y = b.metrics;
  if (x.trace_hash != y.trace_hash) return "trace_hash";
  if (x.rounds != y.rounds) return "rounds";
  if (x.first_gathered != y.first_gathered) return "first_gathered";
  if (x.first_termination != y.first_termination) return "first_termination";
  if (x.last_termination != y.last_termination) return "last_termination";
  if (x.moves_per_robot != y.moves_per_robot) return "moves_per_robot";
  if (x.total_message_bits != y.total_message_bits) return "message_bits";
  if (x.decision_calls != y.decision_calls + sleeping.profile.skipped_polls) {
    return "decision_calls + skipped_polls";
  }
  if (polling.profile.skipped_polls != 0) return "recorded run skipped";
  if (a.hit_round_cap != b.hit_round_cap) return "hit_round_cap";
  if (a.all_terminated != b.all_terminated) return "all_terminated";
  if (a.gathered_at_end != b.gathered_at_end) return "gathered_at_end";
  if (a.false_announcement != b.false_announcement) return "false_announcement";
  return "";
}

TEST(EngineProfile, FollowSleepsSkipMostPollsAndCreditThem) {
  // torus n=12, k=4, one-node start, semi-synchronous fairness 4, seed 1.
  // The engine that polled followers at every activated round made
  // 106,651 decisions and counted 3,827,167 message bits here. Followers
  // now sleep on their promise: at least 90% of those consults become
  // skipped polls, and their bits are credited exactly.
  constexpr std::uint64_t kPollingDecisions = 106651;
  constexpr std::uint64_t kMessageBits = 3827167;
  scenario::ScenarioSpec spec;
  spec.family = "torus";
  spec.n = 12;
  spec.k = 4;
  spec.placement = "one-node";
  spec.scheduler = "semi-synchronous";
  spec.scheduler_params.set("fairness", "4");
  spec.seed = 1;
  const scenario::ResolvedScenario r = scenario::resolve(spec);
  const Round cap = r.run_spec.scheduler->extend_cap(
      core::Schedule::make(r.run_spec.config).hard_cap());
  const ProfiledRun run = run_profiled(r, cap, r.run_spec.scheduler, false);
  ASSERT_EQ(run.error, "");
  const RunMetrics& m = run.result.metrics;
  EXPECT_EQ(m.decision_calls + run.profile.skipped_polls, kPollingDecisions);
  EXPECT_LE(m.decision_calls, kPollingDecisions / 10);
  EXPECT_EQ(m.total_message_bits, kMessageBits);
}

/// A semi-synchronous scheduler whose robots also crash at given rounds:
/// no registered adversary does both, but a follow sleep must settle its
/// skipped polls when the sleeper crashes.
class CrashingSemiSynchronous final : public Scheduler {
 public:
  CrashingSemiSynchronous(std::uint64_t seed, Round fairness,
                          std::vector<Round> crash_at)
      : inner_(seed, fairness), crash_at_(std::move(crash_at)) {}
  [[nodiscard]] std::string_view name() const override { return "test"; }
  [[nodiscard]] Round crash_round(std::uint32_t slot, RobotId) const override {
    return slot < crash_at_.size() ? crash_at_[slot] : kNoRound;
  }
  [[nodiscard]] bool activates(Round r, std::uint32_t slot,
                               RobotId id) const override {
    return inner_.activates(r, slot, id);
  }
  void activation_words(Round block, std::span<const std::uint32_t> slots,
                        std::span<const RobotId> ids,
                        std::span<std::uint64_t> out) const override {
    inner_.activation_words(block, slots, ids, out);
  }
  [[nodiscard]] Round fairness_bound() const override {
    return inner_.fairness_bound();
  }

 private:
  SemiSynchronousScheduler inner_;
  std::vector<Round> crash_at_;
};

TEST(FollowSleeps, ReproducePollingRunsUnderSuppression) {
  // Differential referee for follow sleeps: every pure family from
  // adversarial and one-node starts at fairness 2..5, under a cap that
  // ends most runs mid-schedule (so the cap's crediting of rounds and
  // bits is exercised), run once polling and once sleeping.
  struct Case {
    std::string family;
    std::string placement;
    Round fairness;
    std::uint64_t seed;
  };
  std::vector<Case> cases;
  for (const char* family :
       {"ring", "path", "complete", "star", "grid", "torus", "hypercube",
        "binary-tree", "lollipop", "barbell", "caterpillar", "wheel",
        "bipartite", "tree", "random", "regular"}) {
    for (const char* placement : {"adversarial", "one-node"}) {
      for (const Round fairness : {2u, 3u, 4u, 5u}) {
        for (const std::uint64_t seed : {1u, 2u}) {
          cases.push_back({family, placement, fairness, seed});
        }
      }
    }
  }
  std::vector<std::string> failures(cases.size());
  support::parallel_for_index(
      cases.size(), support::default_thread_count(), [&](std::size_t i) {
        const Case& c = cases[i];
        scenario::ScenarioSpec spec;
        spec.family = c.family;
        spec.n = 12;
        spec.k = 4;
        spec.placement = c.placement;
        spec.scheduler = "semi-synchronous";
        spec.scheduler_params.set("fairness", std::to_string(c.fairness));
        spec.seed = c.seed;
        const scenario::ResolvedScenario r = scenario::resolve(spec);
        const auto& sched = r.run_spec.scheduler;
        const std::string diff = follow_sleep_difference(
            run_profiled(r, 300000, sched, true),
            run_profiled(r, 300000, sched, false));
        if (!diff.empty()) {
          failures[i] = c.family + "/" + c.placement + " fairness " +
                        std::to_string(c.fairness) + " seed " +
                        std::to_string(c.seed) + ": " + diff;
        }
      });
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

TEST(FollowSleeps, PublicStateChangesWakeSleepingFollowers) {
  // Three robots share a ring node under semi-synchronous fairness 3. The
  // leader sleeps; the follower mirrors it with a promise to local round
  // 3000 that holds only while the watcher looks unchanged. Nobody moves
  // when the watcher changes its tag (or terminates) at local round 100,
  // so only the public-state wake lets the sleeping follower leave at its
  // next activation, as it does when it is polled.
  const graph::Graph g = graph::make_ring(5);
  for (const bool terminate : {false, true}) {
    const auto leader = [](ScriptedRobot&, const RoundView& view) {
      if (view.round >= 4000) return Action::terminate();
      return Action::stay_until_round(4000);
    };
    const auto follower = [](ScriptedRobot&, const RoundView& view) {
      if (view.colocated.size() == 1) return Action::terminate();
      for (const RobotPublicState& s : view.colocated) {
        if (s.id == 3 && s.tag != StateTag::Init) return Action::move(0);
      }
      return Action::follow(1, 3000);
    };
    const auto watcher = [terminate](ScriptedRobot& self,
                                     const RoundView& view) {
      if (view.round >= 5000 || (terminate && view.round >= 100)) {
        return Action::terminate();
      }
      if (view.round >= 100) {
        self.set_tag(StateTag::Finder);
        return Action::stay_until_round(5000);
      }
      return Action::stay_until_round(100);
    };
    ProfiledRun runs[2];
    for (int record = 0; record < 2; ++record) {
      TraceRecorder recorder;
      EngineConfig cfg = config_with_cap(100000);
      cfg.scheduler = std::make_shared<SemiSynchronousScheduler>(11, 3);
      cfg.profile = &runs[record].profile;
      if (record == 0) cfg.trace_recorder = &recorder;
      Engine engine(g, cfg);
      engine.add_robot(std::make_unique<ScriptedRobot>(1, leader), 0);
      engine.add_robot(std::make_unique<ScriptedRobot>(2, follower), 0);
      engine.add_robot(std::make_unique<ScriptedRobot>(3, watcher), 0);
      runs[record].result = engine.run();
      ASSERT_TRUE(runs[record].result.all_terminated) << terminate;
    }
    EXPECT_EQ(follow_sleep_difference(runs[0], runs[1]), "") << terminate;
    EXPECT_GT(runs[1].profile.skipped_polls, 0u) << terminate;
  }
}

TEST(FollowSleeps, CrashedSleepersSettleTheirPolls) {
  // One-node starts: three helpers follow a finder through phase 1. One
  // helper crashes while it sleeps on its promise, at rounds on and off
  // the 64-round ledger blocks.
  std::vector<std::string> failures;
  for (const char* family : {"ring", "torus", "star"}) {
    for (const Round crash : {4097u, 8192u, 30000u, 123457u}) {
      scenario::ScenarioSpec spec;
      spec.family = family;
      spec.n = 12;
      spec.k = 4;
      spec.placement = "one-node";
      spec.scheduler = "semi-synchronous";
      spec.scheduler_params.set("fairness", "3");
      spec.seed = 5;
      const scenario::ResolvedScenario r = scenario::resolve(spec);
      const auto sched = std::make_shared<CrashingSemiSynchronous>(
          5, 3, std::vector<Round>{kNoRound, kNoRound, crash});
      const ProfiledRun sleeping = run_profiled(r, 400000, sched, false);
      const std::string diff = follow_sleep_difference(
          run_profiled(r, 400000, sched, true), sleeping);
      if (!diff.empty() || sleeping.profile.skipped_polls == 0) {
        failures.push_back(std::string(family) + " crash " +
                           std::to_string(crash) + ": " +
                           (diff.empty() ? "nothing skipped" : diff));
      }
    }
  }
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

// ---- standing promises and group handoffs (global clock) -----------------

/// "" when two runs' results agree in every field, consult counts and
/// message bits included; else the first field that differs.
std::string result_difference(const RunResult& a, const RunResult& b) {
  const RunMetrics& x = a.metrics;
  const RunMetrics& y = b.metrics;
  if (x.trace_hash != y.trace_hash) return "trace_hash";
  if (x.rounds != y.rounds) return "rounds";
  if (x.first_gathered != y.first_gathered) return "first_gathered";
  if (x.first_termination != y.first_termination) return "first_termination";
  if (x.last_termination != y.last_termination) return "last_termination";
  if (x.total_moves != y.total_moves) return "total_moves";
  if (x.moves_per_robot != y.moves_per_robot) return "moves_per_robot";
  if (x.total_message_bits != y.total_message_bits) return "message_bits";
  if (x.decision_calls != y.decision_calls) return "decision_calls";
  if (x.simulated_rounds != y.simulated_rounds) return "simulated_rounds";
  if (a.hit_round_cap != b.hit_round_cap) return "hit_round_cap";
  if (a.all_terminated != b.all_terminated) return "all_terminated";
  if (a.gathered_at_end != b.gathered_at_end) return "gathered_at_end";
  if (a.detection_correct != b.detection_correct) return "detection_correct";
  if (a.false_announcement != b.false_announcement) return "false_announcement";
  if (a.gather_node != b.gather_node) return "gather_node";
  return "";
}

TEST(EngineProfile, CrowdedGroupsReplayPromisesAndHandOverWhole) {
  // The grid n=40, k=160 crowded pin (kCrowdedPins), synchronous: while
  // the finder maps with its helpers as the token, most helper consults
  // are answered from their standing Follow promise, and every token
  // move hands the group's occupant list over whole. A trace recorder
  // turns replays off; the run it records polls every consult and must
  // produce the same result. Handoffs do not depend on the recorder.
  // The implicit-grid rows start k robots on one node of a 64x64 grid,
  // lazy sequence, capped at round 20,000.
  struct CrowdedCounterPin {
    const char* family;
    std::size_t n;
    std::size_t k;
    WorkCounts counts;
    std::uint64_t replayed_follows;
    std::uint64_t group_handoffs;
  };
  const CrowdedCounterPin kPins[] = {
      {"grid", 40, 160,
       {3051456137833351700ULL, 64880, 42140, 2393, 11927, 2393}, 39591,
       2250},
      {"implicit-grid", 4096, 250,
       {1100188015684939892ULL, 323283, 223185, 20001, 50049, 20001}, 202935,
       19600},
      {"implicit-grid", 4096, 1000,
       {4350952759482631113ULL, 1236783, 835185, 20001, 200799, 20001}, 814185,
       19600}};
  for (const CrowdedCounterPin& pin : kPins) {
    SCOPED_TRACE(std::string(pin.family) + " k=" + std::to_string(pin.k));
    scenario::ScenarioSpec spec;
    spec.family = pin.family;
    spec.n = pin.n;
    spec.k = pin.k;
    spec.placement = "one-node";
    spec.seed = 1;
    if (pin.n == 4096) {
      spec.sequence = "lazy";
      spec.hard_cap = 20000;
    }
    const scenario::ResolvedScenario r = scenario::resolve(spec);
    const ProfiledRun replaying =
        run_profiled(r, derived_cap(r), nullptr, false);
    const ProfiledRun polling = run_profiled(r, derived_cap(r), nullptr, true);
    ASSERT_EQ(replaying.error, "");
    ASSERT_EQ(polling.error, "");
    EXPECT_EQ(result_difference(polling.result, replaying.result), "");
    EXPECT_EQ(work_counts(replaying.result, replaying.profile), pin.counts);
    EXPECT_EQ(replaying.profile.replayed_follows, pin.replayed_follows);
    EXPECT_EQ(replaying.profile.group_handoffs, pin.group_handoffs);
    EXPECT_EQ(polling.profile.replayed_follows, 0u);
    EXPECT_EQ(polling.profile.group_handoffs, pin.group_handoffs);
  }
}

TEST(StandingPromises, ReplayingRunsMatchPollingRuns) {
  // Differential referee for replayed promises, ridden-out Stays and
  // replayed routes: every pure family from one-node, undispersed,
  // dispersed and adversarial starts at n = 8, 12 and 24 under each
  // global-clock adversary, run once recorded (polling every consult)
  // and once replaying. The results must agree exactly, consult counts
  // and message bits included. Dispersed and adversarial starts need
  // k <= n, so they run at k = 4 only.
  struct Case {
    std::string family;
    std::size_t n;
    std::string placement;
    std::string scheduler;
    std::size_t k;
    std::uint64_t seed;
  };
  std::vector<Case> cases;
  for (const char* family :
       {"ring", "path", "complete", "star", "grid", "torus", "hypercube",
        "binary-tree", "lollipop", "barbell", "caterpillar", "wheel",
        "bipartite", "tree", "random", "regular"}) {
    for (const std::size_t n : {8u, 12u, 24u}) {
      for (const std::string placement :
           {"one-node", "undispersed", "dispersed", "adversarial"}) {
        const bool spread =
            placement == "dispersed" || placement == "adversarial";
        for (const char* scheduler :
             {"synchronous", "adversarial-delay", "crash-fault"}) {
          for (const std::size_t k : {std::size_t{4}, std::size_t{24}}) {
            if (spread && k > 4) continue;
            for (const std::uint64_t seed : {1u, 2u}) {
              cases.push_back({family, n, placement, scheduler, k, seed});
            }
          }
        }
      }
    }
  }
  std::vector<std::string> failures(cases.size());
  std::vector<EngineProfile> replayed(cases.size());
  support::parallel_for_index(
      cases.size(), support::default_thread_count(), [&](std::size_t i) {
        const Case& c = cases[i];
        scenario::ScenarioSpec spec;
        spec.family = c.family;
        spec.n = c.n;
        spec.k = c.k;
        spec.placement = c.placement;
        spec.scheduler = c.scheduler;
        spec.seed = c.seed;
        const scenario::ResolvedScenario r = scenario::resolve(spec);
        const auto& sched = r.run_spec.scheduler;
        const Round cap = derived_cap(r);
        const ProfiledRun polling = run_profiled(r, cap, sched, true);
        const ProfiledRun replaying = run_profiled(r, cap, sched, false);
        std::string diff;
        if (polling.error != replaying.error) {
          diff = "error";
        } else if (polling.error.empty()) {
          diff = result_difference(polling.result, replaying.result);
        }
        const EngineProfile& polled = polling.profile;
        const std::uint64_t answered = polled.replayed_follows +
                                       polled.replayed_routes +
                                       polled.ridden_stays;
        if (diff.empty() && answered != 0) diff = "recorded run replayed";
        replayed[i] = replaying.profile;
        if (!diff.empty()) {
          failures[i] = c.family + " n " + std::to_string(c.n) + "/" +
                        c.placement + "/" + c.scheduler + " k " +
                        std::to_string(c.k) + " seed " +
                        std::to_string(c.seed) + ": " + diff;
        }
      });
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  // Not vacuous: the replaying runs answer consults all three ways.
  EngineProfile total;
  for (const EngineProfile& p : replayed) {
    total.replayed_follows += p.replayed_follows;
    total.replayed_routes += p.replayed_routes;
    total.ridden_stays += p.ridden_stays;
  }
  EXPECT_GT(total.replayed_follows, 0u);
  EXPECT_GT(total.replayed_routes, 0u);
  EXPECT_GT(total.ridden_stays, 0u);
}

TEST(StandingPromises, StateChangesAtAnIntactDestinationVoidThem) {
  // Three robots walk a path as one group, the two followers promising
  // to follow robot 1 until local round 1000 while their view holds.
  // Every group move lands on an empty node, so the list is handed over
  // and the promises stand. At round 5 the leader changes its tag while
  // it moves; that voids the promises at the destination, and from round
  // 6 the followers see the tag and stay behind (and keep staying once
  // the leader has left). A follower still replaying its promise would
  // walk on to round 10.
  const graph::Graph g = graph::make_path(32);
  const auto leader = [](ScriptedRobot& self, const RoundView& view) {
    if (view.round >= 20) return Action::terminate();
    if (view.round >= 10) return Action::stay_until_round(20);
    if (view.round == 5) self.set_tag(StateTag::Finder);
    return Action::move(view.round == 0 ? 0 : 1);
  };
  const auto follower = [](ScriptedRobot&, const RoundView& view) {
    if (view.round >= 20) return Action::terminate();
    const RobotPublicState& first = view.colocated.front();
    if (first.id != 1 || first.tag == StateTag::Finder) {
      return Action::stay_until_round(20);
    }
    return Action::follow(1, 1000);
  };
  ProfiledRun runs[2];
  for (int record = 0; record < 2; ++record) {
    TraceRecorder recorder;
    EngineConfig cfg = config_with_cap(100);
    cfg.profile = &runs[record].profile;
    if (record == 1) cfg.trace_recorder = &recorder;
    Engine engine(g, cfg);
    engine.add_robot(std::make_unique<ScriptedRobot>(1, leader), 0);
    engine.add_robot(std::make_unique<ScriptedRobot>(2, follower), 0);
    engine.add_robot(std::make_unique<ScriptedRobot>(3, follower), 0);
    runs[record].result = engine.run();
    ASSERT_TRUE(runs[record].result.all_terminated) << record;
  }
  const RunMetrics& m = runs[0].result.metrics;
  EXPECT_EQ(m.moves_per_robot, (std::vector<std::uint64_t>{10, 6, 6}));
  EXPECT_EQ(result_difference(runs[1].result, runs[0].result), "");
  // Rounds 1..5: both followers replay. Handoffs: six group moves, then
  // the leader's lone moves at rounds 7..9 (round 6 leaves the followers).
  EXPECT_EQ(runs[0].profile.replayed_follows, 10u);
  EXPECT_EQ(runs[0].profile.group_handoffs, 9u);
  EXPECT_EQ(runs[1].profile.replayed_follows, 0u);
}

/// Walks a path from node 0 for kTourSteps rounds, then terminates,
/// promising the rest of its route at every consult, and logs the local
/// rounds it was really consulted at.
constexpr Round kTourSteps = 12;
ScriptedRobot::Script lone_tourer(std::vector<Round>& consults) {
  return [&consults](ScriptedRobot& self, const RoundView& view) {
    static constexpr Port kRoute[kTourSteps] = {0, 1, 1, 1, 1, 1,
                                                1, 1, 1, 1, 1, 1};
    consults.push_back(view.round);
    if (view.round >= kTourSteps) return Action::terminate();
    self.promise_route(
        {std::span<const Port>(kRoute).subspan(view.round + 1), kTourSteps});
    return Action::move(kRoute[view.round], false);
  };
}

TEST(RoutePromises, LoneTourersAreConsultedWhereTheyHaveCompany) {
  // A tourer walks a path past node 5, where robot 2 sits dormant (its
  // release is past the cap), crashed (at round 0), or terminated (at
  // round 0). Its view there holds two entries, so the engine must call
  // it at round 5 instead of replaying its route; every other consult
  // before its deadline finds it alone and is replayed. The recorded run
  // calls it every round, and both runs give the same result.
  const graph::Graph g = graph::make_path(32);
  const auto terminator = [](ScriptedRobot&, const RoundView&) {
    return Action::terminate();
  };
  const auto idle = [](ScriptedRobot&, const RoundView& view) {
    return Action::stay_one(view.round);
  };
  for (const std::string company : {"dormant", "crashed", "terminated"}) {
    SCOPED_TRACE(company);
    ProfiledRun runs[2];
    std::vector<Round> consults[2];
    for (int record = 0; record < 2; ++record) {
      TraceRecorder recorder;
      EngineConfig cfg = config_with_cap(40);
      cfg.profile = &runs[record].profile;
      if (record == 1) cfg.trace_recorder = &recorder;
      if (company == "dormant") {
        cfg.scheduler = std::make_shared<AdversarialDelayScheduler>(
            std::vector<Round>{0, 100});
      } else if (company == "crashed") {
        cfg.scheduler = std::make_shared<CrashFaultScheduler>(
            std::vector<Round>{kNoRound, 0});
      }
      Engine engine(g, cfg);
      engine.add_robot(
          std::make_unique<ScriptedRobot>(1, lone_tourer(consults[record])),
          0);
      engine.add_robot(std::make_unique<ScriptedRobot>(
                           2, company == "terminated" ? terminator : idle),
                       5);
      runs[record].result = engine.run();
    }
    EXPECT_EQ(result_difference(runs[1].result, runs[0].result), "");
    EXPECT_EQ(runs[0].result.metrics.moves_per_robot[0], kTourSteps);
    EXPECT_EQ(consults[0], (std::vector<Round>{0, 5, kTourSteps}));
    EXPECT_EQ(runs[0].profile.replayed_routes, kTourSteps + 1 - 3);
    EXPECT_EQ(consults[1].size(), kTourSteps + 1);
    EXPECT_EQ(runs[1].profile.replayed_routes, 0u);
  }
}

/// Stays watching robot 1 until round 50 while it is away; once robot 1
/// is co-located and live, stays put until round 50 unwatched. Logs the
/// rounds it was really consulted at.
ScriptedRobot::Script watching_helper(std::vector<Round>& consults) {
  return [&consults](ScriptedRobot&, const RoundView& view) {
    consults.push_back(view.round);
    if (view.round >= 50) return Action::terminate();
    for (const RobotPublicState& s : view.colocated) {
      if (s.id == 1 && s.tag != StateTag::Terminated) {
        return Action::stay_until_round(50);
      }
    }
    return Action::stay_watching(50, 1);
  };
}

/// Walks a path from node 0 for `steps` rounds, then stays until round
/// 50 and terminates.
ScriptedRobot::Script walk_then_wait(Round steps) {
  return [steps](ScriptedRobot&, const RoundView& view) {
    if (view.round >= 50) return Action::terminate();
    if (view.round >= steps) return Action::stay_until_round(50);
    return Action::move(view.round == 0 ? 0 : 1);
  };
}

TEST(WatchedStays, HelpersRideOutPassersByAndWakeForTheirWatch) {
  // A helper (robot 3) at node 4 of a path watches robot 1. Robot 2
  // walks past (arrives at round 3, leaves at round 4): both occupancy
  // changes are ridden out, each crediting the consult it would have
  // caused. Robot 1 then walks in and stops there (arriving in round 8):
  // that change wakes the helper, which sees its watch at round 9. The
  // recorded run consults the helper at every change, and both runs give
  // the same result, consult count and message bits included.
  const graph::Graph g = graph::make_path(16);
  ProfiledRun runs[2];
  std::vector<Round> consults[2];
  for (int record = 0; record < 2; ++record) {
    TraceRecorder recorder;
    EngineConfig cfg = config_with_cap(100);
    cfg.profile = &runs[record].profile;
    if (record == 1) cfg.trace_recorder = &recorder;
    Engine engine(g, cfg);
    // Robot 1 sets out from node 0 five rounds after robot 2.
    const auto watched = [](ScriptedRobot&, const RoundView& view) {
      if (view.round >= 50) return Action::terminate();
      if (view.round < 5) return Action::stay_until_round(5);
      if (view.round >= 9) return Action::stay_until_round(50);
      return Action::move(view.round == 5 ? 0 : 1);
    };
    engine.add_robot(std::make_unique<ScriptedRobot>(1, watched), 0);
    engine.add_robot(std::make_unique<ScriptedRobot>(2, walk_then_wait(8)), 0);
    engine.add_robot(
        std::make_unique<ScriptedRobot>(3, watching_helper(consults[record])),
        4);
    runs[record].result = engine.run();
    ASSERT_TRUE(runs[record].result.all_terminated) << record;
  }
  EXPECT_EQ(result_difference(runs[1].result, runs[0].result), "");
  EXPECT_EQ(consults[0], (std::vector<Round>{0, 9, 50}));
  EXPECT_EQ(consults[1], (std::vector<Round>{0, 4, 5, 9, 50}));
  EXPECT_EQ(runs[0].profile.ridden_stays, 2u);
  EXPECT_EQ(runs[1].profile.ridden_stays, 0u);
}

TEST(WatchedStays, CreditsPendingWhenTheRunEndsAreDropped) {
  // A ride credits the consult of the round after the change, and only
  // if that round is simulated. At the hard cap (a walker reaches an
  // unconditional sleeper in the capped round) and under
  // stop_when_gathered (the walker's arrival gathers the run) it is not,
  // so the replaying run must report exactly what the polling one does.
  const graph::Graph g = graph::make_path(8);
  const auto sleeper = [](ScriptedRobot&, const RoundView& view) {
    if (view.round >= 50) return Action::terminate();
    return Action::stay_watching(50, kNobody);
  };
  for (const bool stop_when_gathered : {false, true}) {
    SCOPED_TRACE(stop_when_gathered ? "stop_when_gathered" : "hard cap");
    ProfiledRun runs[2];
    for (int record = 0; record < 2; ++record) {
      TraceRecorder recorder;
      // The walker reaches node 3 in round 2: the cap is that round.
      EngineConfig cfg = config_with_cap(stop_when_gathered ? 100 : 2);
      cfg.stop_when_gathered = stop_when_gathered;
      cfg.profile = &runs[record].profile;
      if (record == 1) cfg.trace_recorder = &recorder;
      Engine engine(g, cfg);
      engine.add_robot(std::make_unique<ScriptedRobot>(1, walk_then_wait(3)),
                       0);
      engine.add_robot(std::make_unique<ScriptedRobot>(2, sleeper), 3);
      runs[record].result = engine.run();
    }
    EXPECT_EQ(result_difference(runs[1].result, runs[0].result), "");
    EXPECT_EQ(runs[0].result.hit_round_cap, !stop_when_gathered);
    EXPECT_EQ(runs[0].result.metrics.rounds, 2u);
    EXPECT_EQ(runs[0].profile.ridden_stays, 0u);
  }
}

TEST(EngineOccupancy, GroupMovesHandOverOnlyTheirOwnList) {
  // Robots 5 and 7 walk a path from node 0, where robot 1 stays, to node
  // 3, where robot 2 stays: the first move leaves a robot behind, the
  // second lands on an empty node (the one list handed over whole), the
  // third on an occupied one. Every robot polls every round and logs the
  // labels it sees, which must be exactly the robots at its node.
  const graph::Graph g = graph::make_path(8);
  for (const bool naive : {false, true}) {
    std::map<RobotId, std::string> seen;
    const auto log = [&seen](const RoundView& view, RobotId self) {
      std::string& out = seen[self];
      out += "r" + std::to_string(view.round) + ":";
      for (const RobotPublicState& s : view.colocated) {
        out += std::to_string(s.id) + ",";
      }
    };
    const auto walker = [&log](ScriptedRobot& self, const RoundView& view) {
      log(view, self.id());
      if (view.round >= 5) return Action::terminate();
      if (view.round >= 4) return Action::stay_one(view.round);
      if (self.id() == 7) return Action::follow(5);
      return Action::move(view.round == 0 ? 0 : 1);
    };
    const auto stayer = [&log](ScriptedRobot& self, const RoundView& view) {
      log(view, self.id());
      if (view.round >= 5) return Action::terminate();
      return Action::stay_one(view.round);
    };
    EngineConfig cfg = config_with_cap(20);
    cfg.naive_stepping = naive;
    Engine engine(g, cfg);
    engine.add_robot(std::make_unique<ScriptedRobot>(7, walker), 0);
    engine.add_robot(std::make_unique<ScriptedRobot>(5, walker), 0);
    engine.add_robot(std::make_unique<ScriptedRobot>(2, stayer), 3);
    engine.add_robot(std::make_unique<ScriptedRobot>(1, stayer), 0);
    (void)engine.run();
    EXPECT_EQ(seen[1], "r0:1,5,7,r1:1,r2:1,r3:1,r4:1,r5:1,") << naive;
    EXPECT_EQ(seen[2], "r0:2,r1:2,r2:2,r3:2,5,7,r4:2,r5:2,") << naive;
    EXPECT_EQ(seen[5], "r0:1,5,7,r1:5,7,r2:5,7,r3:2,5,7,r4:5,7,r5:5,7,")
        << naive;
    EXPECT_EQ(seen[7], seen[5]) << naive;
  }
}

TEST(EngineOccupancy, ViewsStaySortedByLabelThroughEverySplicePath) {
  // RoundView::colocated is sorted by id. The splice keeps each node's
  // list in label order whether a round's arrivals are merged unsorted
  // (no node receives two) or sorted first (some node receives a group),
  // and whether they moved or were carried. Labels are added
  // out of order so slot order and label order differ.
  const graph::Graph g = graph::make_random_connected(24, 36, 5);
  constexpr RobotId kLabels[] = {5, 12, 2, 9, 1, 7, 11, 3, 8, 4, 10, 6};
  for (const bool suppress : {false, true}) {
    for (const std::size_t dense_limit : {g.num_nodes(), std::size_t{0}}) {
      for (const bool naive : {false, true}) {
        bool sorted = true;
        std::uint64_t shared_views = 0;
        const ScriptedRobot::Script inner = phased_script(400);
        const auto checked = [&](ScriptedRobot& self, const RoundView& view) {
          sorted = sorted && std::is_sorted(view.colocated.begin(),
                                            view.colocated.end(),
                                            [](const RobotPublicState& a,
                                               const RobotPublicState& b) {
                                              return a.id < b.id;
                                            });
          if (view.colocated.size() > 1) ++shared_views;
          return inner(self, view);
        };
        EngineConfig cfg = config_with_cap(20000);
        cfg.naive_stepping = naive;
        cfg.dense_node_limit = dense_limit;
        if (suppress) {
          cfg.scheduler = std::make_shared<SemiSynchronousScheduler>(3, 3);
        }
        Engine engine(g, cfg);
        for (std::size_t i = 0; i < std::size(kLabels); ++i) {
          engine.add_robot(std::make_unique<ScriptedRobot>(kLabels[i], checked),
                           static_cast<NodeId>((i * 5) % g.num_nodes()));
        }
        (void)engine.run();
        const std::string label = "suppress=" + std::to_string(suppress) +
                                  " dense_limit=" + std::to_string(dense_limit) +
                                  " naive=" + std::to_string(naive);
        EXPECT_TRUE(sorted) << label;
        EXPECT_GT(shared_views, 0u) << label;
      }
    }
  }
}

/// One scripted scenario for the bucket/heap boundary suite: robots
/// (label = index + 1) with their start nodes on an 8-ring, plus the
/// per-slot release and crash rounds its adversarial-delay and
/// crash-fault runs plant.
struct WakeBoundaryCase {
  const char* name;
  std::vector<std::pair<ScriptedRobot::Script, NodeId>> robots;
  std::vector<Round> delays;
  std::vector<Round> crashes;
};

/// Keeps going around the ring (a degree-2 node's other port) until
/// local round `until`, then terminates.
ScriptedRobot::Script ring_walker(Round until) {
  return [until](ScriptedRobot&, const RoundView& view) {
    if (view.round >= until) return Action::terminate();
    return Action::move(view.entry_port == kNoPort ? 0 : 1 - view.entry_port);
  };
}

std::vector<WakeBoundaryCase> wake_boundary_cases() {
  std::vector<WakeBoundaryCase> cases;
  // Stay{r+1}: the Stay path's own next-round wake lands in the bucket,
  // interleaved with moves that do the same.
  auto stepper = [](ScriptedRobot& self, const RoundView& view) {
    if (view.round >= 40) return Action::terminate();
    if ((view.round + self.id()) % 3 != 0) return Action::stay_one(view.round);
    return Action::move(view.entry_port == kNoPort ? 0 : 1 - view.entry_port);
  };
  cases.push_back({"stay-next-round",
                   {{stepper, 0}, {stepper, 2}, {stepper, 5}},
                   {0, 1, 3},
                   {kNoRound, 4, kNoRound}});
  // Occupancy wake of a slot whose deadline is in the heap: the heap
  // entry goes stale, and the sleeper re-deciding the same absolute
  // deadline revives it next to a fresh duplicate.
  auto sleeper = [](ScriptedRobot&, const RoundView& view) {
    if (view.round >= 45) return Action::terminate();
    return Action::stay_until_round(45);
  };
  cases.push_back({"occupancy-wake-over-heap-deadline",
                   {{sleeper, 4}, {ring_walker(30), 0}, {sleeper, 6}},
                   {2, 0, 5},
                   {kNoRound, kNoRound, 11}});
  // Suppressed and carried in one round: the follower's due entry is
  // deferred to r+1 and its leader's take-followers move pushes r+1
  // again, so the bucket holds it twice.
  auto leader = ring_walker(35);
  auto follower = [](ScriptedRobot&, const RoundView& view) {
    if (view.round >= 60) return Action::terminate();
    for (const RobotPublicState& s : view.colocated) {
      if (s.id == 1 && s.tag != StateTag::Terminated) return Action::follow(1);
    }
    return Action::stay_one(view.round);
  };
  cases.push_back({"suppressed-and-carried",
                   {{leader, 3}, {follower, 3}, {follower, 3}},
                   {0, 0, 1},
                   {kNoRound, kNoRound, 9}});
  // Release at r+1: one robot starts the round after round 0, another
  // the round after a walker arrives on its node, when the occupancy
  // wake and the release deadline coincide.
  cases.push_back({"release-next-round",
                   {{ring_walker(30), 0}, {sleeper, 1}, {sleeper, 3}},
                   {0, 1, 3},
                   {kNoRound, kNoRound, kNoRound}});
  // Crash at r+1: a walker crashes the round after a move queued it in
  // the bucket, and a sleeper crashes the round after an arrival would
  // have woken it.
  cases.push_back({"crash-next-round",
                   {{ring_walker(30), 0}, {sleeper, 3}, {ring_walker(30), 6}},
                   {0, 2, 0},
                   {kNoRound, 3, 3}});
  return cases;
}

TEST(EngineWake, BucketHeapBoundariesAgreeSkipAndNaiveUnderEveryAdversary) {
  const graph::Graph g = graph::make_ring(8);
  for (const WakeBoundaryCase& c : wake_boundary_cases()) {
    const std::vector<std::pair<std::string, std::shared_ptr<const Scheduler>>>
        adversaries = {
            {"synchronous", std::make_shared<SynchronousScheduler>()},
            {"adversarial-delay",
             std::make_shared<AdversarialDelayScheduler>(c.delays)},
            {"semi-synchronous",
             std::make_shared<SemiSynchronousScheduler>(7, 3)},
            {"crash-fault", std::make_shared<CrashFaultScheduler>(c.crashes)},
        };
    for (const auto& [name, adversary] : adversaries) {
      const std::string label = std::string(c.name) + " under " + name;
      RunResult results[2];
      std::vector<NodeId> positions[2];
      for (int mode = 0; mode < 2; ++mode) {
        EngineConfig cfg = config_with_cap(400);
        cfg.naive_stepping = mode == 1;
        cfg.scheduler = adversary;
        Engine engine(g, cfg);
        for (std::size_t i = 0; i < c.robots.size(); ++i) {
          engine.add_robot(std::make_unique<ScriptedRobot>(
                               static_cast<RobotId>(i + 1), c.robots[i].first),
                           c.robots[i].second);
        }
        ASSERT_NO_THROW(results[mode] = engine.run()) << label;
        for (std::size_t i = 0; i < c.robots.size(); ++i) {
          positions[mode].push_back(
              engine.position_of(static_cast<RobotId>(i + 1)));
        }
      }
      const RunResult& skip = results[0];
      const RunResult& naive = results[1];
      EXPECT_EQ(skip.metrics.trace_hash, naive.metrics.trace_hash) << label;
      EXPECT_EQ(skip.metrics.rounds, naive.metrics.rounds) << label;
      EXPECT_EQ(skip.metrics.moves_per_robot, naive.metrics.moves_per_robot)
          << label;
      EXPECT_EQ(skip.metrics.first_gathered, naive.metrics.first_gathered)
          << label;
      EXPECT_EQ(positions[0], positions[1]) << label;
      EXPECT_EQ(skip.all_terminated, naive.all_terminated) << label;
      EXPECT_EQ(skip.hit_round_cap, naive.hit_round_cap) << label;
      EXPECT_EQ(skip.false_announcement, naive.false_announcement) << label;
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

// ---- counter pins: walking swarms, follow chains, whole runs -------------

TEST(EngineProfile, WalkingSwarmsMoveEveryRobotEveryRound) {
  // k robots, one per node, walk out of port (round mod degree) until
  // the hard cap: 4, 16 and 64 on an 8x8 torus to round 2,000, 10,000
  // on an implicit 1000x1000 grid to round 64. In every round 0..cap
  // each robot is consulted and moves, its wake rides the next-round
  // bucket, and the active set arrives sorted. A trace recorder
  // observes the run without changing it.
  struct SwarmPin {
    std::size_t k;
    Round cap;
    std::uint64_t trace_hash;
    std::size_t trace_bytes;
  };
  constexpr SwarmPin kSwarmPins[] = {
      {4, 2000, 3491626959819751494ULL, 38090},
      {16, 2000, 17046035663770908470ULL, 110212},
      {64, 2000, 12348590485959081881ULL, 398692},
      {10000, 64, 4684372100452008157ULL, 2689822}};
  const graph::Graph torus = graph::make_torus(8, 8);
  const graph::ImplicitGraph grid = graph::ImplicitGraph::grid(1000, 1000);
  auto walker = [](ScriptedRobot&, const RoundView& view) {
    return Action::move(static_cast<Port>(view.round % view.degree));
  };
  for (const SwarmPin& pin : kSwarmPins) {
    SCOPED_TRACE(pin.k);
    const graph::Topology* g = &torus;
    if (pin.k > torus.num_nodes()) g = &grid;
    ProfiledRun runs[2];
    TraceRecorder recorder;
    for (int record = 0; record < 2; ++record) {
      EngineConfig cfg = config_with_cap(pin.cap);
      cfg.profile = &runs[record].profile;
      if (record == 1) cfg.trace_recorder = &recorder;
      Engine engine(*g, cfg);
      for (std::size_t i = 0; i < pin.k; ++i) {
        engine.add_robot(std::make_unique<ScriptedRobot>(
                             static_cast<RobotId>(i + 1), walker),
                         static_cast<NodeId>(i));
      }
      runs[record].result = engine.run();
    }
    const std::uint64_t robot_rounds = pin.k * (pin.cap + 1);
    EXPECT_EQ(work_counts(runs[0].result, runs[0].profile),
              (WorkCounts{pin.trace_hash, robot_rounds, robot_rounds,
                          pin.cap + 1, 0, pin.cap + 1}));
    EXPECT_EQ(runs[0].profile.bucket_pushes, robot_rounds + pin.k);
    EXPECT_EQ(result_difference(runs[1].result, runs[0].result), "");
    EXPECT_EQ(recorder.bytes().size(), pin.trace_bytes);
  }
}

TEST(EngineProfile, FollowChainsMoveWithTheirLeader) {
  // A leader walks a ring of 16 until the cap at round 512, with a chain
  // of 2, 8 or 32 robots behind it, each following the next-higher id.
  // Every round consults every robot and resolves the whole chain.
  const std::pair<RobotId, std::uint64_t> kChainPins[] = {
      {2, 9383459032272912648ULL},
      {8, 9192293587876717414ULL},
      {32, 1562061260904268853ULL}};
  const graph::Graph ring = graph::make_ring(16);
  auto leader = [](ScriptedRobot&, const RoundView&) {
    return Action::move(1);
  };
  for (const auto& [chain, trace_hash] : kChainPins) {
    EngineProfile prof;
    EngineConfig cfg = config_with_cap(512);
    cfg.profile = &prof;
    Engine engine(ring, cfg);
    engine.add_robot(std::make_unique<ScriptedRobot>(chain + 1, leader), 0);
    for (RobotId id = chain; id >= 1; --id) {
      auto follower = [id](ScriptedRobot&, const RoundView&) {
        return Action::follow(id + 1);
      };
      engine.add_robot(std::make_unique<ScriptedRobot>(id, follower), 0);
    }
    const std::uint64_t robot_rounds = 513 * (chain + 1);
    EXPECT_EQ(work_counts(engine.run(), prof),
              (WorkCounts{trace_hash, robot_rounds, robot_rounds, 513, 0, 513}))
        << chain;
  }
}

TEST(EngineProfile, UndispersedRingRunsMatchPins) {
  // Faster-Gathering end to end: 4 robots on random nodes (seed 5) of a
  // ring of 8, 16 or 32, labels drawn from [1, n^2] (seed 7), covering
  // sequence.
  const std::pair<std::size_t, WorkCounts> kRingPins[] = {
      {8, {10600509601336720638ULL, 234, 172, 121, 22, 117}},
      {16, {16553240715872479571ULL, 740, 594, 433, 30, 432}},
      {32, {18182715695318825158ULL, 2502, 2248, 1633, 46, 1630}}};
  for (const auto& [n, counts] : kRingPins) {
    const auto ring = std::make_shared<graph::Graph>(graph::make_ring(n));
    scenario::ResolvedScenario r;
    r.graph = ring;
    r.placement = graph::make_placement(
        graph::nodes_undispersed_random(*ring, 4, 5),
        graph::labels_random_distinct(4, n, 2, 7));
    r.run_spec.config =
        core::make_config(*ring, uxs::make_covering_sequence(*ring, 3));
    const ProfiledRun run = run_profiled(r, derived_cap(r), nullptr, false);
    ASSERT_TRUE(run.result.detection_correct) << n;
    EXPECT_EQ(work_counts(run.result, run.profile), counts) << n;
  }
}

TEST(EngineProfile, SuppressedWakeHeapOutgrowsItsReserve) {
  // Pins a known defect, so that a fix shows as a deliberate re-pin:
  // under a suppressing scheduler, a slot re-slept to a new deadline
  // leaves its old heap entry queued until that entry pops, so the wake
  // heap outgrows the 4·k entries the engine reserves (16 here) and the
  // skip-mode round loop allocates. Rows of the seed-42 SSYNC sweep over
  // the pure families (n=12, k=4).
  const std::pair<const char*, std::uint64_t> kHeapPins[] = {{"wheel", 97},
                                                             {"star", 74}};
  for (const auto& [family, heap_peak] : kHeapPins) {
    scenario::ScenarioSpec spec;
    spec.family = family;
    spec.n = 12;
    spec.k = 4;
    spec.scheduler = "semi-synchronous";
    spec.seed = 42;
    const scenario::ResolvedScenario r = scenario::resolve(spec);
    const ProfiledRun run =
        run_profiled(r, derived_cap(r), r.run_spec.scheduler, false);
    ASSERT_EQ(run.error, "") << family;
    EXPECT_EQ(run.profile.heap_peak, heap_peak) << family;
  }
}

}  // namespace
}  // namespace gather::sim
