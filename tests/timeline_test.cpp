// Timeline tests: stage-bucketed analysis of a decoded binary trace.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/run.hpp"
#include "core/timeline.hpp"
#include "graph/generators.hpp"
#include "graph/placement.hpp"
#include "scenario/scenario.hpp"
#include "sim/trace.hpp"
#include "support/math.hpp"
#include "uxs/uxs.hpp"

namespace gather::core {
namespace {

struct TracedRun {
  RunOutcome out;
  sim::Trace trace;
};

TracedRun traced_run(const graph::Graph& g, const graph::Placement& placement) {
  sim::TraceRecorder recorder;
  RunSpec spec;
  spec.algorithm = AlgorithmKind::FasterGathering;
  spec.config = make_config(g, uxs::make_covering_sequence(g, 3));
  spec.trace_recorder = &recorder;
  TracedRun run;
  run.out = run_gathering(g, placement, spec);
  run.trace = sim::decode_trace(recorder.bytes());
  return run;
}

/// Resolve `spec` and run it through scenario::run_resolved with a
/// caller-owned recorder — the plumbing gather_cli --timeline uses.
TracedRun traced_scenario(const scenario::ScenarioSpec& spec) {
  sim::TraceRecorder recorder;
  scenario::ResolvedScenario resolved = scenario::resolve(spec);
  resolved.run_spec.trace_recorder = &recorder;
  TracedRun run;
  run.out = scenario::run_resolved(resolved, "");
  run.trace = sim::decode_trace(recorder.bytes());
  return run;
}

std::string printed(const Timeline& timeline) {
  std::ostringstream os;
  timeline.print(os);
  return os.str();
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(GATHER_TEST_DATA_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing golden " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::uint64_t> stage_moves(const Timeline& timeline) {
  std::vector<std::uint64_t> moves;
  for (const StageActivity& s : timeline.stages()) moves.push_back(s.moves);
  return moves;
}

TEST(Timeline, TotalsMatchEngineMetrics) {
  const graph::Graph g = graph::make_ring(8);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(3));
  const TracedRun run = traced_run(g, placement);
  ASSERT_TRUE(run.out.schedule.has_value());
  const Timeline timeline = Timeline::from_trace(run.trace, *run.out.schedule);
  EXPECT_EQ(timeline.total_moves(), run.out.result.metrics.total_moves);
}

TEST(Timeline, UndispersedRunActiveOnlyInStageZero) {
  const graph::Graph g = graph::make_ring(8);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(3));
  const TracedRun run = traced_run(g, placement);
  const Timeline timeline = Timeline::from_trace(run.trace, *run.out.schedule);
  EXPECT_EQ(timeline.first_active_stage(), 0);
  for (std::size_t i = 1; i < timeline.stages().size(); ++i) {
    EXPECT_EQ(timeline.stages()[i].moves, 0u) << "stage " << i;
  }
}

TEST(Timeline, PlantedDistanceShowsLadderActivity) {
  const graph::Graph g = graph::make_path(12);
  const auto nodes = graph::nodes_pair_at_distance(g, 2, 3, 7);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(2));
  const TracedRun run = traced_run(g, placement);
  ASSERT_TRUE(run.out.result.detection_correct);
  const Timeline timeline = Timeline::from_trace(run.trace, *run.out.schedule);
  // Stage 0 (undispersed) is silent on a dispersed start; hop stages
  // 1..3 walk; the run resolves in stage 3.
  EXPECT_EQ(timeline.stages()[0].moves, 0u);
  EXPECT_GT(timeline.stages()[1].moves, 0u);
  EXPECT_GT(timeline.stages()[3].moves, 0u);
  EXPECT_EQ(timeline.first_active_stage(), 1);
  // Stages after the gathering stage stay silent.
  for (std::size_t i = 4; i < timeline.stages().size(); ++i) {
    EXPECT_EQ(timeline.stages()[i].moves, 0u) << "stage " << i;
  }
}

TEST(Timeline, TracksPerRobotMoves) {
  const graph::Graph g = graph::make_ring(6);
  const auto nodes = graph::nodes_undispersed_random(g, 2, 3);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(2));
  const TracedRun run = traced_run(g, placement);
  const Timeline timeline = Timeline::from_trace(run.trace, *run.out.schedule);
  const auto& stage0 = timeline.stages()[0];
  std::uint64_t sum = 0;
  for (const std::uint64_t moves : stage0.moves_by_robot) sum += moves;
  EXPECT_EQ(sum, stage0.moves);
  EXPECT_GE(stage0.active_robots(), 1u);
  EXPECT_LE(stage0.active_robots(), 2u);
  // moves_by_robot is dense over the ranked label set; every stage's
  // vector spans the same labels.
  EXPECT_EQ(stage0.moves_by_robot.size(), timeline.robot_labels().size());
  // The finder (label 1) does the mapping work; the helper follows it.
  EXPECT_GT(timeline.moves_for(stage0, 1), 0u);
  EXPECT_EQ(timeline.moves_for(stage0, 999), 0u);  // unknown label
}

TEST(Timeline, PrintRendersStages) {
  const graph::Graph g = graph::make_ring(6);
  const auto nodes = graph::nodes_undispersed_random(g, 2, 3);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(2));
  const TracedRun run = traced_run(g, placement);
  const std::string text =
      printed(Timeline::from_trace(run.trace, *run.out.schedule));
  EXPECT_NE(text.find("undispersed"), std::string::npos);
  EXPECT_NE(text.find("uxs-catchall"), std::string::npos);
}

TEST(Timeline, EmptyTraceHasNoActiveStage) {
  AlgorithmConfig config;
  config.n = 5;
  config.sequence = uxs::make_pseudorandom_sequence(5, 16);
  const Schedule sched = Schedule::make(config);
  const Timeline timeline = Timeline::from_trace(sim::Trace{}, sched);
  EXPECT_EQ(timeline.first_active_stage(), -1);
  EXPECT_EQ(timeline.total_moves(), 0u);
}

// ---- pinned runs: the table `gather_cli --timeline` prints ----------------
// CI diffs the CLI's table against the same goldens under tests/data/.

TEST(Timeline, PinnedRingDispersedLadder) {
  // gather_cli --graph=ring --n=12 --k=3 --placement=dispersed --timeline
  scenario::ScenarioSpec spec;
  spec.family = "ring";
  spec.n = 12;
  spec.k = 3;
  spec.placement = "dispersed";
  const TracedRun run = traced_scenario(spec);
  ASSERT_TRUE(run.out.schedule.has_value());
  const Timeline timeline = Timeline::from_trace(run.trace, *run.out.schedule);
  EXPECT_EQ(stage_moves(timeline),
            (std::vector<std::uint64_t>{0, 28, 84, 477, 0, 0, 0}));
  EXPECT_EQ(timeline.total_moves(), run.out.result.metrics.total_moves);
  EXPECT_EQ(printed(timeline), read_golden("timeline_ring12_dispersed.txt"));
}

TEST(Timeline, PinnedTorusOneNodeSemiSynchronousCountsCarriedMoves) {
  // gather_cli --graph=torus --n=9 --k=6 --placement=one-node
  //   --scheduler=semi-synchronous --scheduler-params=fairness=3 --timeline
  scenario::ScenarioSpec spec;
  spec.family = "torus";
  spec.n = 9;
  spec.k = 6;
  spec.placement = "one-node";
  spec.scheduler = "semi-synchronous";
  spec.scheduler_params = scenario::Params::parse("fairness=3");
  const TracedRun run = traced_scenario(spec);
  ASSERT_TRUE(run.out.schedule.has_value());
  std::uint64_t carried = 0;
  for (const sim::TraceRound& round : run.trace.rounds) {
    carried += round.carried.size();
  }
  EXPECT_GT(carried, 0u) << "the pin must exercise standing-follow moves";
  const Timeline timeline = Timeline::from_trace(run.trace, *run.out.schedule);
  EXPECT_EQ(stage_moves(timeline),
            (std::vector<std::uint64_t>{448, 0, 0, 0, 0, 0, 0}));
  const StageActivity& stage0 = timeline.stages()[0];
  EXPECT_EQ(stage0.active_robots(), 6u);
  EXPECT_EQ(stage0.first_move, 7u);
  EXPECT_EQ(stage0.last_move, 56068u);
  EXPECT_EQ(timeline.total_moves(), run.out.result.metrics.total_moves);
  EXPECT_EQ(printed(timeline), read_golden("timeline_torus9_ssync3.txt"));
}

// ---- saturated schedules --------------------------------------------------

TEST(Timeline, SaturatedStageEndsNeverWrap) {
  // At n = 4096 the hop-4/5 budgets and the UXS start saturate at
  // 2^64 - 1; a stage end computed as start + duration would wrap below
  // its start. Every stage, printed and attributed, must end at or
  // after it starts.
  AlgorithmConfig config;
  config.n = 4096;
  config.sequence = uxs::make_pseudorandom_sequence(4096, 16);
  const Schedule sched = Schedule::make(config);

  // One move at the first round of every reachable stage; each must
  // land in its own stage, not fall through to the last one.
  const auto reachable = [](const Stage& stage) {
    return stage.duration > 0 && stage.start != sim::kNoRound;
  };
  sim::Trace trace;
  trace.robots.push_back(sim::TraceRobot{1, 0, 0, sim::kNoRound});
  for (const Stage& stage : sched.stages()) {
    if (!reachable(stage)) continue;
    sim::TraceRound round;
    round.round = stage.start;
    round.moves.push_back(sim::TraceMove{0, 1});
    trace.rounds.push_back(round);
  }
  const Timeline timeline = Timeline::from_trace(trace, sched);
  bool saturated = false;
  for (std::size_t i = 0; i < sched.stages().size(); ++i) {
    const Stage& stage = sched.stages()[i];
    const StageActivity& s = timeline.stages()[i];
    const Round end = support::sat_add(s.start, s.duration);
    EXPECT_GE(end, s.start) << "stage " << i;
    saturated |= end == sim::kNoRound;
    if (reachable(stage)) {
      EXPECT_EQ(s.moves, 1u) << "stage " << i;
      EXPECT_EQ(s.first_move, s.start) << "stage " << i;
    }
  }
  EXPECT_TRUE(saturated) << "n = 4096 no longer saturates; raise n";

  // The printed "[start, end)" column agrees: end >= start on every row.
  std::istringstream rows(printed(timeline));
  std::string line;
  std::size_t checked = 0;
  while (std::getline(rows, line)) {
    const std::size_t open = line.find('[');
    if (open == std::string::npos || line.find("kind") != std::string::npos) {
      continue;  // border or header row
    }
    const std::size_t close = line.find(')', open);
    ASSERT_NE(close, std::string::npos) << line;
    std::string digits;
    for (const char c : line.substr(open + 1, close - open - 1)) {
      if (c != ',') digits += c;
    }
    std::istringstream bounds(digits);
    Round start = 0;
    Round end = 0;
    ASSERT_TRUE(bounds >> start >> end) << line;
    EXPECT_GE(end, start) << line;
    ++checked;
  }
  EXPECT_EQ(checked, timeline.stages().size());
}

}  // namespace
}  // namespace gather::core
