// Scheduler-layer referee suite.
//
// Three pins hold the refactor together:
//  1. The `synchronous` scheduler is bit-identical to the pre-refactor
//     engine: trace hashes, round counts, and move totals captured from
//     the engine BEFORE the scheduler layer existed are hard-coded here
//     and must keep matching (all quantities are pure integer functions
//     of the deterministic instance, so they are platform-independent).
//  2. `adversarial-delay` is pinned to the legacy core::DelayedRobot
//     wrapper it subsumed: the wrapper is deleted, and the absolute
//     trace hashes / metrics / final positions captured while both
//     paths ran trace-identical are hard-coded across the edge cases
//     the wrapper was known to handle (all robots late, single robot,
//     ties).
//  3. Every adversary preserves skip-vs-naive equivalence — scheduler
//     policies are pure per-robot functions, so event-driven skipping
//     must not change observable behaviour under any of them.
//
// On top sit behavioural properties: semi-synchronous fairness, crash
// freezing, detection soundness flags (RunResult::false_announcement),
// the activation ledger (activation_words exactness, a differential run
// against the default activates() loop, and a complexity gate), and a
// registry/sweep pass over every graph family × every adversary.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <span>

#include "core/robots.hpp"
#include "core/run.hpp"
#include "graph/generators.hpp"
#include "graph/placement.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "support/assert.hpp"
#include "support/parallel_for.hpp"
#include "uxs/uxs.hpp"

namespace gather {
namespace {

// ---- 1. synchronous == pre-refactor engine, bit for bit ------------------

TEST(SchedulerEquivalence, SynchronousPinnedToPreRefactorEngine) {
  struct Pinned {
    const char* family;
    std::size_t n;
    std::size_t k;
    const char* placement;
    const char* algorithm;
    std::uint64_t seed;
    std::uint64_t trace_hash;
    sim::Round rounds;
    sim::Round first_gathered;
    std::uint64_t total_moves;
  };
  // Captured from the seed engine at commit dbf0492 (pre-scheduler),
  // running the same ScenarioSpecs. Every run here resolves through the
  // registry's explicit SynchronousScheduler instance, so both "no
  // scheduler" and "synchronous scheduler" are pinned at once.
  const Pinned pinned[] = {
      {"ring", 12, 4, "adversarial", "faster", 42,
       0xa69fd4bb54c2c53fULL, 54723ULL, 54720ULL, 822ULL},
      {"torus", 12, 5, "dispersed", "faster", 7,
       0x3665cc23ed2d109bULL, 14689ULL, 7719ULL, 936ULL},
      {"random", 14, 4, "undispersed", "faster", 3,
       0xb062aa2846a5d8beULL, 11432ULL, 11419ULL, 546ULL},
      {"grid", 16, 9, "adversarial", "faster", 5,
       0x812403775f82af3cULL, 34237ULL, 34234ULL, 1366ULL},
      {"star", 9, 3, "one-node", "undispersed", 11,
       0x995d072cdd647e10ULL, 3122ULL, 0ULL, 136ULL},
      {"hypercube", 16, 4, "dispersed", "uxs", 2,
       0x7344c3935fbb3d08ULL, 16384ULL, 55ULL, 28648ULL},
  };
  for (const Pinned& p : pinned) {
    scenario::ScenarioSpec spec;
    spec.family = p.family;
    spec.n = p.n;
    spec.k = p.k;
    spec.placement = p.placement;
    spec.algorithm = p.algorithm;
    spec.seed = p.seed;
    ASSERT_EQ(spec.scheduler, "synchronous");
    const core::RunOutcome out = scenario::run_scenario(spec);
    const std::string name = std::string(p.family) + "/" + p.algorithm;
    EXPECT_EQ(out.result.metrics.trace_hash, p.trace_hash) << name;
    EXPECT_EQ(out.result.metrics.rounds, p.rounds) << name;
    EXPECT_EQ(out.result.metrics.first_gathered, p.first_gathered) << name;
    EXPECT_EQ(out.result.metrics.total_moves, p.total_moves) << name;
    EXPECT_TRUE(out.result.detection_correct) << name;
    EXPECT_FALSE(out.result.false_announcement) << name;
  }
}

TEST(SchedulerEquivalence, NullAndSynchronousSchedulerAgree) {
  const graph::Graph g = graph::make_torus(3, 4);
  const auto nodes = graph::nodes_undispersed_random(g, 4, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(4));
  core::RunSpec spec;
  spec.config = core::make_config(g, uxs::make_covering_sequence(g, 3));
  const core::RunOutcome none = core::run_gathering(g, placement, spec);
  spec.scheduler = std::make_shared<sim::SynchronousScheduler>();
  const core::RunOutcome sync = core::run_gathering(g, placement, spec);
  EXPECT_EQ(none.result.metrics.trace_hash, sync.result.metrics.trace_hash);
  EXPECT_EQ(none.result.metrics.rounds, sync.result.metrics.rounds);
  EXPECT_EQ(none.result.metrics.total_message_bits,
            sync.result.metrics.total_message_bits);
  EXPECT_EQ(none.result.metrics.decision_calls,
            sync.result.metrics.decision_calls);
}

// ---- 2. adversarial-delay pinned to the legacy DelayedRobot wrapper ------
//
// core::DelayedRobot is deleted. While it existed, every case below was
// asserted trace-identical between the wrapper path and the scheduler
// path; the expected values here are those captured equivalence-era
// numbers, now pinned absolutely so the scheduler cannot drift from the
// wrapper semantics it replaced.

struct DelayRunOutcome {
  bool threw = false;  ///< misalignment broke a protocol invariant
  sim::RunResult result;
  std::vector<sim::NodeId> positions;
};

/// Equivalence-era pin: the run's full observable signature.
struct DelayPin {
  std::uint64_t trace_hash;
  sim::Round rounds;
  std::uint64_t total_moves;
  bool gathered;
  bool detection_correct;
  std::vector<sim::NodeId> positions;
};

core::AlgorithmConfig delay_config(const graph::Graph& g) {
  core::AlgorithmConfig config;
  config.n = g.num_nodes();
  config.sequence = uxs::make_covering_sequence(g, 3);
  return config;
}

sim::EngineConfig delay_engine_config(const graph::Graph& g,
                                      const std::vector<sim::Round>& delays) {
  const core::Schedule sched = core::Schedule::make(delay_config(g));
  sim::Round max_delay = 0;
  for (const sim::Round d : delays) max_delay = std::max(max_delay, d);
  sim::EngineConfig cfg;
  cfg.hard_cap = sched.hard_cap() + max_delay + 8;
  return cfg;
}

DelayRunOutcome finish(sim::Engine& engine,
                       const graph::Placement& placement) {
  DelayRunOutcome out;
  try {
    out.result = engine.run();
  } catch (const ContractViolation&) {
    out.threw = true;
    return out;
  }
  for (const graph::RobotStart& start : placement) {
    out.positions.push_back(engine.position_of(start.label));
  }
  return out;
}

/// Plain robots, delays owned by AdversarialDelayScheduler.
DelayRunOutcome run_scheduler_delayed(const graph::Graph& g,
                                      const graph::Placement& placement,
                                      const std::vector<sim::Round>& delays,
                                      bool naive = false) {
  const core::AlgorithmConfig config = delay_config(g);
  sim::EngineConfig cfg = delay_engine_config(g, delays);
  cfg.naive_stepping = naive;
  cfg.scheduler = std::make_shared<sim::AdversarialDelayScheduler>(delays);
  sim::Engine engine(g, cfg);
  for (const graph::RobotStart& start : placement) {
    engine.add_robot(
        std::make_unique<core::FasterGatheringRobot>(start.label, config),
        start.node);
  }
  return finish(engine, placement);
}

void expect_delay_pin(const graph::Graph& g,
                      const graph::Placement& placement,
                      const std::vector<sim::Round>& delays,
                      const DelayPin& pin, const std::string& name) {
  const DelayRunOutcome fresh = run_scheduler_delayed(g, placement, delays);
  ASSERT_FALSE(fresh.threw) << name;
  EXPECT_EQ(fresh.result.metrics.trace_hash, pin.trace_hash) << name;
  EXPECT_EQ(fresh.result.metrics.rounds, pin.rounds) << name;
  EXPECT_EQ(fresh.result.metrics.total_moves, pin.total_moves) << name;
  EXPECT_EQ(fresh.positions, pin.positions) << name;
  EXPECT_EQ(fresh.result.gathered_at_end, pin.gathered) << name;
  EXPECT_EQ(fresh.result.detection_correct, pin.detection_correct) << name;
  EXPECT_FALSE(fresh.result.hit_round_cap) << name;
}

TEST(AdversarialDelay, PinnedToLegacyDelayedRobotOnMixedDelays) {
  const graph::Graph g = graph::make_ring(8);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(3));
  // The wrapper path threw a ProtocolViolation on this misalignment,
  // and so must the scheduler path.
  const DelayRunOutcome mixed =
      run_scheduler_delayed(g, placement, {0, 3, 7});
  EXPECT_TRUE(mixed.threw) << "mixed";
  expect_delay_pin(g, placement, {0, 0, 0},
                   {0xf064f99c5b75f20bULL, 2216, 161, true, true, {1, 1, 1}},
                   "zero");
}

TEST(AdversarialDelay, PinnedToLegacyWhenAllRobotsDelayedPastRoundZero) {
  // Nobody acts in round 0 — the engine must idle through the silent
  // prefix exactly like the wrapper did (it kept slots nominally awake).
  const graph::Graph g = graph::make_ring(8);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(3));
  expect_delay_pin(
      g, placement, {5, 9, 13},
      {0x76e82d35c962e350ULL, 380751, 903, true, false, {1, 1, 1}},
      "all-late");
  // Uniform late start: alignment preserved, schedule intact.
  const DelayRunOutcome zero = run_scheduler_delayed(g, placement, {0, 0, 0});
  ASSERT_FALSE(zero.threw);
  expect_delay_pin(
      g, placement, {100, 100, 100},
      {0x38acccbd2e646646ULL, zero.result.metrics.rounds + 100, 161, true,
       true, {1, 1, 1}},
      "uniform-100");
}

TEST(AdversarialDelay, PinnedToLegacyOnSingleRobot) {
  const graph::Graph g = graph::make_path(5);
  graph::Placement placement;
  placement.push_back({2, 1});
  expect_delay_pin(g, placement, {11},
                   {0xf56c62d50c95ba19ULL, 25629, 272, true, true, {2}},
                   "single");
  expect_delay_pin(g, placement, {0},
                   {0x0f940c7b6b793066ULL, 25618, 272, true, true, {2}},
                   "single-zero");
}

TEST(AdversarialDelay, PinnedToLegacyOnDelayTies) {
  // Tied wake rounds exercise simultaneous release: the tied robots must
  // activate in the same round with the same views the wrapper produced.
  const graph::Graph g = graph::make_torus(3, 3);
  const auto nodes = graph::nodes_undispersed_random(g, 4, 2);
  const auto placement = graph::make_placement(
      nodes, graph::labels_random_distinct(4, g.num_nodes(), 2, 9));
  expect_delay_pin(
      g, placement, {6, 6, 6, 6},
      {0x40bd9454aa23cdb5ULL, 3128, 287, true, true, {8, 8, 8, 8}},
      "all-tied");
  expect_delay_pin(
      g, placement, {0, 4, 4, 0},
      {0x5342308406146e0bULL, 6377, 556, false, false, {8, 3, 3, 8}},
      "pair-tied");
}

TEST(AdversarialDelay, SkipAndNaiveAgreeUnderDelays) {
  const graph::Graph g = graph::make_ring(8);
  const auto nodes = graph::nodes_undispersed_random(g, 3, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(3));
  const std::vector<sim::Round> delays = {2, 0, 6};
  const DelayRunOutcome skip = run_scheduler_delayed(g, placement, delays);
  const DelayRunOutcome naive =
      run_scheduler_delayed(g, placement, delays, /*naive=*/true);
  ASSERT_EQ(skip.threw, naive.threw);
  ASSERT_FALSE(skip.threw);
  EXPECT_EQ(skip.result.metrics.trace_hash, naive.result.metrics.trace_hash);
  EXPECT_EQ(skip.result.metrics.rounds, naive.result.metrics.rounds);
  EXPECT_EQ(skip.positions, naive.positions);
}

// ---- scripted robots for adversary semantics -----------------------------

class ScriptedRobot final : public sim::Robot {
 public:
  using Script =
      std::function<sim::Action(ScriptedRobot&, const sim::RoundView&)>;
  ScriptedRobot(sim::RobotId id, Script script)
      : sim::Robot(id), script_(std::move(script)) {}

  sim::Action on_round(const sim::RoundView& view) override {
    return script_(*this, view);
  }

 private:
  Script script_;
};

/// The engine_test mixing script: phase-structured walking, waiting, and
/// merge-on-meet following — exercises every engine path.
ScriptedRobot::Script phased_script(sim::Round horizon) {
  return [horizon](ScriptedRobot& self,
                   const sim::RoundView& view) -> sim::Action {
    if (view.round >= horizon) return sim::Action::terminate();
    sim::RobotId biggest = 0;
    for (const sim::RobotPublicState& s : view.colocated) {
      if (s.id != self.id() && s.tag != sim::StateTag::Terminated)
        biggest = std::max(biggest, s.id);
    }
    if (biggest > self.id()) return sim::Action::follow(biggest);
    const sim::Round phase = view.round / 7;
    if ((phase + self.id()) % 3 == 0) {
      const sim::Round boundary =
          std::min(horizon, (view.round / 7 + 1) * 7);
      return sim::Action::stay_until_round(boundary);
    }
    const auto port =
        static_cast<sim::Port>((view.round + self.id()) % view.degree);
    return sim::Action::move(port);
  };
}

struct ScriptedRun {
  sim::RunResult result;
  std::vector<sim::NodeId> positions;
  std::vector<std::uint64_t> moves;
};

ScriptedRun run_scripted(const graph::Graph& g, std::size_t k,
                         sim::Round horizon,
                         std::shared_ptr<const sim::Scheduler> scheduler,
                         bool naive, sim::Round hard_cap = 20000) {
  sim::EngineConfig cfg;
  cfg.hard_cap = hard_cap;
  cfg.naive_stepping = naive;
  cfg.scheduler = std::move(scheduler);
  sim::Engine engine(g, cfg);
  for (sim::RobotId id = 1; id <= k; ++id) {
    engine.add_robot(
        std::make_unique<ScriptedRobot>(id, phased_script(horizon)),
        static_cast<graph::NodeId>((id * 7) % g.num_nodes()));
  }
  ScriptedRun out;
  out.result = engine.run();
  for (sim::RobotId id = 1; id <= k; ++id) {
    out.positions.push_back(engine.position_of(id));
    out.moves.push_back(out.result.metrics.moves_per_robot[id - 1]);
  }
  return out;
}

// ---- 3. skip-vs-naive equivalence under every adversary ------------------

/// Semi-synchronous activation on top of explicit per-slot releases and
/// crashes: the skipping engine's activation ledger must leave out the
/// rounds before a release that falls inside a 64-round block, and stop
/// counting a slot once it crashes.
class SuppressedDelayedCrashingScheduler final : public sim::Scheduler {
 public:
  SuppressedDelayedCrashingScheduler(std::vector<sim::Round> releases,
                                     std::vector<sim::Round> crashes)
      : releases_(std::move(releases)),
        crashes_(std::move(crashes)),
        inner_(11, 3) {}
  [[nodiscard]] std::string_view name() const override {
    return "suppressed-delayed-crashing";
  }
  [[nodiscard]] sim::Round release_round(std::uint32_t slot,
                                         sim::RobotId) const override {
    return releases_[slot];
  }
  [[nodiscard]] sim::Round crash_round(std::uint32_t slot,
                                       sim::RobotId) const override {
    return crashes_[slot];
  }
  [[nodiscard]] bool activates(sim::Round r, std::uint32_t slot,
                               sim::RobotId id) const override {
    return inner_.activates(r, slot, id);
  }
  void activation_words(sim::Round block, std::span<const std::uint32_t> slots,
                        std::span<const sim::RobotId> ids,
                        std::span<std::uint64_t> out) const override {
    inner_.activation_words(block, slots, ids, out);
  }
  [[nodiscard]] sim::Round fairness_bound() const override {
    return inner_.fairness_bound();
  }

 private:
  std::vector<sim::Round> releases_;
  std::vector<sim::Round> crashes_;
  sim::SemiSynchronousScheduler inner_;
};

TEST(SchedulerEquivalence, SkipAndNaiveAgreeUnderEveryAdversary) {
  const graph::Graph g = graph::make_random_connected(16, 24, 3);
  const std::vector<
      std::pair<std::string, std::shared_ptr<const sim::Scheduler>>>
      adversaries = {
          {"synchronous", std::make_shared<sim::SynchronousScheduler>()},
          {"adversarial-delay",
           std::make_shared<sim::AdversarialDelayScheduler>(
               std::vector<sim::Round>{3, 0, 9, 1, 6})},
          {"semi-synchronous",
           std::make_shared<sim::SemiSynchronousScheduler>(17, 3)},
          {"crash-fault",
           std::make_shared<sim::CrashFaultScheduler>(
               std::vector<sim::Round>{sim::kNoRound, 40, sim::kNoRound,
                                       sim::kNoRound, 12})},
          // The engine's next-round bucket boundary: releases and crashes
          // one round after round 0 (and after the first moves), and a
          // fairness bound that suppresses — and so defers to the
          // bucket — as often as the policy allows.
          {"adversarial-delay, releases at r+1",
           std::make_shared<sim::AdversarialDelayScheduler>(
               std::vector<sim::Round>{1, 0, 1, 2, 1})},
          {"semi-synchronous, fairness 2",
           std::make_shared<sim::SemiSynchronousScheduler>(5, 2)},
          {"crash-fault, crashes at r+1",
           std::make_shared<sim::CrashFaultScheduler>(
               std::vector<sim::Round>{1, sim::kNoRound, 2, 3,
                                       sim::kNoRound})},
          // Releases and crashes inside and on the edges of the
          // activation ledger's 64-round blocks.
          {"semi-synchronous, releases and crashes mid-block",
           std::make_shared<SuppressedDelayedCrashingScheduler>(
               std::vector<sim::Round>{3, 0, 70, 1, 129},
               std::vector<sim::Round>{sim::kNoRound, 100, sim::kNoRound, 64,
                                       sim::kNoRound})},
          {"semi-synchronous, releases and crashes on block edges",
           std::make_shared<SuppressedDelayedCrashingScheduler>(
               std::vector<sim::Round>{64, 0, 63, 128, 0},
               std::vector<sim::Round>{sim::kNoRound, 128, 191, sim::kNoRound,
                                       65})},
      };
  for (const auto& [name, adversary] : adversaries) {
    const ScriptedRun skip = run_scripted(g, 5, 131, adversary, false);
    const ScriptedRun naive = run_scripted(g, 5, 131, adversary, true);
    EXPECT_EQ(skip.result.metrics.trace_hash, naive.result.metrics.trace_hash)
        << name;
    EXPECT_EQ(skip.result.metrics.rounds, naive.result.metrics.rounds) << name;
    EXPECT_EQ(skip.positions, naive.positions) << name;
    EXPECT_EQ(skip.moves, naive.moves) << name;
    EXPECT_EQ(skip.result.all_terminated, naive.result.all_terminated) << name;
    EXPECT_EQ(skip.result.false_announcement, naive.result.false_announcement)
        << name;
  }
}

// ---- semi-synchronous: fairness and determinism --------------------------

TEST(SemiSynchronous, FairnessBoundsConsecutiveSuppression) {
  // The robot observes LOCAL time (one tick per activation), so
  // suppression is invisible to it; the adversary's gaps show in the
  // GLOBAL rounds of its actions. A robot that moves every activation
  // leaves one recorded move per activation: consecutive global gaps must
  // never exceed the fairness window, while the local clock it observes
  // must advance by exactly one per activation (the coherent timeline).
  const sim::Round fairness = 4;
  const graph::Graph g = graph::make_ring(6);
  std::vector<sim::Round> seen_local;
  auto walker = [&seen_local](ScriptedRobot&, const sim::RoundView& view) {
    seen_local.push_back(view.round);
    if (view.round >= 200) return sim::Action::terminate();
    return sim::Action::move(0);
  };
  sim::EngineConfig cfg;
  cfg.hard_cap = 2000;
  sim::TraceRecorder recorder;
  cfg.trace_recorder = &recorder;
  cfg.scheduler = std::make_shared<sim::SemiSynchronousScheduler>(5, fairness);
  sim::Engine engine(g, cfg);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, walker), 0);
  const sim::RunResult result = engine.run();
  EXPECT_TRUE(result.all_terminated);
  // Coherent local timeline: view.round is exactly the activation count.
  ASSERT_GE(seen_local.size(), 2u);
  for (std::size_t i = 0; i < seen_local.size(); ++i) {
    EXPECT_EQ(seen_local[i], i) << "local clock skipped or repeated";
  }
  // Global fairness: the adversary suppressed, but never for a whole
  // fairness window.
  std::vector<sim::Round> move_rounds;
  for (const sim::TraceRound& round :
       sim::decode_trace(recorder.bytes()).rounds) {
    EXPECT_TRUE(round.carried.empty());  // a lone robot follows no one
    if (!round.moves.empty()) move_rounds.push_back(round.round);
  }
  ASSERT_GE(move_rounds.size(), 2u);
  bool suppressed_at_least_once = move_rounds.front() > 0;
  for (std::size_t i = 1; i < move_rounds.size(); ++i) {
    const sim::Round gap = move_rounds[i] - move_rounds[i - 1];
    EXPECT_LE(gap, fairness) << "gap at activation " << i;
    suppressed_at_least_once |= gap > 1;
  }
  EXPECT_TRUE(suppressed_at_least_once)
      << "adversary never suppressed anything — not semi-synchronous";
  // The round counter is global: the run must span more rounds than the
  // robot experienced activations.
  EXPECT_GT(result.metrics.rounds, 200u);
}

TEST(SemiSynchronous, FairnessOneIsSynchronous) {
  const graph::Graph g = graph::make_random_connected(12, 18, 1);
  const auto sync = run_scripted(
      g, 4, 90, std::make_shared<sim::SynchronousScheduler>(), false);
  const auto ssync = run_scripted(
      g, 4, 90, std::make_shared<sim::SemiSynchronousScheduler>(99, 1),
      false);
  EXPECT_EQ(sync.result.metrics.trace_hash, ssync.result.metrics.trace_hash);
  EXPECT_EQ(sync.result.metrics.rounds, ssync.result.metrics.rounds);
}

// ---- the SSYNC referee suite: activation-count local clocks ---------------

/// A suppressing-class scheduler that never actually suppresses: the
/// engine runs the full local-clock machinery (lazy activation counting,
/// conservative wake translation) but every round is activated, so local
/// time must coincide with global time and the whole run must be
/// bit-identical to the synchronous scheduler.
class AlwaysActivateScheduler final : public sim::Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "always-activate";
  }
  [[nodiscard]] bool activates(sim::Round, std::uint32_t,
                               sim::RobotId) const override {
    return true;
  }
  [[nodiscard]] sim::Round fairness_bound() const override { return 3; }
  [[nodiscard]] bool adversarial() const override { return false; }
};

core::RunOutcome run_paper_algorithm(
    const graph::Graph& g, const graph::Placement& placement,
    std::shared_ptr<const sim::Scheduler> scheduler, sim::Round fairness,
    bool naive = false) {
  core::RunSpec spec;
  spec.config = core::make_config(g, uxs::make_covering_sequence(g, 3));
  spec.config.fairness = fairness;
  spec.naive_engine = naive;
  spec.scheduler = std::move(scheduler);
  return core::run_gathering(g, placement, spec);
}

TEST(SemiSynchronous, AlwaysActivateIsTraceIdenticalToSynchronous) {
  // The tentpole's translation referee: with activates() ≡ true the
  // local-clock machinery (RoundView::round from activation counts, Stay
  // deadlines translated through conservative wakes) must reproduce the
  // synchronous run of the full paper algorithm bit for bit.
  const graph::Graph g = graph::make_torus(3, 4);
  const auto nodes = graph::nodes_undispersed_random(g, 4, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(4));
  const core::RunOutcome sync = run_paper_algorithm(
      g, placement, std::make_shared<sim::SynchronousScheduler>(), 1);
  const core::RunOutcome ssync = run_paper_algorithm(
      g, placement, std::make_shared<AlwaysActivateScheduler>(), 1);
  EXPECT_EQ(sync.result.metrics.trace_hash, ssync.result.metrics.trace_hash);
  EXPECT_EQ(sync.result.metrics.rounds, ssync.result.metrics.rounds);
  EXPECT_EQ(sync.result.metrics.total_moves, ssync.result.metrics.total_moves);
  EXPECT_TRUE(ssync.result.detection_correct);
}

TEST(SemiSynchronous, SkipAndNaiveAgreeOnPaperAlgorithmUnderSuppression) {
  // Event-driven skipping under real suppression: the conservative-wake/
  // re-check machinery and the standing-follow carry pass must leave the
  // full Faster-Gathering run trace-identical to naive stepping, which
  // polls every activated robot every round.
  const graph::Graph g = graph::make_torus(3, 4);
  const auto nodes = graph::nodes_undispersed_random(g, 4, 5);
  const auto placement =
      graph::make_placement(nodes, graph::labels_sequential(4));
  for (const sim::Round fairness : {2ull, 3ull, 5ull}) {
    const auto sched =
        std::make_shared<sim::SemiSynchronousScheduler>(17, fairness);
    const core::RunOutcome skip =
        run_paper_algorithm(g, placement, sched, fairness);
    const core::RunOutcome naive =
        run_paper_algorithm(g, placement, sched, fairness, /*naive=*/true);
    EXPECT_EQ(skip.result.metrics.trace_hash, naive.result.metrics.trace_hash)
        << "fairness " << fairness;
    EXPECT_EQ(skip.result.metrics.rounds, naive.result.metrics.rounds)
        << "fairness " << fairness;
    EXPECT_TRUE(skip.result.gathered_at_end) << "fairness " << fairness;
    EXPECT_TRUE(skip.result.all_terminated) << "fairness " << fairness;
    EXPECT_FALSE(skip.result.false_announcement) << "fairness " << fairness;
  }
}

TEST(SemiSynchronous, PaperAlgorithmsGatherAcrossAllFamilies) {
  // The acceptance sweep: every registered graph family × every paper
  // algorithm gathers under semi-synchronous suppression with zero
  // protocol violations. tolerate_protocol_violations stays OFF — any
  // ProtocolViolation aborts the sweep (and fails the test) instead of
  // being recorded.
  scenario::SweepSpec sweep;
  sweep.base.n = 10;
  sweep.base.k = 3;
  sweep.base.placement = "undispersed";
  sweep.base.scheduler = "semi-synchronous";
  sweep.base.scheduler_params.set("fairness", "3");
  sweep.base.seed = 7;
  for (const std::string& family : scenario::graph_families().list()) {
    if (family == "file") continue;
    sweep.families.push_back(family);
  }
  EXPECT_EQ(sweep.families.size(), 19u);  // 16 materialized + 3 implicit
  sweep.algorithms = scenario::algorithms().list();
  sweep.skip_infeasible = true;  // hypercube realizes n=8 etc.
  scenario::Caches caches;
  const std::vector<scenario::SweepRow> rows =
      scenario::SweepRunner::run(sweep, caches);
  ASSERT_GE(rows.size(), 3 * 15u);
  for (const scenario::SweepRow& row : rows) {
    const std::string name = row.spec.family + "/" + row.spec.algorithm;
    EXPECT_FALSE(row.protocol_violation) << name;
    EXPECT_TRUE(row.outcome.result.gathered_at_end) << name;
    EXPECT_TRUE(row.outcome.result.all_terminated) << name;
    EXPECT_FALSE(row.outcome.result.false_announcement) << name;
    EXPECT_FALSE(row.outcome.result.hit_round_cap) << name;
  }
}

TEST(SemiSynchronous, CapLimitedRunCannotFalselyReportNonTermination) {
  // extend_cap must provably cover worst-case suppression: a derived
  // (schedule-tight) cap, stretched only by the scheduler, must never
  // make an algorithm that gathers under synchrony look non-terminating
  // under SSYNC. Unit part: the bound is cap × fairness + slack.
  sim::SemiSynchronousScheduler sched(5, 4);
  EXPECT_GE(sched.extend_cap(1000), 4000u + 4u);
  // End-to-end part: derived caps only (RunSpec.hard_cap = 0).
  scenario::ScenarioSpec spec;
  spec.family = "ring";
  spec.n = 8;
  spec.k = 3;
  spec.placement = "undispersed";
  spec.scheduler = "semi-synchronous";
  spec.scheduler_params.set("fairness", "4");
  for (const std::uint64_t seed : {1ull, 9ull}) {
    spec.seed = seed;
    const core::RunOutcome out = scenario::run_scenario(spec);
    EXPECT_FALSE(out.result.hit_round_cap) << "seed " << seed;
    EXPECT_TRUE(out.result.all_terminated) << "seed " << seed;
    EXPECT_TRUE(out.result.gathered_at_end) << "seed " << seed;
  }
}

// ---- activation ledger: activation_words --------------------------------

/// Forwards only activates() (and the policy the engine needs to treat it
/// as suppressing), so activation_words() is the base class's loop over
/// activates().
class ActivatesOnlyScheduler final : public sim::Scheduler {
 public:
  explicit ActivatesOnlyScheduler(std::shared_ptr<const sim::Scheduler> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] bool activates(sim::Round r, std::uint32_t slot,
                               sim::RobotId id) const override {
    return inner_->activates(r, slot, id);
  }
  [[nodiscard]] sim::Round fairness_bound() const override {
    return inner_->fairness_bound();
  }
  [[nodiscard]] sim::Round extend_cap(sim::Round cap) const override {
    return inner_->extend_cap(cap);
  }
  [[nodiscard]] bool adversarial() const override {
    return inner_->adversarial();
  }

 private:
  std::shared_ptr<const sim::Scheduler> inner_;
};

TEST(ActivationWords, EveryBitEqualsActivates) {
  // Bit j of each word must be exactly activates(64·block + j, ...), for
  // the semi-synchronous override and for the base-class default, on
  // blocks at the start, around 2^32 and 2^63, and the last block (whose
  // final round is kNoRound); fairness bounds below, at and above the
  // word width; one-slot, multi-slot (out of slot order) and empty calls.
  constexpr sim::Round kTwo32Block = (sim::Round{1} << 32) / 64;
  constexpr sim::Round kTwo63Block = (sim::Round{1} << 63) / 64;
  const sim::Round blocks[] = {0,           1,           kTwo32Block - 1,
                               kTwo32Block, kTwo63Block - 1, kTwo63Block,
                               sim::kNoRound / 64};
  const std::vector<std::uint32_t> slots = {2, 0, 3, 1};
  const std::vector<sim::RobotId> ids = {3, 1, 4, 2};
  for (const sim::Round fairness :
       {1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 63ull, 64ull, 65ull, 100ull}) {
    for (const std::uint64_t seed : {1ull, 17ull}) {
      const auto direct =
          std::make_shared<sim::SemiSynchronousScheduler>(seed, fairness);
      const ActivatesOnlyScheduler looped(direct);
      for (const sim::Scheduler* sched :
           {static_cast<const sim::Scheduler*>(direct.get()),
            static_cast<const sim::Scheduler*>(&looped)}) {
        const std::string who =
            sched == direct.get() ? "override" : "default";
        for (const sim::Round block : blocks) {
          const std::string where = who + " fairness " +
                                    std::to_string(fairness) + " seed " +
                                    std::to_string(seed) + " block " +
                                    std::to_string(block);
          std::vector<std::uint64_t> words(slots.size(), 0);
          sched->activation_words(block, slots, ids, words);
          for (std::size_t i = 0; i < slots.size(); ++i) {
            std::uint64_t one = 0;
            sched->activation_words(block, {&slots[i], 1}, {&ids[i], 1},
                                    {&one, 1});
            EXPECT_EQ(one, words[i]) << where << " slot " << slots[i];
            for (sim::Round j = 0; j < 64; ++j) {
              const bool expected =
                  direct->activates(64 * block + j, slots[i], ids[i]);
              EXPECT_EQ(((words[i] >> j) & 1) != 0, expected)
                  << where << " slot " << slots[i] << " bit " << j;
            }
          }
          sched->activation_words(block, {}, {}, {});
        }
      }
    }
  }
}

/// "" when the two runs are identical field for field, else the first
/// field that differs.
std::string first_result_difference(const sim::RunResult& a,
                                    const sim::RunResult& b) {
  const sim::RunMetrics& x = a.metrics;
  const sim::RunMetrics& y = b.metrics;
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
  if (a.all_terminated != b.all_terminated) return "all_terminated";
  if (a.hit_round_cap != b.hit_round_cap) return "hit_round_cap";
  if (a.gathered_at_end != b.gathered_at_end) return "gathered_at_end";
  if (a.detection_correct != b.detection_correct) return "detection_correct";
  if (a.false_announcement != b.false_announcement) return "false_announcement";
  if (a.gather_node != b.gather_node) return "gather_node";
  return "";
}

TEST(ActivationWords, OverrideAndDefaultLoopRunIdentically) {
  // Differential referee: the same semi-synchronous policy, once with
  // its activation_words override and once through a wrapper whose words
  // come from the base class's activates() loop, over every materialized
  // family, four fairness bounds, and both stepping modes. A thrown
  // violation is an outcome too and must match by message.
  struct Case {
    std::string family;
    sim::Round fairness;
    bool naive;
  };
  std::vector<Case> cases;
  for (const std::string& family : scenario::graph_families().list()) {
    if (family == "file" || family.rfind("implicit-", 0) == 0) continue;
    for (const sim::Round fairness : {2ull, 3ull, 4ull, 5ull}) {
      for (const bool naive : {false, true}) {
        cases.push_back({family, fairness, naive});
      }
    }
  }
  ASSERT_EQ(cases.size(), 16u * 4u * 2u);
  const auto run = [](core::RunSpec spec,
                      const scenario::ResolvedScenario& resolved) {
    try {
      return std::make_pair(
          core::run_gathering(*resolved.graph, resolved.placement, spec)
              .result,
          std::string());
    } catch (const std::exception& e) {
      return std::make_pair(sim::RunResult{}, std::string(e.what()));
    }
  };
  std::vector<std::string> failures(cases.size());
  support::parallel_for_index(
      cases.size(), support::default_thread_count(), [&](std::size_t i) {
        const Case& c = cases[i];
        scenario::ScenarioSpec spec;
        spec.family = c.family;
        spec.n = 8;
        spec.k = 3;
        spec.placement = "undispersed";
        spec.scheduler = "semi-synchronous";
        spec.scheduler_params.set("fairness", std::to_string(c.fairness));
        spec.seed = 7;
        const scenario::ResolvedScenario resolved = scenario::resolve(spec);
        core::RunSpec direct = resolved.run_spec;
        direct.naive_engine = c.naive;
        core::RunSpec looped = direct;
        looped.scheduler =
            std::make_shared<ActivatesOnlyScheduler>(direct.scheduler);
        const auto [a, a_error] = run(direct, resolved);
        const auto [b, b_error] = run(looped, resolved);
        const std::string name = c.family + " fairness " +
                                 std::to_string(c.fairness) +
                                 (c.naive ? " naive" : " skip");
        if (a_error != b_error) {
          failures[i] = name + ": violations differ: '" + a_error + "' vs '" +
                        b_error + "'";
        } else if (const std::string field = first_result_difference(a, b);
                   !field.empty()) {
          failures[i] = name + ": " + field + " differs";
        }
      });
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

/// Counts the engine's scheduler traffic: per-round activates() calls,
/// activation words requested, and (slot, block) requests made twice.
class CountingScheduler final : public sim::Scheduler {
 public:
  explicit CountingScheduler(sim::Round fairness) : inner_(5, fairness) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  [[nodiscard]] bool activates(sim::Round r, std::uint32_t slot,
                               sim::RobotId id) const override {
    ++activates_calls;
    return inner_.activates(r, slot, id);
  }
  void activation_words(sim::Round block, std::span<const std::uint32_t> slots,
                        std::span<const sim::RobotId> ids,
                        std::span<std::uint64_t> out) const override {
    words += slots.size();
    for (const std::uint32_t slot : slots) {
      if (!requested_.emplace(slot, block).second) ++repeats;
    }
    inner_.activation_words(block, slots, ids, out);
  }
  [[nodiscard]] sim::Round fairness_bound() const override {
    return inner_.fairness_bound();
  }

  // Single-threaded test use only.
  mutable std::uint64_t activates_calls = 0;
  mutable std::uint64_t words = 0;
  mutable std::uint64_t repeats = 0;

 private:
  mutable std::set<std::pair<std::uint32_t, sim::Round>> requested_;
  sim::SemiSynchronousScheduler inner_;
};

TEST(ActivationWords, ClockCatchUpIsLinearInPopsNotElapsedRounds) {
  // Complexity gate: sleepers that Stay 10000 local rounds at a time
  // under fairness 4. Skip mode reads every clock and activation off the
  // ledger: no activates() call at all, no (slot, block) requested
  // twice, and at most one word per slot per 64 elapsed rounds.
  constexpr sim::Round kFairness = 4;
  constexpr std::size_t kSleepers = 3;
  class Sleeper final : public sim::Robot {
   public:
    using sim::Robot::Robot;
    sim::Action on_round(const sim::RoundView& view) override {
      if (view.round >= 50000) return sim::Action::terminate();
      return sim::Action::stay_until_round(view.round + 10000);
    }
  };
  const auto sched = std::make_shared<CountingScheduler>(kFairness);
  sim::EngineConfig cfg;
  cfg.hard_cap = 1'000'000;
  cfg.scheduler = sched;
  const graph::Graph g = graph::make_ring(6);
  sim::Engine engine(g, cfg);
  for (std::size_t i = 0; i < kSleepers; ++i) {
    engine.add_robot(std::make_unique<Sleeper>(i + 1),
                     static_cast<graph::NodeId>(2 * i));
  }
  const sim::RunResult result = engine.run();
  ASSERT_TRUE(result.all_terminated);
  EXPECT_GT(result.metrics.rounds, 50000u);
  EXPECT_EQ(sched->activates_calls, 0u);
  EXPECT_EQ(sched->repeats, 0u);
  EXPECT_GT(sched->words, 0u);
  EXPECT_LE(sched->words, kSleepers * (result.metrics.rounds / 64 + 1));
}

// ---- crash-fault: freezing and detection soundness -----------------------

TEST(CrashFault, CrashedRobotFreezesAndNeverTerminates) {
  // Two walkers on a ring; robot 2 crashes at round 10. It must stop
  // moving there and then, keep occupying its node, and the run must end
  // with it un-terminated (all_terminated false) — not deadlock.
  const graph::Graph g = graph::make_ring(8);
  auto walker = [](ScriptedRobot&, const sim::RoundView& view) {
    if (view.round >= 50) return sim::Action::terminate();
    return sim::Action::move(0);
  };
  sim::EngineConfig cfg;
  cfg.hard_cap = 200;
  cfg.scheduler = std::make_shared<sim::CrashFaultScheduler>(
      std::vector<sim::Round>{sim::kNoRound, 10});
  sim::Engine engine(g, cfg);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, walker), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, walker), 4);
  const sim::RunResult result = engine.run();
  EXPECT_FALSE(result.all_terminated);
  EXPECT_FALSE(result.detection_correct);
  EXPECT_FALSE(result.hit_round_cap);
  // 10 moves in rounds 0..9, frozen afterwards; the survivor ran its
  // full 50-move program.
  EXPECT_EQ(result.metrics.moves_per_robot[1], 10u);
  EXPECT_EQ(result.metrics.moves_per_robot[0], 50u);
}

TEST(CrashFault, AnnouncementAwayFromCrashedRobotIsFlagged) {
  // Robot 1 terminates at its node while robot 2 (crashed at round 0)
  // sits elsewhere: a false announcement the engine must record.
  const graph::Graph g = graph::make_path(4);
  auto announcer = [](ScriptedRobot&, const sim::RoundView& view) {
    if (view.round >= 2) return sim::Action::terminate();
    return sim::Action::stay_one(view.round);
  };
  sim::EngineConfig cfg;
  cfg.hard_cap = 100;
  cfg.scheduler = std::make_shared<sim::CrashFaultScheduler>(
      std::vector<sim::Round>{sim::kNoRound, 0});
  sim::Engine engine(g, cfg);
  engine.add_robot(std::make_unique<ScriptedRobot>(1, announcer), 0);
  engine.add_robot(std::make_unique<ScriptedRobot>(2, announcer), 3);
  const sim::RunResult result = engine.run();
  EXPECT_TRUE(result.false_announcement);
  EXPECT_FALSE(result.detection_correct);
  EXPECT_FALSE(result.all_terminated);
}

TEST(CrashFault, CrashAtReleaseRoundStaysInitAndOccupiesItsNode) {
  // A robot whose crash round equals its release round is crashed before
  // its first activation: it must never be activated (no moves, no local
  // time), keep broadcasting Init from its start node, and still count
  // for the ground-truth gathering predicate — so a survivor terminating
  // elsewhere is a recorded false announcement.
  const graph::Graph g = graph::make_path(4);
  auto walker = [](ScriptedRobot&, const sim::RoundView& view) {
    if (view.round >= 2) return sim::Action::terminate();
    return sim::Action::move(view.round == 0 ? 0 : 1);
  };
  sim::EngineConfig cfg;
  cfg.hard_cap = 100;
  cfg.scheduler = std::make_shared<sim::CrashFaultScheduler>(
      std::vector<sim::Round>{sim::kNoRound, 0});
  sim::Engine engine(g, cfg);
  auto crashed = std::make_unique<ScriptedRobot>(2, walker);
  const ScriptedRobot* crashed_view = crashed.get();
  engine.add_robot(std::make_unique<ScriptedRobot>(1, walker), 0);
  engine.add_robot(std::move(crashed), 3);
  const sim::RunResult result = engine.run();
  EXPECT_EQ(crashed_view->public_state().tag, sim::StateTag::Init);
  EXPECT_EQ(engine.position_of(2), 3u);
  EXPECT_EQ(result.metrics.moves_per_robot[1], 0u);
  EXPECT_FALSE(result.all_terminated);
  EXPECT_TRUE(result.false_announcement);
  EXPECT_FALSE(result.detection_correct);
}

TEST(CrashFault, CrashAtDelayedReleaseRoundNeverActivates) {
  // Same edge with a nonzero release: crash_round == release_round > 0
  // means the dormant robot dies the instant it would have started.
  class ReleaseCrashScheduler final : public sim::Scheduler {
   public:
    [[nodiscard]] std::string_view name() const override {
      return "release-crash";
    }
    [[nodiscard]] sim::Round release_round(std::uint32_t slot,
                                           sim::RobotId) const override {
      return slot == 1 ? 3 : 0;
    }
    [[nodiscard]] sim::Round crash_round(std::uint32_t slot,
                                         sim::RobotId) const override {
      return slot == 1 ? 3 : sim::kNoRound;
    }
  };
  const graph::Graph g = graph::make_path(4);
  auto walker = [](ScriptedRobot&, const sim::RoundView& view) {
    if (view.round >= 6) return sim::Action::terminate();
    return sim::Action::stay_one(view.round);
  };
  for (const bool naive : {false, true}) {
    sim::EngineConfig cfg;
    cfg.hard_cap = 100;
    cfg.naive_stepping = naive;
    cfg.scheduler = std::make_shared<ReleaseCrashScheduler>();
    sim::Engine engine(g, cfg);
    auto crashed = std::make_unique<ScriptedRobot>(2, walker);
    const ScriptedRobot* crashed_view = crashed.get();
    engine.add_robot(std::make_unique<ScriptedRobot>(1, walker), 0);
    engine.add_robot(std::move(crashed), 3);
    const sim::RunResult result = engine.run();
    EXPECT_EQ(crashed_view->public_state().tag, sim::StateTag::Init)
        << "naive=" << naive;
    EXPECT_EQ(result.metrics.moves_per_robot[1], 0u) << "naive=" << naive;
    EXPECT_FALSE(result.all_terminated) << "naive=" << naive;
    EXPECT_TRUE(result.false_announcement) << "naive=" << naive;
  }
}

TEST(CrashFault, EarlyCrashStopsFasterGatheringFromTerminating) {
  // The full algorithm under a round-0 crash: survivors may or may not
  // assemble, but the run must never report complete detection, because
  // the crashed robot cannot announce.
  scenario::ScenarioSpec spec;
  spec.family = "torus";
  spec.n = 12;
  spec.k = 4;
  spec.scheduler = "crash-fault";
  spec.scheduler_params.set("crashes", "1");
  spec.scheduler_params.set("window", "0");
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    spec.seed = seed;
    try {
      const core::RunOutcome out = scenario::run_scenario(spec);
      EXPECT_FALSE(out.result.all_terminated) << "seed " << seed;
      EXPECT_FALSE(out.result.detection_correct) << "seed " << seed;
    } catch (const ContractViolation&) {
      // Acceptable: the protocol's invariants assume fault-free peers.
    }
  }
}

// ---- registry / scenario integration -------------------------------------

TEST(SchedulerRegistry, EverySchedulerResolvesAndRuns) {
  for (const std::string& name : scenario::schedulers().list()) {
    scenario::ScenarioSpec spec;
    spec.family = "ring";
    spec.n = 8;
    spec.k = 3;
    spec.placement = "one-node";
    spec.scheduler = name;
    try {
      const core::RunOutcome out = scenario::run_scenario(spec);
      // Whatever the adversary did, the engine must never claim correct
      // detection while also recording a false announcement.
      EXPECT_FALSE(out.result.detection_correct &&
                   out.result.false_announcement)
          << name;
    } catch (const ContractViolation&) {
      // Adversarial schedules may break protocol invariants; that is a
      // visible failure, not a silent wrong answer.
    }
  }
}

TEST(SchedulerRegistry, DegenerateParameterizationsAreNotAdversarial) {
  // Harnesses key violation tolerance on adversarial(): a scheduler
  // that cannot perturb the run must never swallow a ContractViolation.
  EXPECT_FALSE(sim::SynchronousScheduler().adversarial());
  EXPECT_FALSE(
      sim::AdversarialDelayScheduler(std::vector<sim::Round>{0, 0, 0})
          .adversarial());
  EXPECT_TRUE(
      sim::AdversarialDelayScheduler(std::vector<sim::Round>{0, 4, 0})
          .adversarial());
  EXPECT_FALSE(sim::SemiSynchronousScheduler(7, 1).adversarial());
  EXPECT_TRUE(sim::SemiSynchronousScheduler(7, 2).adversarial());
  EXPECT_FALSE(sim::CrashFaultScheduler(
                   std::vector<sim::Round>{sim::kNoRound, sim::kNoRound})
                   .adversarial());
  EXPECT_TRUE(
      sim::CrashFaultScheduler(std::vector<sim::Round>{sim::kNoRound, 5})
          .adversarial());
  EXPECT_FALSE(sim::CrashFaultScheduler(9, /*crashes=*/0, /*window=*/64,
                                        /*k=*/3)
                   .adversarial());
}

TEST(SchedulerRegistry, UnknownNamesAndParamsAreSuggested) {
  scenario::ScenarioSpec spec;
  spec.family = "ring";
  spec.n = 8;
  spec.k = 2;
  spec.scheduler = "synchronos";
  try {
    (void)scenario::resolve(spec);
    FAIL() << "expected ScenarioError";
  } catch (const scenario::ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("synchronous"), std::string::npos)
        << e.what();
  }
  spec.scheduler = "crash-fault";
  spec.scheduler_params.set("crashs", "1");
  try {
    (void)scenario::resolve(spec);
    FAIL() << "expected ScenarioError";
  } catch (const scenario::ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("crashes"), std::string::npos)
        << e.what();
  }
}

// ---- 4. every family × every adversary -----------------------------------

TEST(SchedulerProperty, DetectionStaysSoundAcrossFamiliesAndAdversaries) {
  // The tentpole property: for every registered graph family and every
  // adversary, Faster-Gathering either detects correctly, or fails
  // *visibly* (cap, missing terminations, detection_correct false, or a
  // protocol violation) — it never claims success on a broken run, and
  // under the synchronous adversary it must fully succeed. Small
  // instances, explicit cap, parallel execution.
  struct Adversary {
    const char* name;
    const char* params;  // "key=value,..." or ""
  };
  const Adversary adversaries[] = {
      {"synchronous", ""},
      {"adversarial-delay", "max-delay=6"},
      {"semi-synchronous", "fairness=3"},
      {"crash-fault", "crashes=1,window=6"},
  };
  std::vector<scenario::ScenarioSpec> specs;
  for (const std::string& family : scenario::graph_families().list()) {
    if (family == "file") continue;
    for (const Adversary& adversary : adversaries) {
      scenario::ScenarioSpec spec;
      spec.family = family;
      spec.n = 10;
      spec.k = 3;
      spec.placement = "undispersed";
      spec.scheduler = adversary.name;
      spec.scheduler_params = scenario::Params::parse(adversary.params);
      spec.seed = 7;
      specs.push_back(std::move(spec));
    }
  }
  std::vector<std::string> failures(specs.size());
  support::parallel_for_index(
      specs.size(), support::default_thread_count(), [&](std::size_t i) {
        const scenario::ScenarioSpec& spec = specs[i];
        const std::string name = spec.family + "/" + spec.scheduler;
        try {
          const core::RunOutcome out = scenario::run_scenario(spec);
          const sim::RunResult& result = out.result;
          if (result.detection_correct && result.false_announcement) {
            failures[i] = name + ": detection claimed with false announcement";
          }
          if (spec.scheduler == "synchronous" &&
              (!result.detection_correct || result.false_announcement)) {
            failures[i] = name + ": synchronous run must detect correctly";
          }
          if (spec.scheduler == "semi-synchronous" &&
              (!result.gathered_at_end || !result.all_terminated ||
               result.false_announcement)) {
            // Activation-count clocks make the algorithms SSYNC-tolerant:
            // from an undispersed start the run must gather and
            // terminate, never falsely announce.
            failures[i] = name + ": semi-synchronous run must gather";
          }
          if (spec.scheduler == "crash-fault" && result.all_terminated) {
            failures[i] = name + ": a crashed robot cannot terminate";
          }
        } catch (const ContractViolation&) {
          // Visible failure under an adversary: acceptable for the
          // misaligning/fault adversaries, a bug under synchronous (no
          // adversary) and semi-synchronous (the local clocks exist
          // exactly so suppression cannot break the protocol).
          if (spec.scheduler == "synchronous" ||
              spec.scheduler == "semi-synchronous") {
            failures[i] = name + ": contract violation under " + spec.scheduler;
          }
        }
      });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(failures[i].empty()) << failures[i];
  }
}

// ---- sweep integration ----------------------------------------------------

TEST(SchedulerSweep, GridsOverAdversariesDeterministically) {
  scenario::SweepSpec sweep;
  sweep.base.family = "ring";
  sweep.base.n = 8;
  sweep.base.k = 3;
  sweep.base.placement = "undispersed";
  sweep.base.seed = 4;
  sweep.schedulers = scenario::schedulers().list();
  sweep.tolerate_protocol_violations = true;
  sweep.threads = 4;
  scenario::Caches caches;
  const std::vector<scenario::SweepRow> rows =
      scenario::SweepRunner::run(sweep, caches);
  ASSERT_EQ(rows.size(), scenario::schedulers().list().size());
  bool saw_synchronous_success = false;
  for (const scenario::SweepRow& row : rows) {
    if (row.spec.scheduler == "synchronous") {
      EXPECT_TRUE(row.outcome.result.detection_correct);
      EXPECT_FALSE(row.protocol_violation);
      saw_synchronous_success = true;
    }
  }
  EXPECT_TRUE(saw_synchronous_success);

  std::ostringstream a, b;
  scenario::SweepRunner::write_csv(a, rows);
  sweep.threads = 1;
  scenario::SweepRunner::write_csv(b,
                                   scenario::SweepRunner::run(sweep, caches));
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("scheduler,"), std::string::npos);
  EXPECT_NE(a.str().find("crash-fault"), std::string::npos);
}

}  // namespace
}  // namespace gather
