// E-ENG — infrastructure microbenchmarks (google-benchmark): engine
// round throughput, the cost of follow-chain resolution, and the
// effectiveness of event-driven skipping — what makes the Õ(n^5)
// schedules simulable on a laptop.
//
// `--json=<path>` additionally writes the stable-schema BENCH_*.json
// perf record (see bench_common.hpp): one row per benchmark, with
// `rounds` = measured iterations and `wall_ms` = per-iteration real
// time. The committed BENCH_engine.json tracks this binary across PRs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <sstream>

#include "baselines/random_walk.hpp"
#include "bench_common.hpp"
#include "core/run.hpp"
#include "graph/generators.hpp"
#include "graph/implicit.hpp"
#include "graph/placement.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "uxs/uxs.hpp"

namespace gather {
namespace {

/// Robots that walk forever — pure engine-movement throughput.
class Ping final : public sim::Robot {
 public:
  using sim::Robot::Robot;
  sim::Action on_round(const sim::RoundView& view) override {
    const auto port = static_cast<sim::Port>(view.round % view.degree);
    return sim::Action::move(port);
  }
};

void BM_EngineMovementThroughput(benchmark::State& state) {
  const auto robots = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::make_torus(8, 8);
  for (auto _ : state) {
    sim::EngineConfig cfg;
    cfg.hard_cap = 2000;
    sim::Engine engine(g, cfg);
    for (std::size_t i = 0; i < robots; ++i) {
      engine.add_robot(std::make_unique<Ping>(static_cast<sim::RobotId>(i + 1)),
                       static_cast<graph::NodeId>(i % g.num_nodes()));
    }
    const auto result = engine.run();
    benchmark::DoNotOptimize(result.metrics.total_moves);
  }
  state.SetItemsProcessed(state.iterations() * 2000 *
                          static_cast<std::int64_t>(robots));
}
BENCHMARK(BM_EngineMovementThroughput)->Arg(4)->Arg(16)->Arg(64);

void BM_EngineMovementThroughput_ImplicitSwarm(benchmark::State& state) {
  // The scale tier: 10^4–10^5 walking robots on an implicit 1000x1000
  // grid (n = 10^6, O(1) topology memory, sparse node table). The cap
  // is small — the tier measures swarm movement throughput per round,
  // not convergence — and the per-iteration work still dwarfs the
  // engine's setup cost.
  const auto robots = static_cast<std::size_t>(state.range(0));
  const graph::ImplicitGraph g = graph::ImplicitGraph::grid(1000, 1000);
  constexpr sim::Round kRounds = 64;
  for (auto _ : state) {
    sim::EngineConfig cfg;
    cfg.hard_cap = kRounds;
    sim::Engine engine(g, cfg);
    for (std::size_t i = 0; i < robots; ++i) {
      engine.add_robot(std::make_unique<Ping>(static_cast<sim::RobotId>(i + 1)),
                       static_cast<graph::NodeId>(i % g.num_nodes()));
    }
    const auto result = engine.run();
    benchmark::DoNotOptimize(result.metrics.total_moves);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRounds) *
                          static_cast<std::int64_t>(robots));
}
BENCHMARK(BM_EngineMovementThroughput_ImplicitSwarm)
    ->Arg(10'000)
    ->Arg(100'000);

void BM_EngineMovementThroughput_TraceAB(benchmark::State& state) {
  // Interleaved A/B guard for the trace recorder's hot-path contract:
  // arm A runs the BM_EngineMovementThroughput workload with recording
  // DISABLED (null sink — the default), arm B with a TraceRecorder
  // attached, alternating inside every iteration so frequency/thermal
  // drift hits both arms equally. The `disabled_ips` counter is the
  // apples-to-apples number against the committed
  // BM_EngineMovementThroughput baseline (recording off must be within
  // noise of it); `enabled_ips` prices the opt-in sink.
  const auto robots = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::make_torus(8, 8);
  const auto run_arm = [&](sim::TraceRecorder* rec) {
    sim::EngineConfig cfg;
    cfg.hard_cap = 2000;
    cfg.trace_recorder = rec;
    sim::Engine engine(g, cfg);
    for (std::size_t i = 0; i < robots; ++i) {
      engine.add_robot(std::make_unique<Ping>(static_cast<sim::RobotId>(i + 1)),
                       static_cast<graph::NodeId>(i % g.num_nodes()));
    }
    const auto result = engine.run();
    benchmark::DoNotOptimize(result.metrics.total_moves);
  };
  double disabled_s = 0.0;
  double enabled_s = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    run_arm(nullptr);
    const auto t1 = std::chrono::steady_clock::now();
    sim::TraceRecorder recorder;
    run_arm(&recorder);
    const auto t2 = std::chrono::steady_clock::now();
    disabled_s += std::chrono::duration<double>(t1 - t0).count();
    enabled_s += std::chrono::duration<double>(t2 - t1).count();
  }
  const double items =
      static_cast<double>(state.iterations()) * 2000.0 *
      static_cast<double>(robots);
  state.SetItemsProcessed(2 * static_cast<std::int64_t>(items));
  state.counters["disabled_ips"] =
      disabled_s > 0 ? items / disabled_s : 0.0;
  state.counters["enabled_ips"] = enabled_s > 0 ? items / enabled_s : 0.0;
}
BENCHMARK(BM_EngineMovementThroughput_TraceAB)->Arg(4)->Arg(64);

void BM_FollowChainResolution(benchmark::State& state) {
  // One leader walking a ring with a chain of followers behind it.
  const auto chain = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::make_ring(16);
  class Leader final : public sim::Robot {
   public:
    using sim::Robot::Robot;
    sim::Action on_round(const sim::RoundView&) override {
      return sim::Action::move(1);
    }
  };
  class Chained final : public sim::Robot {
   public:
    Chained(sim::RobotId id, sim::RobotId target)
        : sim::Robot(id), target_(target) {}
    sim::Action on_round(const sim::RoundView&) override {
      return sim::Action::follow(target_);
    }

   private:
    sim::RobotId target_;
  };
  for (auto _ : state) {
    sim::EngineConfig cfg;
    cfg.hard_cap = 512;
    sim::Engine engine(g, cfg);
    engine.add_robot(std::make_unique<Leader>(chain + 1), 0);
    for (std::size_t i = chain; i >= 1; --i) {
      engine.add_robot(std::make_unique<Chained>(i, i + 1), 0);
    }
    const auto result = engine.run();
    benchmark::DoNotOptimize(result.metrics.total_moves);
  }
  state.SetItemsProcessed(state.iterations() * 512 *
                          static_cast<std::int64_t>(chain + 1));
}
BENCHMARK(BM_FollowChainResolution)->Arg(2)->Arg(8)->Arg(32);

/// Sleeps 10000 local rounds at a time; terminates at local round 100000.
class Sleeper final : public sim::Robot {
 public:
  using sim::Robot::Robot;
  sim::Action on_round(const sim::RoundView& view) override {
    if (view.round >= 100000) return sim::Action::terminate();
    return sim::Action::stay_until_round(view.round + 10000);
  }
};

void BM_SkipVsNaive_QuietSchedule(benchmark::State& state) {
  // A robot that sleeps in long stretches: skip mode should be ~free.
  // Items are elapsed global rounds.
  const bool naive = state.range(0) != 0;
  const graph::Graph g = graph::make_ring(8);
  std::int64_t rounds = 0;
  for (auto _ : state) {
    sim::EngineConfig cfg;
    cfg.hard_cap = 200000;
    cfg.naive_stepping = naive;
    sim::Engine engine(g, cfg);
    engine.add_robot(std::make_unique<Sleeper>(1), 0);
    const auto result = engine.run();
    rounds += static_cast<std::int64_t>(result.metrics.rounds);
    benchmark::DoNotOptimize(result.metrics.simulated_rounds);
  }
  state.SetItemsProcessed(rounds);
}
BENCHMARK(BM_SkipVsNaive_QuietSchedule)->Arg(0)->Arg(1);

void BM_SemiSyncClockSync(benchmark::State& state) {
  // The same sleepers, one per node, under semi-synchronous fairness 4:
  // each 64-round block the run crosses fetches every live slot's
  // activation word in one Scheduler::activation_words call, and each
  // wake reads its slot's clock off that ledger. Items are slots x
  // elapsed global rounds, the (slot, round) pairs the clocks cover.
  const auto robots = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::make_ring(robots);
  const auto sched = std::make_shared<sim::SemiSynchronousScheduler>(1, 4);
  std::int64_t slot_rounds = 0;
  for (auto _ : state) {
    sim::EngineConfig cfg;
    cfg.hard_cap = sched->extend_cap(200000);
    cfg.scheduler = sched;
    sim::Engine engine(g, cfg);
    for (std::size_t i = 0; i < robots; ++i) {
      engine.add_robot(
          std::make_unique<Sleeper>(static_cast<sim::RobotId>(i + 1)),
          static_cast<graph::NodeId>(i));
    }
    const auto result = engine.run();
    slot_rounds +=
        static_cast<std::int64_t>(robots * (result.metrics.rounds + 1));
    benchmark::DoNotOptimize(result.metrics.trace_hash);
  }
  state.SetItemsProcessed(slot_rounds);
}
BENCHMARK(BM_SemiSyncClockSync)->Arg(4)->Arg(16);

void BM_FullFasterGathering(benchmark::State& state) {
  // End-to-end cost of one Faster-Gathering run (undispersed start).
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::make_ring(n);
  const auto seq = uxs::make_covering_sequence(g, 3);
  const auto nodes = graph::nodes_undispersed_random(g, 4, 5);
  const auto placement = graph::make_placement(
      nodes, graph::labels_random_distinct(4, n, 2, 7));
  std::int64_t rounds = 0;
  for (auto _ : state) {
    core::RunSpec spec;
    spec.algorithm = core::AlgorithmKind::FasterGathering;
    spec.config = core::make_config(g, seq);
    const auto out = core::run_gathering(g, placement, spec);
    rounds += static_cast<std::int64_t>(out.result.metrics.rounds);
    benchmark::DoNotOptimize(out.result.metrics.rounds);
  }
  state.SetItemsProcessed(rounds);  // elapsed global rounds
}
BENCHMARK(BM_FullFasterGathering)->Arg(8)->Arg(16)->Arg(32);

void BM_CrowdedOneNode(benchmark::State& state) {
  // The paper's many-robots regime: k robots start on one node of an
  // implicit 64x64 grid and move as large groups, so every decision
  // reads a view of up to k entries. Items are robot decisions; a
  // per-decision cost that grows with k is a quadratic crowded path.
  scenario::ScenarioSpec spec;
  spec.family = "implicit-grid";
  spec.n = 4096;
  spec.k = static_cast<std::size_t>(state.range(0));
  spec.placement = "one-node";
  spec.sequence = "lazy";
  spec.hard_cap = 20000;
  spec.seed = 1;
  const scenario::ResolvedScenario r = scenario::resolve(spec);
  std::int64_t decisions = 0;
  for (auto _ : state) {
    const auto out = core::run_gathering(*r.graph, r.placement, r.run_spec);
    decisions += static_cast<std::int64_t>(out.result.metrics.decision_calls);
    benchmark::DoNotOptimize(out.result.metrics.trace_hash);
  }
  state.SetItemsProcessed(decisions);
}
BENCHMARK(BM_CrowdedOneNode)->Arg(250)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_DispersedLadder(benchmark::State& state) {
  // The opposite regime: Theorem 16's dispersed start (torus n=136,
  // k=n/2+1) under Faster-Gathering. Most rounds are quiet ladder stages
  // with a few dozen active robots, so the wake machinery (next-round
  // bucket, heap, active-set collection) and the arrival splice are the
  // engine's share. Items are robot moves.
  scenario::ScenarioSpec spec;
  spec.family = "torus";
  spec.n = 136;
  spec.k = 69;
  spec.placement = "dispersed";
  spec.algorithm = "faster";
  spec.seed = 3;
  const scenario::ResolvedScenario r = scenario::resolve(spec);
  std::int64_t moves = 0;
  for (auto _ : state) {
    const auto out = core::run_gathering(*r.graph, r.placement, r.run_spec);
    moves += static_cast<std::int64_t>(out.result.metrics.total_moves);
    benchmark::DoNotOptimize(out.result.metrics.trace_hash);
  }
  state.SetItemsProcessed(moves);
}
BENCHMARK(BM_DispersedLadder)->Unit(benchmark::kMillisecond);

/// Console reporter that also collects every run into a BenchJson row.
class JsonTeeReporter final : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::BenchJson& json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      // Plain measurement rows only: aggregate rows (_mean/_stddev/... under
      // --benchmark_repetitions) carry statistics, not per-iteration times,
      // and would pollute the stable-schema perf record.
      if (run.run_type != Run::RT_Iteration) continue;
      std::vector<std::pair<std::string, std::string>> params;
      params.emplace_back("benchmark", run.benchmark_name());
      for (const auto& [name, counter] : run.counters) {
        std::ostringstream value;
        value << counter.value;
        params.emplace_back(name, value.str());
      }
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      json_.add_row(std::move(params),
                    static_cast<std::uint64_t>(run.iterations),
                    run.real_accumulated_time / iters * 1e3);
    }
  }

 private:
  bench::BenchJson& json_;
};

}  // namespace
}  // namespace gather

int main(int argc, char** argv) {
  const std::string json_path = gather::bench::extract_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  gather::bench::BenchJson json("engine_throughput");
  gather::JsonTeeReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.write_file(json_path) ? 0 : 1;
}
