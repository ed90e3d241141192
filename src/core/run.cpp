#include "core/run.hpp"

#include <memory>
#include <vector>

#include "core/robots.hpp"
#include "sim/trace.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace gather::core {

AlgorithmConfig make_config(const graph::Topology& g, uxs::SequencePtr sequence) {
  AlgorithmConfig config;
  config.n = g.num_nodes();
  config.sequence = std::move(sequence);
  return config;
}

std::string to_string(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::FasterGathering: return "Faster-Gathering";
    case AlgorithmKind::UndispersedOnly: return "Undispersed-Gathering";
    case AlgorithmKind::UxsOnly: return "UXS-Gathering";
  }
  return "?";
}

std::string stage_label(int gathered_stage_hop) {
  if (gathered_stage_hop < 0) return "none";
  return "hop-" + std::to_string(gathered_stage_hop);
}

RunOutcome run_gathering(const graph::Topology& g,
                         const graph::Placement& placement,
                         const RunSpec& spec) {
  GATHER_EXPECTS(!placement.empty());
  GATHER_EXPECTS(spec.config.n == g.num_nodes());
  const std::uint64_t max_label =
      support::sat_pow(spec.config.n, spec.config.id_exponent_b);
  for (const graph::RobotStart& r : placement) {
    GATHER_EXPECTS(r.label >= 1 && r.label <= max_label);
  }

  // Derive the hard cap from the algorithm's own worst-case schedule.
  sim::Round cap = spec.hard_cap;
  std::optional<Schedule> sched;
  if (spec.algorithm == AlgorithmKind::FasterGathering) {
    sched = Schedule::make(spec.config);
    if (cap == 0) cap = sched->hard_cap();
  } else if (spec.algorithm == AlgorithmKind::UndispersedOnly) {
    if (cap == 0) {
      cap = support::sat_add(
          Schedule::ug_total(spec.config.n, spec.config.fairness), 8);
    }
  } else {
    GATHER_EXPECTS(spec.config.sequence != nullptr);
    // Leaders finish by phase maxbits+1; half-phases are fairness-
    // stretched (H = T·stretch); +slack.
    AlgorithmConfig probe = spec.config;
    probe.known_min_pair_distance = 6;  // schedule with only the UXS stage
    sched = Schedule::make(probe);
    if (cap == 0) {
      cap = support::sat_add(
          support::sat_mul(2 * sched->uxs_half_phase(),
                           static_cast<sim::Round>(sched->maxbits()) + 2),
          64);
    }
  }

  // Adversary slack: only a *derived* cap is stretched — an explicit
  // spec.hard_cap is the caller's bound and stays authoritative.
  if (spec.scheduler != nullptr && spec.hard_cap == 0) {
    cap = spec.scheduler->extend_cap(cap);
  }

  sim::EngineConfig engine_config;
  engine_config.hard_cap = cap;
  engine_config.naive_stepping = spec.naive_engine;
  engine_config.trace_recorder = spec.trace_recorder;
  engine_config.scheduler = spec.scheduler;
  engine_config.dense_node_limit = spec.dense_node_limit;
  sim::Engine engine(g, engine_config);

  std::vector<const FasterGatheringRobot*> faster_robots;
  std::vector<const UndispersedGatheringRobot*> ug_robots;
  for (const graph::RobotStart& start : placement) {
    switch (spec.algorithm) {
      case AlgorithmKind::FasterGathering: {
        auto robot =
            std::make_unique<FasterGatheringRobot>(start.label, spec.config);
        faster_robots.push_back(robot.get());
        engine.add_robot(std::move(robot), start.node);
        break;
      }
      case AlgorithmKind::UndispersedOnly: {
        auto robot = std::make_unique<UndispersedGatheringRobot>(
            start.label, spec.config.n, spec.config.fairness);
        ug_robots.push_back(robot.get());
        engine.add_robot(std::move(robot), start.node);
        break;
      }
      case AlgorithmKind::UxsOnly: {
        engine.add_robot(
            std::make_unique<UxsGatheringRobot>(
                start.label, spec.config.sequence, spec.config.fairness),
            start.node);
        break;
      }
    }
  }

  RunOutcome outcome;
  try {
    outcome.result = engine.run();
  } catch (const ProtocolViolation& e) {
    // Seal the trace with the violation as its terminal record — the
    // break IS the measurement under an adversary, and the partial trace
    // is what makes it bisectable. The exception still propagates;
    // tolerance policy lives in the harnesses.
    if (spec.trace_recorder != nullptr) {
      spec.trace_recorder->record_violation(e.what());
    }
    throw;
  }
  if (sched.has_value()) outcome.schedule = *sched;

  for (const auto* robot : faster_robots) {
    outcome.peak_map_bits = std::max(outcome.peak_map_bits,
                                     robot->peak_map_bits());
  }
  for (const auto* robot : ug_robots) {
    outcome.peak_map_bits = std::max(outcome.peak_map_bits, robot->map_bits());
  }

  // Attribute the gathering round to a schedule stage. Stage boundaries
  // are robot-local; first_gathered is global. They coincide under every
  // non-suppressing scheduler; under suppression (fairness > 1) global
  // time runs ahead of every local clock, so the attribution is an
  // upper bound on the resolving stage — fine for the regime tables,
  // which only run it synchronously.
  if (sched.has_value() &&
      outcome.result.metrics.first_gathered != sim::kNoRound) {
    const sim::Round when = outcome.result.metrics.first_gathered;
    const auto& stages = sched->stages();
    for (std::size_t i = 0; i < stages.size(); ++i) {
      if (when >= stages[i].start &&
          when < support::sat_add(stages[i].start, stages[i].duration)) {
        outcome.gathered_stage = static_cast<int>(i);
        outcome.gathered_stage_hop =
            stages[i].kind == StageKind::UxsGathering
                ? 6
                : static_cast<int>(stages[i].hop);
        break;
      }
    }
  }
  return outcome;
}

}  // namespace gather::core
