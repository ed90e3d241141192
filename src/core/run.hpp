// One-call experiment runner — the library's main entry point.
//
// Builds the engine, instantiates one robot program per placement entry,
// runs to termination, and reports the round count, detection
// correctness, per-stage attribution, and memory metrics that the
// theorems talk about.
//
// Layer contract (umbrella for src/core/): the paper's algorithms —
// §2.1 UXS gathering (Theorem 6), §2.2 Undispersed-Gathering
// (Theorem 8), §2.3 i-Hop-Meeting and the Faster-Gathering step ladder
// (Theorems 12/16) — implemented as sim::Robot programs plus the shared
// schedule. Robot-side code in this layer observes the world only
// through sim::RoundView; it may depend on src/{support,graph,sim,uxs}
// but touches graph/ only for oracle-free types (ports). Harnesses enter
// through run_gathering(). See docs/ARCHITECTURE.md §1–2.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "core/schedule.hpp"
#include "graph/placement.hpp"
#include "sim/engine.hpp"

namespace gather::core {

enum class AlgorithmKind : std::uint8_t {
  FasterGathering,   ///< §2.3 (Theorems 12/16) — the headline algorithm
  UndispersedOnly,   ///< §2.2 (Theorem 8) — requires an undispersed start
  UxsOnly,           ///< §2.1 (Theorem 6) — also the baseline proxy
};

struct RunSpec {
  AlgorithmKind algorithm = AlgorithmKind::FasterGathering;
  AlgorithmConfig config;
  bool naive_engine = false;
  /// 0 = derive from the schedule.
  sim::Round hard_cap = 0;
  /// Opt-in binary trace sink (sim/trace.hpp), non-owning; must outlive
  /// the call. run_gathering feeds it the whole run; if the run is
  /// aborted by a ProtocolViolation, the violation is recorded as the
  /// trace's terminal record before the exception is rethrown, so the
  /// trace stays decodable/replayable either way.
  sim::TraceRecorder* trace_recorder = nullptr;
  /// Scheduling adversary (sim/scheduler.hpp); null = synchronous. A
  /// derived hard cap is stretched by the scheduler's extend_cap() so
  /// delayed/suppressed schedules get the slack they shift into. For a
  /// suppressing scheduler, set config.fairness to its fairness_bound()
  /// (scenario::resolve does) so the robots run their SSYNC-tolerant
  /// budgets; leaving it at 1 runs the paper's synchronous program, which
  /// breaks its protocol invariants under suppression.
  std::shared_ptr<const sim::Scheduler> scheduler;
  /// Dense/sparse crossover for the engine's per-node table
  /// (sim::EngineConfig::dense_node_limit). Tests force sparse mode.
  std::size_t dense_node_limit = sim::EngineConfig().dense_node_limit;
};

struct RunOutcome {
  sim::RunResult result;
  /// Peak Phase-1 map size over all robots (bits) — the O(m log n) term.
  std::uint64_t peak_map_bits = 0;
  /// Index of the schedule stage during which gathering completed
  /// (-1 if never gathered, or not applicable to this algorithm).
  int gathered_stage = -1;
  /// The hop parameter of that stage (0 for plain UG, 6 for the UXS stage).
  int gathered_stage_hop = -1;
  /// The schedule the robots ran (FasterGathering / UxsOnly only).
  std::optional<Schedule> schedule;
};

/// Run `spec.algorithm` on the placement. `spec.config.n` must equal
/// g.num_nodes() (it is what the robots are told); labels must lie in
/// [1, n^b].
[[nodiscard]] RunOutcome run_gathering(const graph::Topology& g,
                                       const graph::Placement& placement,
                                       const RunSpec& spec);

/// A ready-made config: n from the graph, the given sequence, defaults
/// elsewhere.
[[nodiscard]] AlgorithmConfig make_config(const graph::Topology& g,
                                          uxs::SequencePtr sequence);

[[nodiscard]] std::string to_string(AlgorithmKind kind);

/// Human-readable RunOutcome::gathered_stage_hop: "hop-<h>", or "none"
/// when no stage resolved the run (-1). CSV and JSON keep the number.
[[nodiscard]] std::string stage_label(int gathered_stage_hop);

}  // namespace gather::core
