// Declarative scenario description — the library's front door.
//
// A ScenarioSpec names every axis of one gathering instance by registry
// key (family, placement, labeling, algorithm, sequence policy, and the
// scheduling adversary) plus the scalar knobs (n, k, seed, the Remark
// 13/14 knowledge flags). resolve() turns it into a runnable instance;
// run_scenario() runs it. Harnesses that used to hand-roll string
// dispatch over generators/placements (gather_cli, the bench binaries,
// property_sweep_test) now construct a spec and let this layer do the
// lookup, validation, and seeding.
//
// Determinism: a spec fully determines its instance and outcome. The
// single `seed` is split into independent per-axis streams (graph,
// placement, labels, sequence, scheduler) via support::hash_combine, so
// changing one axis never perturbs another's randomness.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/run.hpp"
#include "graph/graph.hpp"
#include "graph/placement.hpp"
#include "scenario/registries.hpp"

namespace gather::scenario {

struct ScenarioSpec {
  // ---- instance axes (registry keys) ----
  std::string family = "ring";
  Params family_params;
  std::string placement = "adversarial";
  Params placement_params;
  std::string labeling = "random";
  std::string algorithm = "faster";
  std::string sequence = "covering";
  std::string scheduler = "synchronous";
  Params scheduler_params;

  // ---- scalar knobs ----
  std::size_t n = 12;  ///< requested node count (realized may differ)
  std::size_t k = 4;   ///< robot count
  unsigned id_exponent_b = 2;
  std::uint64_t seed = 42;

  // ---- knowledge flags (the paper's remarks) ----
  bool delta_aware = false;          ///< Remark 14: robots know Δ
  int known_min_pair_distance = -1;  ///< Remark 13 hint (-1 = off)

  /// Hard round cap override (0 = derive from the schedule). Bounded
  /// probes on huge implicit instances set this; it changes what the run
  /// does, so it IS part of the fingerprint.
  sim::Round hard_cap = 0;

  /// When non-empty, run_scenario() records the run as a binary trace
  /// (sim/trace.hpp) and writes it here — including a run aborted by a
  /// ProtocolViolation, whose trace is sealed with a violation terminal
  /// record before the exception propagates.
  std::string trace_path;
};

/// A resolved, runnable instance. `realized_n == graph->num_nodes()`;
/// when it differs from the request (hypercube rounding, near-square
/// tori, parity-fixed regular graphs) harnesses must report it rather
/// than pretend the requested n ran.
///
/// The graph is held by shared pointer to one IMMUTABLE Topology that
/// a context's graph cache may hand to any number of concurrent
/// resolutions of the same (family, params, n, graph sub-seed) — the
/// sweep runner's workers all read the same CSR arrays (or share the
/// same implicit descriptor). Everything else in here is per-run mutable
/// state owned by this resolution alone.
struct ResolvedScenario {
  std::shared_ptr<const graph::Topology> graph;
  graph::Placement placement;
  core::RunSpec run_spec;
  std::size_t requested_n = 0;
  std::size_t realized_n = 0;
  /// Minimum pairwise start distance (Lemma 15's quantity); 0 when k < 2.
  std::uint32_t min_pair_distance = 0;
};

class GraphCache;

/// Graph resolution alone: look up the family, validate its params, and
/// return the shared immutable graph. The cache-handle overload shares
/// one physical instance per (family, params, n, graph sub-seed) across
/// every resolution that passes the SAME cache — cache lifetime is owned
/// by the caller's context (scenario::Caches / gather::Service), never
/// by the process. Families whose factories are not pure functions of
/// the key (today: "file", which reads the filesystem) bypass the cache.
/// The cacheless overload builds fresh every call. resolve() composes
/// this with run resolution; harnesses that only need the graph (DOT
/// export, coverage probes) call it directly.
[[nodiscard]] std::shared_ptr<const graph::Topology> resolve_graph(
    const ScenarioSpec& spec);
[[nodiscard]] std::shared_ptr<const graph::Topology> resolve_graph(
    const ScenarioSpec& spec, GraphCache& cache);

/// Look up every axis, validate parameters, and build the instance.
/// Throws ScenarioError (with candidate suggestions) on unknown keys or
/// unsatisfiable specs. The cache-handle overload resolves the graph
/// through `cache`; the cacheless one builds it fresh.
[[nodiscard]] ResolvedScenario resolve(const ScenarioSpec& spec);
[[nodiscard]] ResolvedScenario resolve(const ScenarioSpec& spec,
                                       GraphCache& cache);

/// Canonical serialization of every behavior-relevant spec field (all
/// axes, params in sorted order, scalar knobs, knowledge flags, seed) —
/// the key of the sweep result cache. Excludes `trace_path` (an output
/// location, not behavior). Sound as a memo key because rows are a pure,
/// byte-deterministic function of the spec (the SweepRunner contract
/// pinned since the scenario layer landed): equal fingerprints imply
/// byte-identical outcomes.
[[nodiscard]] std::string fingerprint(const ScenarioSpec& spec);

/// resolve() + core::run_gathering() in one call (honors
/// spec.trace_path).
[[nodiscard]] core::RunOutcome run_scenario(const ScenarioSpec& spec);

/// Run an already-resolved scenario, optionally recording it to
/// `trace_path` ("" = no file). Harnesses that resolve themselves (the
/// CLI, SweepRunner) use this so single-run and sweep traces share one
/// recording path. A recorder already set in `resolved.run_spec.
/// trace_recorder` records the run (and is what gets written) instead
/// of a private one.
[[nodiscard]] core::RunOutcome run_resolved(const ResolvedScenario& resolved,
                                            const std::string& trace_path);

/// The per-axis sub-seed streams resolve() uses (exposed so harnesses
/// that need one axis — e.g. a DOT export of just the graph — match it).
enum class SeedAxis : std::uint64_t {
  Graph = 0x67,
  Placement = 0x70,
  Labels = 0x6c,
  Sequence = 0x75,
  Scheduler = 0x73,
};
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, SeedAxis axis);

}  // namespace gather::scenario
