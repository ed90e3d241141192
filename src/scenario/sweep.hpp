// Cartesian scenario sweeps with a parallel, deterministic runner.
//
// A SweepSpec is the declarative form of "the table in the paper": axes
// (families × sizes × k-rules × placements × algorithms × schedulers ×
// seeds) over a base ScenarioSpec, with an optional per-point filter. SweepRunner
// enumerates the grid in a fixed documented order, executes every point
// through support::parallel_for (each point is an independent seeded
// simulation), and returns structured SweepRows in enumeration order —
// so two executions of the same spec produce byte-identical CSV/JSON no
// matter the thread count. Wall-clock timings are carried on the rows
// for interactive display but deliberately excluded from CSV/JSON.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/caches.hpp"
#include "scenario/scenario.hpp"

namespace gather::scenario {

/// A named robot-count rule k(n) — the axis Theorem 16's regimes sweep.
struct KRule {
  std::string name;
  std::function<std::size_t(std::size_t n)> k_of_n;
};

/// "k=<k>": constant robot count.
[[nodiscard]] KRule k_fixed(std::size_t k);

/// "n/<divisor>+<offset>" (clamped below by 2): the regime rules, e.g.
/// k_fraction(2, 1) is Theorem 16 regime (i)'s floor(n/2)+1.
[[nodiscard]] KRule k_fraction(std::size_t divisor, std::size_t offset);

/// Parse a rule string: an integer ("5") or "n/D", "n/D+P", "n+P", "n".
[[nodiscard]] KRule parse_k_rule(const std::string& text);

struct SweepSpec {
  /// Values for every non-axis field (labeling, sequence, flags, ...) and
  /// the fallback when an axis below is left empty.
  ScenarioSpec base;

  std::vector<std::string> families;    ///< empty = {base.family}
  std::vector<std::size_t> sizes;       ///< empty = {base.n}
  std::vector<KRule> k_rules;           ///< empty = {k_fixed(base.k)}
  std::vector<std::string> placements;  ///< empty = {base.placement}
  std::vector<std::string> algorithms;  ///< empty = {base.algorithm}
  std::vector<std::string> schedulers;  ///< empty = {base.scheduler}
  std::vector<std::uint64_t> seeds;     ///< empty = {base.seed}

  /// Per-point filter over the fully instantiated spec (n and k set);
  /// return false to drop the point. Null = keep everything.
  std::function<bool(const ScenarioSpec&)> filter;

  /// When true, points whose factories reject the combination at
  /// resolve time (e.g. k exceeds the REALIZED node count of a family
  /// that rounds n, which no pre-filter on the requested n can see) are
  /// dropped from the results instead of aborting the sweep. Registry
  /// keys and parameter names are validated up front either way, so
  /// typos always throw; if every point is infeasible, the first error
  /// is rethrown rather than returning an empty sweep.
  bool skip_infeasible = false;

  /// When true, a gather::ProtocolViolation thrown by the *simulation*
  /// (not by resolution) under an ADVERSARIAL scheduler marks the row
  /// `protocol_violation` instead of aborting the sweep — misaligned
  /// schedules can legitimately break robot-side protocol invariants
  /// (e.g. a late helper misses its finder), and that breakage is the
  /// measurement, not an error. Only that class is recordable: a
  /// gather::EngineInvariantError (engine state inconsistent) or any
  /// other ContractViolation aborts the sweep, tolerance or not. A
  /// protocol violation on a row whose scheduler cannot actually
  /// perturb the run (Scheduler::adversarial() false: synchronous,
  /// max-delay=0, fairness=1, zero crashes) is an algorithm bug and
  /// propagates regardless of this flag, so mixed sweeps cannot record
  /// regressions as innocuous rows.
  bool tolerate_protocol_violations = false;

  /// When non-empty, every executed row additionally records its run as
  /// a binary trace (sim/trace.hpp) written to
  /// `<trace_dir>/<trace_filename(point)>`. The directory must exist.
  /// Traces are a pure function of the row's spec, so two sweeps of the
  /// same grid produce byte-identical files regardless of thread count.
  /// Rows aborted by a tolerated protocol violation still write their
  /// (violation-terminated) trace. Note the file name does not encode
  /// family/placement/scheduler params — points differing only in
  /// params need distinct trace_dirs.
  std::string trace_dir;

  /// Worker threads; 0 = support::default_thread_count().
  unsigned threads = 0;

  /// Indices per steal chunk for the work-stealing executor; 0 = auto
  /// (count / (workers * 8), floored to 1). Exposed mainly so the
  /// determinism stress tests can force chunk=1 — maximal stealing —
  /// and assert the CSV bytes still don't move.
  std::size_t steal_chunk = 0;

  /// When true, points whose fingerprint is already in the caller's
  /// result cache (the Caches handle passed to run) reuse the memoized
  /// outcome instead of re-running (sound because rows are pure
  /// functions of their spec; see result_cache.hpp). Ignored — the
  /// cache is bypassed — when trace_dir is set, since a hit would skip
  /// the row's trace write. Protocol-violation rows and infeasible
  /// points are never stored.
  bool use_result_cache = false;
};

/// One grid point before execution.
struct SweepPoint {
  ScenarioSpec spec;
  std::string k_rule;
};

/// One executed grid point. Everything except wall_seconds is a pure
/// function of the point's spec.
struct SweepRow {
  ScenarioSpec spec;
  std::string k_rule;
  std::size_t realized_n = 0;
  std::uint32_t min_pair_distance = 0;
  core::RunOutcome outcome;
  /// The simulation broke a protocol invariant (only possible when
  /// SweepSpec::tolerate_protocol_violations is set); outcome is
  /// default-initialized in that case.
  bool protocol_violation = false;
  /// Wall-clock timings for interactive display and the throughput
  /// bench; both deliberately excluded from CSV/JSON (nondeterministic,
  /// would break the byte-identical contract). resolve_seconds covers
  /// graph + run resolution (near-zero on a graph-cache hit);
  /// wall_seconds covers the simulation itself (zero on a result-cache
  /// hit, which skips it).
  double resolve_seconds = 0.0;
  double wall_seconds = 0.0;
};

/// Counter snapshot of the caller's Caches taken after a sweep finishes
/// (counters accumulate across sweeps through one context — interleaved
/// A/B harnesses should clear() the caches between phases).
struct SweepStats {
  GraphCacheStats graph_cache;
  ResultCacheStats result_cache;
};

class SweepRunner {
 public:
  /// Grid order (outer to inner): family, algorithm, placement,
  /// scheduler, k-rule, size, seed — so rows group the way regime tables
  /// read.
  [[nodiscard]] static std::vector<SweepPoint> enumerate(const SweepSpec& spec);

  /// Execute all points in parallel; rows come back in enumeration order.
  /// A point whose resolution fails throws ScenarioError after workers
  /// join — sweep specs are validated by running them. Graphs are shared
  /// through `caches.graphs`; with use_result_cache, outcomes memoize
  /// through `caches.results`. The caches belong to the caller's context
  /// (gather::Service, a test's local Caches) — a sweep never touches
  /// any other context's state. When `stats` is non-null it receives the
  /// post-sweep counter snapshot of THAT context's caches.
  [[nodiscard]] static std::vector<SweepRow> run(const SweepSpec& spec,
                                                 Caches& caches,
                                                 SweepStats* stats = nullptr);

  /// Deterministic per-point trace file name used with
  /// SweepSpec::trace_dir ('/' in k-rule names is sanitized to '-').
  [[nodiscard]] static std::string trace_filename(const SweepPoint& point);

  [[nodiscard]] static std::vector<std::string> csv_header();
  static void write_csv(std::ostream& os, const std::vector<SweepRow>& rows);
  static void write_json(std::ostream& os, const std::vector<SweepRow>& rows);
};

}  // namespace gather::scenario
