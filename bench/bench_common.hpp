// Shared harness for the experiment binaries.
//
// Each bench binary regenerates one claim of the paper (see DESIGN.md §4)
// and prints a paper-style table: the driving parameter sweep, measured
// rounds, the theorem's bound, and (where meaningful) the fitted growth
// exponent. Sweeps run through the parallel executor; every run is
// deterministic and seeded, so output is reproducible byte-for-byte.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/run.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/placement.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "support/csv.hpp"
#include "support/parallel_for.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "uxs/coverage.hpp"
#include "uxs/uxs.hpp"

namespace gather::bench {

/// Wall-clock helper.
class Stopwatch {
 public:
  Stopwatch();
  [[nodiscard]] double seconds() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One measured run.
struct Measurement {
  core::RunOutcome outcome;
  double wall_seconds = 0.0;
};

/// Run one gathering instance with wall-clock timing.
[[nodiscard]] Measurement measure(const graph::Topology& g,
                                  const graph::Placement& placement,
                                  const core::RunSpec& spec);

/// Scenario-layer adapter: resolve a declarative spec and measure it.
[[nodiscard]] Measurement measure(const scenario::ScenarioSpec& spec);

/// Run a batch of declarative specs through the parallel executor,
/// preserving order — the bench-side face of scenario::SweepRunner for
/// tables that are not a single cartesian grid.
[[nodiscard]] std::vector<Measurement> measure_scenarios(
    const std::vector<scenario::ScenarioSpec>& specs);

/// Run a batch of thunks in parallel, preserving order. (Thin wrapper
/// over support::parallel_map_index — kept for benches whose instances
/// are hand-built rather than declarative.)
[[nodiscard]] std::vector<Measurement> measure_all(
    const std::vector<std::function<Measurement()>>& thunks);

/// Fit the growth exponent of `rounds` against `ns` and render it as
/// "n^p (R²=q)".
[[nodiscard]] std::string fitted_exponent(const std::vector<double>& ns,
                                          const std::vector<double>& rounds);

/// "OK"/"FAIL(...)" detection summary for a run.
[[nodiscard]] std::string detection_cell(const core::RunOutcome& outcome);

/// Short ratio cell "x0.42".
[[nodiscard]] std::string ratio_cell(double measured, double bound);

/// Open a CSV writer next to the tables when GATHER_CSV_DIR is set;
/// returns nullptr otherwise.
[[nodiscard]] std::unique_ptr<support::CsvWriter> maybe_csv(
    const std::string& name, const std::vector<std::string>& header);

}  // namespace gather::bench
