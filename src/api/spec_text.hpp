// Text form of ScenarioSpec/SweepSpec for the C ABI — the boundary's
// wire format.
//
// One `key=value` pair per line, keys named exactly after the spec
// fields ("family=torus", "n=16", "families=ring,torus"); '#' starts a
// comment line, blank lines are skipped. The value is everything after
// the FIRST '=', so param bags keep their CLI spelling
// ("family_params=rows=4,cols=5"). Unknown keys, malformed values and
// integers outside the field's type throw ScenarioError with the
// offending line, which the ABI translates to GATHER_STATUS_USAGE — a C
// caller's typo is a usage error, never UB.
//
// This is also gather_cli's spec language: the CLI translates its flags
// into these lines and calls the same parsers, and parse_sweep_spec
// applies the one harness policy, apply_sweep_policy (k in [2, n]
// pre-filter, skip_infeasible, tolerated protocol violations). So the
// CSV bytes out of gather_sweep_csv are identical to `gather_cli
// --sweep`'s for the same grid — pinned against one golden by the
// cli_parity ctest (tests/cli_parity.cmake) and tests/api_test.cpp.
//
// Not part of the extern "C" surface: this file may throw (the ABI's
// translate helper is the only place exceptions become status codes).
#pragma once

#include <string>

#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace gather::api {

/// Parse a single-run spec. Every ScenarioSpec field is addressable:
/// family, family_params, placement, placement_params, labeling,
/// algorithm, sequence, scheduler, scheduler_params, n, k,
/// id_exponent_b, seed, delta_aware, known_min_pair_distance, hard_cap,
/// trace_path.
[[nodiscard]] scenario::ScenarioSpec parse_run_spec(const std::string& text);

/// Parse a sweep spec: all run-spec keys (the base point) plus the axis
/// lists families, sizes, k_rules, placements, algorithms, schedulers,
/// seeds (comma-separated) and the execution knobs threads, steal_chunk,
/// use_result_cache, trace_dir. The result carries apply_sweep_policy.
[[nodiscard]] scenario::SweepSpec parse_sweep_spec(const std::string& text);

/// The sweep harness policy parse_sweep_spec applies (see the file
/// comment); also clears the single-run trace_path.
void apply_sweep_policy(scenario::SweepSpec& sweep);

}  // namespace gather::api
