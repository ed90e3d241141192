#include "scenario/sweep.hpp"

#include <chrono>
#include <optional>
#include <ostream>

#include "support/csv.hpp"
#include "support/json.hpp"
#include "support/parallel_for.hpp"

namespace gather::scenario {
namespace {

std::string params_cell(const Params& params) {
  std::string out;
  for (const auto& [key, value] : params.entries()) {
    if (!out.empty()) out += ';';
    out += key + "=" + value;
  }
  return out;
}

std::vector<std::string> row_cells(const SweepRow& row) {
  const auto& spec = row.spec;
  const auto& result = row.outcome.result;
  return {spec.family,
          params_cell(spec.family_params),
          std::to_string(spec.n),
          std::to_string(row.realized_n),
          spec.placement,
          params_cell(spec.placement_params),
          spec.labeling,
          spec.algorithm,
          spec.sequence,
          spec.scheduler,
          params_cell(spec.scheduler_params),
          std::to_string(spec.k),
          row.k_rule,
          std::to_string(spec.seed),
          std::to_string(row.min_pair_distance),
          result.gathered_at_end ? "1" : "0",
          result.detection_correct ? "1" : "0",
          row.protocol_violation ? "1" : "0",
          std::to_string(result.metrics.rounds),
          std::to_string(result.metrics.total_moves),
          std::to_string(result.metrics.total_message_bits),
          std::to_string(row.outcome.gathered_stage_hop),
          std::to_string(row.outcome.peak_map_bits)};
}

// Registry-key and parameter-name validation only — no factories run,
// so enumerate() rejects typos before any simulation starts and
// skip_infeasible can never swallow them.
void validate_keys(const ScenarioSpec& spec) {
  graph_families().validate_params(graph_families().get(spec.family),
                                   spec.family_params);
  placements().validate_params(placements().get(spec.placement),
                               spec.placement_params);
  (void)labelings().get(spec.labeling);
  (void)algorithms().get(spec.algorithm);
  (void)sequences().get(spec.sequence);
  schedulers().validate_params(schedulers().get(spec.scheduler),
                               spec.scheduler_params);
}

}  // namespace

KRule k_fixed(std::size_t k) {
  return KRule{"k=" + std::to_string(k), [k](std::size_t) { return k; }};
}

KRule k_fraction(std::size_t divisor, std::size_t offset) {
  // Built with += to sidestep GCC 12's bogus -Wrestrict on the rvalue
  // string operator+ overloads (GCC PR105651).
  std::string name = "n/";
  name += std::to_string(divisor);
  if (offset > 0) {
    name += '+';
    name += std::to_string(offset);
  }
  return KRule{std::move(name), [divisor, offset](std::size_t n) {
                 return std::max<std::size_t>(2, n / divisor + offset);
               }};
}

KRule parse_k_rule(const std::string& text) {
  const auto bad = [&]() {
    return ScenarioError("bad k-rule '" + text +
                         "' (want an integer, 'n', 'n/D', or 'n/D+P')");
  };
  if (text.empty()) throw bad();
  if (text[0] != 'n') {
    const std::optional<std::uint64_t> k = parse_uint(text);
    if (!k || *k == 0) throw bad();
    return k_fixed(*k);
  }
  // Grammar after the leading 'n': optional "/D", optional "+P".
  std::size_t divisor = 1;
  std::size_t offset = 0;
  std::string rest = text.substr(1);
  const std::size_t plus = rest.find('+');
  if (plus != std::string::npos) {
    const std::optional<std::uint64_t> p = parse_uint(rest.substr(plus + 1));
    if (!p) throw bad();
    offset = *p;
    rest.resize(plus);
  }
  if (!rest.empty()) {
    if (rest[0] != '/') throw bad();
    const std::optional<std::uint64_t> d = parse_uint(rest.substr(1));
    if (!d || *d == 0) throw bad();
    divisor = *d;
  }
  return k_fraction(divisor, offset);
}

std::vector<SweepPoint> SweepRunner::enumerate(const SweepSpec& sweep) {
  const std::vector<std::string> families =
      sweep.families.empty() ? std::vector<std::string>{sweep.base.family}
                             : sweep.families;
  const std::vector<std::size_t> sizes =
      sweep.sizes.empty() ? std::vector<std::size_t>{sweep.base.n}
                          : sweep.sizes;
  const std::vector<KRule> k_rules =
      sweep.k_rules.empty() ? std::vector<KRule>{k_fixed(sweep.base.k)}
                            : sweep.k_rules;
  const std::vector<std::string> placement_axis =
      sweep.placements.empty() ? std::vector<std::string>{sweep.base.placement}
                               : sweep.placements;
  const std::vector<std::string> algorithm_axis =
      sweep.algorithms.empty() ? std::vector<std::string>{sweep.base.algorithm}
                               : sweep.algorithms;
  const std::vector<std::string> scheduler_axis =
      sweep.schedulers.empty() ? std::vector<std::string>{sweep.base.scheduler}
                               : sweep.schedulers;
  const std::vector<std::uint64_t> seeds =
      sweep.seeds.empty() ? std::vector<std::uint64_t>{sweep.base.seed}
                          : sweep.seeds;

  std::vector<SweepPoint> points;
  for (const std::string& family : families) {
    for (const std::string& algorithm : algorithm_axis) {
      for (const std::string& placement : placement_axis) {
        for (const std::string& scheduler : scheduler_axis) {
          for (const KRule& rule : k_rules) {
            for (const std::size_t n : sizes) {
              for (const std::uint64_t seed : seeds) {
                ScenarioSpec spec = sweep.base;
                spec.family = family;
                spec.algorithm = algorithm;
                spec.placement = placement;
                spec.scheduler = scheduler;
                spec.n = n;
                spec.k = rule.k_of_n(n);
                spec.seed = seed;
                validate_keys(spec);
                if (sweep.filter && !sweep.filter(spec)) continue;
                points.push_back(SweepPoint{std::move(spec), rule.name});
              }
            }
          }
        }
      }
    }
  }
  return points;
}

std::vector<SweepRow> SweepRunner::run(const SweepSpec& sweep, Caches& caches,
                                       SweepStats* stats) {
  const std::vector<SweepPoint> points = enumerate(sweep);
  const unsigned threads =
      sweep.threads == 0 ? support::default_thread_count() : sweep.threads;
  // A result-cache hit skips the run, so it must be off whenever a row
  // has an observable side effect the memo cannot replay — today that
  // is the per-row trace file.
  const bool memo = sweep.use_result_cache && sweep.trace_dir.empty();
  std::vector<std::string> infeasible(points.size());
  std::vector<SweepRow> rows = support::parallel_map_index<SweepRow>(
      points.size(), threads,
      [&](std::size_t i) {
        const SweepPoint& point = points[i];
        SweepRow row;
        row.spec = point.spec;
        row.k_rule = point.k_rule;
        std::string fp;
        if (memo) {
          fp = fingerprint(point.spec);
          if (const std::optional<CachedRun> hit = caches.results.lookup(fp)) {
            row.realized_n = hit->realized_n;
            row.min_pair_distance = hit->min_pair_distance;
            row.outcome = hit->outcome;
            return row;
          }
        }
        // Only RESOLUTION failures count as infeasible: factories signal
        // a bad combination via ScenarioError or a precondition
        // ContractViolation (e.g. no node pair at the requested
        // distance). Errors from the simulation itself always propagate.
        ResolvedScenario resolved;
        const auto resolve_start = std::chrono::steady_clock::now();
        try {
          resolved = resolve(point.spec, caches.graphs);
        } catch (const ScenarioError& e) {
          if (!sweep.skip_infeasible) throw;
          infeasible[i] = e.what();
          return row;
        } catch (const ContractViolation& e) {
          if (!sweep.skip_infeasible) throw;
          infeasible[i] = e.what();
          return row;
        }
        row.resolve_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          resolve_start)
                .count();
        row.realized_n = resolved.realized_n;
        row.min_pair_distance = resolved.min_pair_distance;
        const std::string trace_path =
            sweep.trace_dir.empty()
                ? std::string()
                : sweep.trace_dir + "/" + trace_filename(point);
        const auto start = std::chrono::steady_clock::now();
        try {
          row.outcome = run_resolved(resolved, trace_path);
        } catch (const ProtocolViolation&) {
          // An adversarial scheduler can push the algorithms outside
          // their protocol invariants; with the tolerance flag set that
          // is a recorded outcome, not a sweep abort. Only the
          // robot-side ProtocolViolation class is ever recorded: an
          // EngineInvariantError (or any other ContractViolation) on an
          // adversarial row is an engine/library bug and aborts the
          // sweep instead of shipping as an innocuous violation=1 row.
          // A protocol violation under a scheduler that cannot perturb
          // the run (synchronous, or a degenerate parameterization like
          // max-delay=0) is an algorithm bug and propagates regardless
          // of the flag.
          const sim::Scheduler* sched = resolved.run_spec.scheduler.get();
          const bool benign = sched == nullptr || !sched->adversarial();
          if (!sweep.tolerate_protocol_violations || benign) throw;
          row.protocol_violation = true;
        }
        row.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        // Violation rows stay out of the memo: whether they record or
        // abort depends on the tolerance flag, which is harness policy
        // outside the fingerprint.
        if (memo && !row.protocol_violation) {
          caches.results.store(
              fp, CachedRun{row.realized_n, row.min_pair_distance,
                            row.outcome});
        }
        return row;
      },
      sweep.steal_chunk);
  if (stats != nullptr) {
    stats->graph_cache = caches.graphs.stats();
    stats->result_cache = caches.results.stats();
  }
  if (sweep.skip_infeasible) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!infeasible[i].empty()) continue;
      if (kept != i) rows[kept] = std::move(rows[i]);
      ++kept;
    }
    if (kept == 0 && !rows.empty()) {
      throw ScenarioError("every sweep point was infeasible; first error: " +
                          infeasible.front());
    }
    rows.resize(kept);
  }
  return rows;
}

std::string SweepRunner::trace_filename(const SweepPoint& point) {
  const ScenarioSpec& s = point.spec;
  // Built with += for the same GCC 12 -Wrestrict reason as k_fraction.
  std::string rule = point.k_rule;
  for (char& c : rule) {
    if (c == '/') c = '-';
  }
  std::string name = s.family;
  name += "_n";
  name += std::to_string(s.n);
  name += "_k";
  name += std::to_string(s.k);
  name += '_';
  name += s.placement;
  name += '_';
  name += s.algorithm;
  name += '_';
  name += s.scheduler;
  name += '_';
  name += rule;
  name += "_s";
  name += std::to_string(s.seed);
  name += ".trace";
  return name;
}

std::vector<std::string> SweepRunner::csv_header() {
  return {"family",    "family_params", "n",
          "realized_n", "placement",     "placement_params",
          "labeling",  "algorithm",     "sequence",
          "scheduler", "scheduler_params",
          "k",         "k_rule",        "seed",
          "min_pair_distance",          "gathered",
          "detection", "violation",
          "rounds",    "total_moves",
          "message_bits",              "stage_hop",
          "peak_map_bits"};
}

void SweepRunner::write_csv(std::ostream& os,
                            const std::vector<SweepRow>& rows) {
  support::write_csv_row(os, csv_header());
  for (const SweepRow& row : rows) support::write_csv_row(os, row_cells(row));
}

void SweepRunner::write_json(std::ostream& os,
                             const std::vector<SweepRow>& rows) {
  const std::vector<std::string> header = csv_header();
  os << "[\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<std::string> cells = row_cells(rows[r]);
    os << "  {";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) os << ", ";
      os << '"' << header[i] << "\": ";
      // Numeric-looking cells stay numbers; axis names are strings.
      const bool numeric = !cells[i].empty() &&
                           cells[i].find_first_not_of("-0123456789") ==
                               std::string::npos;
      if (numeric) {
        os << cells[i];
      } else {
        os << '"' << support::json_escape(cells[i]) << '"';
      }
    }
    os << (r + 1 < rows.size() ? "},\n" : "}\n");
  }
  os << "]\n";
}

}  // namespace gather::scenario
