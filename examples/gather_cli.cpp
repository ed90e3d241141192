// gather_cli — the practitioner's entry point, built on the declarative
// scenario layer: every graph family, placement, labeling, algorithm, and
// sequence policy in the registries is reachable by name, in single-run
// or sweep mode.
//
//   gather_cli --graph=ring --n=16 --k=5 --algorithm=faster
//   gather_cli --graph-file=my.graph --k=3 --placement=dispersed --dot=out.dot
//   gather_cli --scheduler=crash-fault --scheduler-params=crashes=1,window=8
//   gather_cli --graph=torus --n=136 --k=69 --placement=dispersed --profile
//                                # + the engine's work counters (stderr)
//   gather_cli --list            # every registry entry with param schemas
//   gather_cli --list-md         # the same as markdown (docs/SCENARIOS.md)
//   gather_cli --sweep --families=ring,torus --sizes=9,12,16
//              --schedulers=synchronous,adversarial-delay
//              --k-rules=n/2+1,n/3+1 --seeds=1,2 --format=csv
//
// Sweep mode prints one CSV/JSON row per grid point (deterministic:
// identical invocations emit byte-identical output across runs and
// thread counts).
//
// The CLI is a thin harness over gather::Service (src/api/) — the same
// context object the C ABI in include/libgather.h wraps — so its
// caches, resolution, and sweep execution are exactly what an embedder
// gets — and so are its specs: the flags are translated into the ABI's
// spec text (kSpecFlags below).
//
// Exit codes (the 0..3 subset of gather_status in include/libgather.h):
//   0  success: detection certified, sweep completed, traces identical
//   1  violation / failed verdict: a protocol violation was reported, a
//      run's detection was not certified, --diff found a divergence, or
//      --replay replayed a violation-terminated trace
//   2  usage: bad flags, unknown registry keys or parameters,
//      unsatisfiable specs
//   3  internal: engine invariant failure, unreadable/corrupt trace
//      files, or any unforeseen error
#include <fstream>
#include <iostream>
#include <optional>
#include <utility>

#include "api/service.hpp"
#include "api/spec_text.hpp"
#include "core/timeline.hpp"
#include "graph/io.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "sim/trace.hpp"
#include "support/cli.hpp"

namespace {

using namespace gather;

template <typename Factory>
void print_registry(std::ostream& os, const std::string& title,
                    const scenario::Registry<Factory>& registry) {
  os << title << ":\n";
  for (const auto& [name, entry] : registry.entries()) {
    os << "  " << name;
    for (std::size_t i = name.size(); i < 14; ++i) os << ' ';
    os << ' ' << entry.doc << "\n";
    for (const scenario::ParamSpec& p : entry.params) {
      os << "                   param " << p.name << "=<v>  " << p.doc
         << " (default " << (p.default_value.empty() ? "derived" : p.default_value)
         << ")\n";
    }
  }
}

void print_list(std::ostream& os) {
  print_registry(os, "graph families", scenario::graph_families());
  print_registry(os, "placements", scenario::placements());
  print_registry(os, "labelings", scenario::labelings());
  print_registry(os, "algorithms", scenario::algorithms());
  print_registry(os, "sequence policies", scenario::sequences());
  print_registry(os, "schedulers", scenario::schedulers());
  os << "k-rule forms: <int> | n | n/D | n/D+P (e.g. n/2+1 is Theorem 16 "
        "regime (i))\n";
}

template <typename Factory>
void print_registry_md(std::ostream& os, const std::string& title,
                       const std::string& spec_field, const std::string& flag,
                       const scenario::Registry<Factory>& registry) {
  os << "## " << title << "\n\n"
     << "`ScenarioSpec::" << spec_field << "` / `gather_cli --" << flag
     << "=<name>`\n\n"
     << "| name | parameters | description |\n|---|---|---|\n";
  for (const auto& [name, entry] : registry.entries()) {
    os << "| `" << name << "` | ";
    if (entry.params.empty()) {
      os << "—";
    } else {
      bool first = true;
      for (const scenario::ParamSpec& p : entry.params) {
        if (!first) os << "<br>";
        first = false;
        os << "`" << p.name << "` (default "
           << (p.default_value.empty() ? "derived" : p.default_value) << "): "
           << p.doc;
      }
    }
    os << " | " << entry.doc << " |\n";
  }
  os << "\n";
}

// docs/SCENARIOS.md, regenerated from the live registries so the
// committed reference can never drift from the code (CI diffs it).
void print_list_md(std::ostream& os) {
  os << "# Scenario reference\n\n"
     << "Every axis of a `scenario::ScenarioSpec`, straight from the "
        "registries.\n"
     << "**Generated by `gather_cli --list-md` — do not edit by hand.** "
        "CI regenerates\n"
     << "this file and fails on drift; to update it after registering a "
        "new entry, run:\n\n"
     << "```sh\n"
     << "cmake --preset bench && cmake --build --preset bench -j\n"
     << "./build-bench/examples/gather_cli --list-md > docs/SCENARIOS.md\n"
     << "```\n\n"
     << "Parameters are passed as `key=value` lists: "
        "`--params=rows=4,cols=5` for the\n"
     << "graph family, `--placement-params=...`, `--scheduler-params=...` "
        "on the CLI, or\n"
     << "the corresponding `Params` fields on `ScenarioSpec`. Unknown "
        "names and unknown\n"
     << "parameter keys fail with did-you-mean suggestions.\n\n";
  print_registry_md(os, "Graph families", "family", "graph",
                    scenario::graph_families());
  print_registry_md(os, "Placements", "placement", "placement",
                    scenario::placements());
  print_registry_md(os, "Labelings", "labeling", "labeling",
                    scenario::labelings());
  print_registry_md(os, "Algorithms", "algorithm", "algorithm",
                    scenario::algorithms());
  print_registry_md(os, "Sequence policies", "sequence", "uxs",
                    scenario::sequences());
  print_registry_md(os, "Schedulers (adversaries)", "scheduler", "scheduler",
                    scenario::schedulers());
  os << "## k-rules\n\n"
     << "Sweeps choose the robot count per size with a k-rule: a fixed "
        "integer (`5`),\n"
     << "`n`, `n/D`, or `n/D+P` (clamped below at 2). `n/2+1` is Theorem "
        "16 regime (i),\n"
     << "`n/3+1` the moderate regime.\n\n"
     << "## Worked sweep example\n\n"
     << "Grid over three axes — family, scheduler, and robot regime — "
        "with two seeds,\n"
     << "one CSV row per point (byte-identical across runs and thread "
        "counts):\n\n"
     << "```sh\n"
     << "./build-bench/examples/gather_cli --sweep \\\n"
     << "    --families=ring,torus,hypercube --sizes=12,16 \\\n"
     << "    --schedulers=synchronous,adversarial-delay,semi-synchronous,"
        "crash-fault \\\n"
     << "    --k-rules=n/2+1,n/3+1 --seeds=1,2 --format=csv\n"
     << "```\n\n"
     << "The `scheduler` and `scheduler_params` CSV columns identify the "
        "adversary per\n"
     << "row. `detection` stays 1 under `synchronous`; under "
        "`adversarial-delay` and\n"
     << "`crash-fault` it degrades. Under `semi-synchronous` the robots "
        "run on\n"
     << "activation-count local clocks with the fairness bound as common "
        "knowledge,\n"
     << "so the paper's algorithms still gather (from undispersed "
        "starts,\n"
     << "`violation` stays 0); a row that does break a robot-side "
        "protocol invariant\n"
     << "is recorded as `violation` = 1 — a legitimate outcome under an "
        "adversary,\n"
     << "while engine-internal invariant failures always abort the "
        "sweep.\n";
}

// ---- flags -> spec text ---------------------------------------------------
//
// The CLI builds no spec itself: each provided spec-bearing flag becomes
// one `key=value` line of the C ABI's spec text (api/spec_text.hpp), so
// list and integer parsing, range checks and the sweep policy all happen
// in parse_run_spec / parse_sweep_spec (pinned by tests/cli_parity.cmake).
// Boolean flags emit `key=true`; sweep keys are usage errors without
// --sweep.
constexpr std::pair<const char*, const char*> kSpecFlags[] = {
    {"graph", "family"}, {"params", "family_params"}, {"n", "n"}, {"k", "k"},
    {"placement", "placement"}, {"placement-params", "placement_params"},
    {"labeling", "labeling"}, {"algorithm", "algorithm"},
    {"uxs", "sequence"}, {"scheduler", "scheduler"},
    {"scheduler-params", "scheduler_params"}, {"delta-aware", "delta_aware"},
    {"known-distance", "known_min_pair_distance"}, {"seed", "seed"},
    {"hard-cap", "hard_cap"}, {"record", "trace_path"},
    // sweep-only keys
    {"families", "families"}, {"sizes", "sizes"}, {"k-rules", "k_rules"},
    {"placements", "placements"}, {"algorithms", "algorithms"},
    {"schedulers", "schedulers"}, {"seeds", "seeds"}, {"threads", "threads"},
    {"steal-chunk", "steal_chunk"}, {"cache", "use_result_cache"},
    {"trace-dir", "trace_dir"},
};

std::string spec_text(const support::CliParser& cli) {
  std::string text;
  for (const auto& [flag, key] : kSpecFlags) {
    if (!cli.provided(flag)) continue;
    const std::string value = cli.get(flag);
    // One flag is one line: a line break would smuggle in a second key.
    if (value.find_first_of("\r\n") != std::string::npos) {
      throw support::CliError(std::string("--") + flag +
                              " value contains a line break");
    }
    text += std::string(key) + "=" + value + "\n";
  }
  return text;
}

// The two shorthands set one param after parsing, bypassing the Params
// text form: a file path may contain ',' and '='.
void apply_shorthands(const support::CliParser& cli,
                      scenario::ScenarioSpec& spec) {
  if (cli.provided("graph-file")) {
    spec.family = "file";
    spec.family_params.set("path", cli.get("graph-file"));
  }
  if (cli.provided("pair-distance")) {
    spec.placement_params.set("distance", cli.get("pair-distance"));
  }
}

// ---- binary trace surfaces (--replay / --diff) ---------------------------

void print_replay_summary(std::ostream& os, const sim::Trace& trace,
                          const sim::ReplayResult& replay) {
  os << "robots:            " << trace.robots.size() << "\n"
     << "graph nodes:       " << trace.num_nodes << "\n"
     << "simulated rounds:  " << replay.result.metrics.simulated_rounds
     << "\n"
     << "rounds:            " << replay.result.metrics.rounds << "\n"
     << "total moves:       " << replay.result.metrics.total_moves << "\n"
     << "trace hash:        0x" << std::hex << replay.result.metrics.trace_hash
     << std::dec << "\n";
  if (replay.violation) {
    os << "protocol violation at round " << replay.violation_round << ": "
       << replay.violation_message << "\n";
    return;
  }
  os << "gathered:          " << std::boolalpha
     << replay.result.gathered_at_end << "\n"
     << "detection correct: " << replay.result.detection_correct << "\n"
     << "false announce:    " << replay.result.false_announcement << "\n";
}

int run_replay(const support::CliParser& cli) {
  const std::string path = cli.get("replay");
  const Service::ReplayReport report = Service::replay(path);
  std::cout << "replayed " << path << "\n";
  print_replay_summary(std::cout, report.trace, report.replay);
  // A violation-terminated trace replays fine, but its verdict is the
  // violation — exit 1, matching GATHER_STATUS_VIOLATION.
  return report.replay.violation ? 1 : 0;
}

int run_diff(const support::CliParser& cli) {
  const auto& paths = cli.positional();
  if (paths.size() != 2) {
    throw support::CliError("--diff needs exactly two trace files: "
                            "gather_cli --diff A.trace B.trace");
  }
  const sim::Trace a = sim::decode_trace(sim::read_trace_file(paths[0]));
  const sim::Trace b = sim::decode_trace(sim::read_trace_file(paths[1]));
  const std::optional<sim::TraceDivergence> div = sim::first_divergence(a, b);
  if (!div.has_value()) {
    std::cout << "traces are identical runs\n";
    return 0;
  }
  std::cout << "first divergence at round " << div->round;
  if (div->robot != 0) std::cout << ", robot " << div->robot;
  std::cout << ": " << div->what << "\n";
  return 1;
}

int run_sweep(const support::CliParser& cli, Service& service) {
  scenario::SweepSpec sweep = api::parse_sweep_spec(spec_text(cli));
  apply_shorthands(cli, sweep.base);

  scenario::SweepStats stats;
  const std::vector<scenario::SweepRow> rows = service.sweep(sweep, &stats);
  const std::string format = cli.get("format");
  std::ofstream file;
  std::ostream* os = &std::cout;
  if (cli.provided("out")) {
    file.open(cli.get("out"));
    if (!file) throw support::CliError("cannot open --out file");
    os = &file;
  }
  if (format == "csv") {
    scenario::SweepRunner::write_csv(*os, rows);
  } else if (format == "json") {
    scenario::SweepRunner::write_json(*os, rows);
  } else {
    throw support::CliError("unknown --format '" + format + "' (csv|json)");
  }
  // enumerate() is cheap (no factories run); the difference is the
  // number of points dropped as infeasible — never hide missing rows.
  const std::size_t enumerated = scenario::SweepRunner::enumerate(sweep).size();
  std::cerr << "sweep: " << rows.size() << " points";
  if (enumerated > rows.size()) {
    std::cerr << " (" << enumerated - rows.size()
              << " infeasible points dropped)";
  }
  std::cerr << "\n";
  if (cli.get_flag("cache-stats")) {
    // stderr like the summary line above — never into the CSV/JSON
    // stream, whose bytes are pinned.
    const scenario::GraphCacheStats& g = stats.graph_cache;
    const scenario::ResultCacheStats& r = stats.result_cache;
    std::cerr << "graph-cache: " << g.hits << " hits, " << g.misses
              << " misses, " << g.evictions << " evictions, " << g.entries
              << " entries, " << g.resident_bytes << " bytes resident\n";
    std::cerr << "result-cache: " << r.hits << " hits, " << r.misses
              << " misses, " << r.evictions << " evictions, " << r.entries
              << " entries, " << r.resident_bytes << " bytes resident\n";
  }
  return 0;
}

/// --profile: the run's sim::EngineProfile as one JSON object on one
/// line. It goes to stderr, never into the report, CSV or JSON rows.
void print_profile(std::ostream& os, const sim::EngineProfile& p) {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"heap_pushes", p.heap_pushes},
      {"bucket_pushes", p.bucket_pushes},
      {"heap_pops", p.heap_pops},
      {"heap_peak", p.heap_peak},
      {"wake_slot_visits", p.wake_slot_visits},
      {"simulated_rounds", p.simulated_rounds},
      {"activation_words", p.activation_words},
      {"ledger_blocks", p.ledger_blocks},
      {"skipped_polls", p.skipped_polls},
      {"replayed_follows", p.replayed_follows},
      {"replayed_routes", p.replayed_routes},
      {"ridden_stays", p.ridden_stays},
      {"group_handoffs", p.group_handoffs},
      {"presorted_rounds", p.presorted_rounds},
  };
  os << "{";
  const char* sep = "";
  for (const auto& [name, value] : fields) {
    os << sep << "\"" << name << "\": " << value;
    sep = ", ";
  }
  os << "}\n";
}

int run_single(const support::CliParser& cli, Service& service) {
  scenario::ScenarioSpec spec = api::parse_run_spec(spec_text(cli));
  apply_shorthands(cli, spec);
  scenario::ResolvedScenario resolved = service.resolve(spec);
  // --timeline analyses the binary trace; it shares the recorder with
  // --record, so one run both writes the file and feeds the table.
  const bool timeline = cli.get_flag("timeline");
  sim::TraceRecorder recorder;
  if (timeline) resolved.run_spec.trace_recorder = &recorder;
  sim::EngineProfile profile;
  const bool profiled = cli.get_flag("profile");
  if (profiled) resolved.run_spec.profile = &profile;

  std::cout << "instance: n=" << resolved.realized_n;
  // The 'file' family takes n from the file — there is no request.
  if (resolved.realized_n != resolved.requested_n && spec.family != "file") {
    std::cout << " (requested " << resolved.requested_n << ")";
  }
  std::cout << " m=" << resolved.graph->num_edges() << " k=" << spec.k
            << " min-pair-distance="
            << (spec.k >= 2 ? std::to_string(resolved.min_pair_distance)
                            : std::string("-"))
            << "\n";

  core::RunOutcome out;
  try {
    out = scenario::run_resolved(resolved, spec.trace_path);
    if (profiled) print_profile(std::cerr, profile);
  } catch (const ProtocolViolation& e) {
    if (profiled) print_profile(std::cerr, profile);
    // Under an adversary that can actually perturb the run, a robot-side
    // protocol violation is a legitimate outcome (the misalignment broke
    // the algorithm's invariants) — report it as a result, not a tool
    // crash. Only gather::ProtocolViolation qualifies: an
    // EngineInvariantError or any other ContractViolation is an
    // engine/library bug and always escapes. Under a scheduler with no
    // adversarial effect (synchronous, or a degenerate parameterization
    // like max-delay=0) even a protocol violation is a bug: rethrow.
    if (resolved.run_spec.scheduler == nullptr ||
        !resolved.run_spec.scheduler->adversarial()) {
      throw;
    }
    std::cout << "algorithm:         "
              << core::to_string(resolved.run_spec.algorithm) << "\n"
              << "scheduler:         " << spec.scheduler << "\n"
              << "protocol violation under adversary: " << e.what() << "\n"
              << "gathered:          false\n"
              << "detection correct: false\n";
    return 1;
  }
  std::cout << "algorithm:         " << core::to_string(resolved.run_spec.algorithm)
            << "\n"
            << "scheduler:         " << spec.scheduler << "\n"
            << "gathered:          " << std::boolalpha
            << out.result.gathered_at_end << "\n"
            << "detection correct: " << out.result.detection_correct << "\n"
            << "rounds:            " << out.result.metrics.rounds << "\n"
            << "total moves:       " << out.result.metrics.total_moves << "\n"
            << "message bits:      " << out.result.metrics.total_message_bits
            << "\n"
            << "resolved by stage: " << core::stage_label(out.gathered_stage_hop)
            << "\n"
            << "peak map bits:     " << out.peak_map_bits << "\n";

  if (timeline && out.schedule.has_value()) {
    std::cout << "\nper-stage activity:\n";
    core::Timeline::from_trace(sim::decode_trace(recorder.bytes()),
                               *out.schedule)
        .print(std::cout);
  }
  if (cli.provided("dot")) {
    if (const graph::Graph* csr = resolved.graph->as_csr()) {
      std::ofstream dot(cli.get("dot"));
      const graph::NodeId gather_node = out.result.gather_node;
      graph::write_dot(dot, *csr, &resolved.placement,
                       out.result.gathered_at_end ? &gather_node : nullptr);
      std::cout << "wrote DOT to " << cli.get("dot") << "\n";
    } else {
      std::cerr << "--dot requires a materialized family (implicit-* "
                   "topologies have no edge list to draw)\n";
      return 2;
    }
  }
  if (cli.provided("save-graph")) {
    if (const graph::Graph* csr = resolved.graph->as_csr()) {
      std::ofstream gl(cli.get("save-graph"));
      graph::write_edge_list(gl, *csr);
      std::cout << "wrote edge list to " << cli.get("save-graph") << "\n";
    } else {
      std::cerr << "--save-graph requires a materialized family "
                   "(implicit-* topologies have no edge list to save)\n";
      return 2;
    }
  }
  if (!spec.trace_path.empty()) {
    std::cout << "wrote trace to " << spec.trace_path << "\n";
  }
  return out.result.detection_correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Defaults live in the spec types; these only document them.
  const scenario::SweepSpec defaults;
  const scenario::ScenarioSpec& base = defaults.base;
  support::CliParser cli;
  cli.add_option("graph", base.family, "graph family (see --list)");
  cli.add_option("graph-file", "", "read an edge-list file instead");
  cli.add_option("params", "", "family params, e.g. rows=4,cols=5");
  cli.add_option("n", std::to_string(base.n),
                 "requested node count (realized n is reported)");
  cli.add_option("k", std::to_string(base.k), "number of robots");
  cli.add_option("algorithm", base.algorithm, "algorithm (see --list)");
  cli.add_option("placement", base.placement,
                 "placement strategy (see --list)");
  cli.add_option("placement-params", "", "placement params, e.g. distance=3");
  cli.add_option("pair-distance", "",
                 "shorthand for --placement-params=distance=<d>");
  cli.add_option("labeling", base.labeling, "labeling strategy (see --list)");
  cli.add_option("uxs", base.sequence, "sequence policy (see --list)");
  cli.add_option("scheduler", base.scheduler,
                 "scheduling adversary (see --list)");
  cli.add_option("scheduler-params", "",
                 "scheduler params, e.g. max-delay=32");
  cli.add_option("known-distance",
                 std::to_string(base.known_min_pair_distance),
                 "Remark 13 hint (-1 = off)");
  cli.add_flag("delta-aware", "Remark 14: robots know the max degree");
  cli.add_option("seed", std::to_string(base.seed), "deterministic seed");
  cli.add_option("hard-cap", std::to_string(base.hard_cap),
                 "override the round cap (0 = derived; huge implicit "
                 "instances need a bounded probe)");
  cli.add_option("record", "", "record the run as a binary trace file");
  cli.add_option("replay", "", "replay a binary trace file and exit");
  cli.add_flag("diff", "compare two trace files (positional args)");
  cli.add_option("trace-dir", "",
                 "sweep mode: record every row's trace into this directory");
  cli.add_flag("timeline", "print per-stage movement analysis");
  cli.add_flag("profile",
               "print the engine's work counters to stderr as JSON "
               "(single run only)");
  cli.add_option("dot", "", "write instance+result as Graphviz DOT");
  cli.add_option("save-graph", "", "write the graph as an edge list");
  cli.add_flag("list", "list every registry entry and exit");
  cli.add_flag("list-md",
               "emit the registry reference as markdown (docs/SCENARIOS.md)");
  cli.add_flag("sweep", "run a cartesian sweep instead of one instance");
  cli.add_option("families", "", "sweep axis: comma-separated families");
  cli.add_option("sizes", "", "sweep axis: comma-separated node counts");
  cli.add_option("k-rules", "", "sweep axis: comma-separated k-rules");
  cli.add_option("placements", "", "sweep axis: comma-separated placements");
  cli.add_option("algorithms", "", "sweep axis: comma-separated algorithms");
  cli.add_option("schedulers", "", "sweep axis: comma-separated schedulers");
  cli.add_option("seeds", "", "sweep axis: comma-separated seeds");
  cli.add_option("format", "csv", "sweep output: csv|json");
  cli.add_option("out", "", "sweep output file (default stdout)");
  cli.add_option("threads", std::to_string(defaults.threads),
                 "sweep worker threads (0 = auto)");
  cli.add_option("steal-chunk", std::to_string(defaults.steal_chunk),
                 "sweep executor: indices per steal chunk (0 = auto)");
  cli.add_flag("cache",
               "sweep mode: memoize completed rows by spec fingerprint "
               "(bypassed when --trace-dir is set)");
  cli.add_flag("cache-stats",
               "sweep mode: print graph/result cache counters to stderr");
  cli.add_flag("help", "show this help");
  try {
    cli.parse(argc, argv);
    if (cli.get_flag("help")) {
      std::cout << cli.usage("gather_cli");
      return 0;
    }
    if (cli.get_flag("list")) {
      print_list(std::cout);
      return 0;
    }
    if (cli.get_flag("list-md")) {
      print_list_md(std::cout);
      return 0;
    }
    if (cli.get_flag("diff")) return run_diff(cli);
    if (cli.provided("replay")) return run_replay(cli);
    // One Service for the invocation: the CLI is an embedder like any
    // other, so its graph/result caches live exactly as long as main.
    Service service;
    if (cli.get_flag("sweep")) {
      if (cli.get_flag("profile")) {
        throw support::CliError("--profile is single-run only");
      }
      return run_sweep(cli, service);
    }
    return run_single(cli, service);
  } catch (const support::CliError& e) {
    std::cerr << "error: " << e.what() << "\n\n" << cli.usage("gather_cli");
    return 2;
  } catch (const scenario::ScenarioError& e) {
    // Unknown registry keys / parameters / unsatisfiable specs: the
    // user's request was malformed — usage, like GATHER_STATUS_USAGE.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    // Everything else — engine invariants, trace IO/corruption — is an
    // internal failure, like GATHER_STATUS_INTERNAL.
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
}
