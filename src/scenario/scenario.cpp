#include "scenario/scenario.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "scenario/graph_cache.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"

namespace gather::scenario {

std::uint64_t sub_seed(std::uint64_t seed, SeedAxis axis) {
  return support::hash_combine(seed, static_cast<std::uint64_t>(axis));
}

namespace {

std::shared_ptr<const graph::Topology> resolve_graph_impl(
    const ScenarioSpec& spec, GraphCache* cache) {
  const auto& family = graph_families().get(spec.family);
  graph_families().validate_params(family, spec.family_params);
  const std::uint64_t graph_seed = sub_seed(spec.seed, SeedAxis::Graph);
  if (cache == nullptr || spec.family == "file") {
    // No cache handle: the caller owns no context, so build fresh.
    // "file" reads the filesystem — not a pure function of the key, so a
    // cache hit could mask an edited file — and bypasses any cache.
    return family.factory(spec.n, spec.family_params, graph_seed);
  }
  return cache->get_or_build(
      spec.family, spec.family_params, spec.n, graph_seed,
      [&] { return family.factory(spec.n, spec.family_params, graph_seed); });
}

ResolvedScenario resolve_impl(const ScenarioSpec& spec, GraphCache* cache) {
  const auto& family = graph_families().get(spec.family);
  graph_families().validate_params(family, spec.family_params);
  const auto& placement = placements().get(spec.placement);
  placements().validate_params(placement, spec.placement_params);
  const auto& labeling = labelings().get(spec.labeling);
  const auto& algorithm = algorithms().get(spec.algorithm);
  const auto& sequence = sequences().get(spec.sequence);
  const auto& scheduler = schedulers().get(spec.scheduler);
  schedulers().validate_params(scheduler, spec.scheduler_params);

  ResolvedScenario r;
  r.requested_n = spec.n;
  r.graph = resolve_graph_impl(spec, cache);
  r.realized_n = r.graph->num_nodes();

  const std::vector<graph::NodeId> nodes =
      placement.factory(*r.graph, spec.k, spec.placement_params,
                        sub_seed(spec.seed, SeedAxis::Placement));
  const std::vector<graph::RobotLabel> labels =
      labeling.factory(spec.k, r.realized_n, spec.id_exponent_b,
                       sub_seed(spec.seed, SeedAxis::Labels));
  r.placement = graph::make_placement(nodes, labels);
  if (spec.k >= 2) {
    r.min_pair_distance = graph::min_pairwise_distance(*r.graph, nodes);
  }

  r.run_spec.algorithm = algorithm.factory;
  r.run_spec.config = core::make_config(
      *r.graph,
      sequence.factory(*r.graph, sub_seed(spec.seed, SeedAxis::Sequence)));
  r.run_spec.config.id_exponent_b = spec.id_exponent_b;
  if (spec.delta_aware) {
    r.run_spec.config.delta_aware = true;
    r.run_spec.config.known_delta = r.graph->max_degree();
  }
  r.run_spec.config.known_min_pair_distance = spec.known_min_pair_distance;
  r.run_spec.hard_cap = spec.hard_cap;
  r.run_spec.scheduler = scheduler.factory(
      spec.k, spec.scheduler_params, sub_seed(spec.seed, SeedAxis::Scheduler));
  // The scheduler's fairness bound is common knowledge, like n: it is
  // what lets the algorithms run SSYNC-tolerant budgets under
  // `semi-synchronous` instead of violating their protocol invariants
  // (1 — every non-suppressing scheduler — leaves them untouched).
  r.run_spec.config.fairness =
      std::max<sim::Round>(1, r.run_spec.scheduler->fairness_bound());
  return r;
}

}  // namespace

std::shared_ptr<const graph::Topology> resolve_graph(const ScenarioSpec& spec) {
  return resolve_graph_impl(spec, nullptr);
}

std::shared_ptr<const graph::Topology> resolve_graph(const ScenarioSpec& spec,
                                                     GraphCache& cache) {
  return resolve_graph_impl(spec, &cache);
}

ResolvedScenario resolve(const ScenarioSpec& spec) {
  return resolve_impl(spec, nullptr);
}

ResolvedScenario resolve(const ScenarioSpec& spec, GraphCache& cache) {
  return resolve_impl(spec, &cache);
}

std::string fingerprint(const ScenarioSpec& spec) {
  // Newline-framed field=value lines; Params serialize in std::map
  // order, so logically equal specs always produce identical bytes.
  std::string fp;
  const auto field = [&fp](const char* name, const std::string& value) {
    fp += name;
    fp += '=';
    fp += value;
    fp += '\n';
  };
  const auto params = [&field](const char* name, const Params& bag) {
    for (const auto& [key, value] : bag.entries()) {
      field(name, key + ':' + value);
    }
  };
  field("family", spec.family);
  params("family_param", spec.family_params);
  field("placement", spec.placement);
  params("placement_param", spec.placement_params);
  field("labeling", spec.labeling);
  field("algorithm", spec.algorithm);
  field("sequence", spec.sequence);
  field("scheduler", spec.scheduler);
  params("scheduler_param", spec.scheduler_params);
  field("n", std::to_string(spec.n));
  field("k", std::to_string(spec.k));
  field("id_exponent_b", std::to_string(spec.id_exponent_b));
  field("seed", std::to_string(spec.seed));
  field("delta_aware", spec.delta_aware ? "1" : "0");
  field("known_min_pair_distance",
        std::to_string(spec.known_min_pair_distance));
  field("hard_cap", std::to_string(spec.hard_cap));
  // trace_path is deliberately absent: it names where a trace goes, not
  // what the run does.
  return fp;
}

core::RunOutcome run_scenario(const ScenarioSpec& spec) {
  return run_resolved(resolve(spec), spec.trace_path);
}

core::RunOutcome run_resolved(const ResolvedScenario& resolved,
                              const std::string& trace_path) {
  if (trace_path.empty()) {
    return core::run_gathering(*resolved.graph, resolved.placement,
                               resolved.run_spec);
  }
  // A recorder the caller already set is reused, so one run can both
  // feed the caller's analysis (gather_cli --timeline) and write the file.
  sim::TraceRecorder own;
  core::RunSpec spec = resolved.run_spec;
  if (spec.trace_recorder == nullptr) spec.trace_recorder = &own;
  const sim::TraceRecorder& recorder = *spec.trace_recorder;
  try {
    const core::RunOutcome out =
        core::run_gathering(*resolved.graph, resolved.placement, spec);
    sim::write_trace_file(trace_path, recorder.bytes());
    return out;
  } catch (const ProtocolViolation&) {
    // run_gathering sealed the trace with a violation terminal record;
    // persist it (the partial trace is the evidence) and let the
    // harness's tolerance policy decide what the exception means.
    if (recorder.finished()) {
      sim::write_trace_file(trace_path, recorder.bytes());
    }
    throw;
  }
}

}  // namespace gather::scenario
