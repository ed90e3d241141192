#include "api/service.hpp"

namespace gather {
namespace {

std::size_t or_default(std::size_t requested, std::size_t fallback) {
  return requested == 0 ? fallback : requested;
}

}  // namespace

Service::Service(const Config& config)
    : config_(config),
      caches_(or_default(config.graph_cache_capacity,
                         scenario::GraphCache().capacity()),
              or_default(config.result_cache_capacity,
                         scenario::ResultCache().capacity())) {}

scenario::ResolvedScenario Service::resolve(const scenario::ScenarioSpec& spec) {
  return scenario::resolve(spec, caches_.graphs);
}

Service::RunReport Service::run(const scenario::ScenarioSpec& spec) {
  // A memo hit skips the run, so it must be off whenever the run has an
  // observable side effect the memo cannot replay — the trace file.
  const bool memo = spec.trace_path.empty();
  std::string fp;
  if (memo) {
    fp = scenario::fingerprint(spec);
    if (const auto hit = caches_.results.lookup(fp)) {
      return RunReport{hit->realized_n, hit->min_pair_distance, hit->outcome,
                       /*cache_hit=*/true};
    }
  }
  const scenario::ResolvedScenario resolved =
      scenario::resolve(spec, caches_.graphs);
  RunReport report;
  report.realized_n = resolved.realized_n;
  report.min_pair_distance = resolved.min_pair_distance;
  // A ProtocolViolation propagates from here with nothing stored:
  // violation outcomes never enter the memo (result_cache.hpp).
  report.outcome = scenario::run_resolved(resolved, spec.trace_path);
  if (memo) {
    caches_.results.store(
        fp, scenario::CachedRun{report.realized_n, report.min_pair_distance,
                                report.outcome});
  }
  return report;
}

std::vector<scenario::SweepRow> Service::sweep(const scenario::SweepSpec& spec,
                                               scenario::SweepStats* stats) {
  scenario::SweepSpec effective = spec;
  if (effective.threads == 0) effective.threads = config_.sweep_threads;
  return scenario::SweepRunner::run(effective, caches_, stats);
}

Service::ReplayReport Service::replay(const std::string& trace_path) {
  ReplayReport report;
  report.trace = sim::decode_trace(sim::read_trace_file(trace_path));
  report.replay = sim::replay_trace(report.trace);
  return report;
}

Service::CacheStats Service::cache_stats() const {
  return CacheStats{caches_.graphs.stats(), caches_.results.stats()};
}

void Service::clear_caches() { caches_.clear(); }

}  // namespace gather
