#include "pipeline.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "api/spec_text.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "sim/trace.hpp"
#include "support/assert.hpp"
#include "support/parallel_for.hpp"

namespace perfbench {
namespace {

namespace scenario = gather::scenario;

constexpr const char* kCacheHitField = ", \"cache_hit\": ";

/// The ABI's run JSON (src/api/libgather.cpp) without "cache_hit".
std::string report_json(std::size_t realized_n, std::uint32_t min_pair_distance,
                        const gather::core::RunOutcome& outcome) {
  const auto& result = outcome.result;
  std::ostringstream os;
  os << "{\"realized_n\": " << realized_n
     << ", \"min_pair_distance\": " << min_pair_distance
     << ", \"gathered\": " << (result.gathered_at_end ? "true" : "false")
     << ", \"detection_correct\": "
     << (result.detection_correct ? "true" : "false")
     << ", \"rounds\": " << result.metrics.rounds
     << ", \"total_moves\": " << result.metrics.total_moves
     << ", \"message_bits\": " << result.metrics.total_message_bits
     << ", \"stage_hop\": " << outcome.gathered_stage_hop
     << ", \"peak_map_bits\": " << outcome.peak_map_bits
     << ", \"trace_hash\": " << result.metrics.trace_hash << "}\n";
  return os.str();
}

Outcome failed_with(gather_status status, const char* detail) {
  Outcome out;
  out.status = status;
  out.output = std::string("status=") + gather_status_name(status);
  out.detail = detail;
  return out;
}

/// The ABI's exception-to-status mapping, for the C++ paths.
template <typename Fn>
Outcome guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const gather::ProtocolViolation& e) {
    return failed_with(GATHER_STATUS_VIOLATION, e.what());
  } catch (const gather::sim::TraceError& e) {
    return failed_with(GATHER_STATUS_TRACE, e.what());
  } catch (const scenario::ScenarioError& e) {
    return failed_with(GATHER_STATUS_USAGE, e.what());
  } catch (const std::exception& e) {
    return failed_with(GATHER_STATUS_INTERNAL, e.what());
  }
}

std::size_t count_rows(const std::string& csv) {
  const std::size_t lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  return lines == 0 ? 0 : lines - 1;  // minus the header
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, sep)) cells.push_back(cell);
  return cells;
}

std::string csv_string(const std::vector<scenario::SweepRow>& rows) {
  std::ostringstream os;
  scenario::SweepRunner::write_csv(os, rows);
  return os.str();
}

}  // namespace

std::string judge(const Request& request, const Outcome& outcome) {
  if (outcome.status != GATHER_STATUS_OK) {
    const bool tolerated = request.kind == Kind::Run && request.adversarial &&
                           outcome.status == GATHER_STATUS_VIOLATION;
    return tolerated ? "" : outcome.output + ": " + outcome.detail;
  }
  if (request.kind == Kind::Run) {
    if (!request.synchronous) return "";
    const bool ok =
        outcome.output.find("\"gathered\": true") != std::string::npos &&
        outcome.output.find("\"detection_correct\": true") != std::string::npos;
    return ok ? "" : "synchronous run did not gather with detection";
  }
  std::istringstream is(outcome.output);
  std::string line;
  if (!std::getline(is, line)) return "empty sweep CSV";
  const std::vector<std::string> header = split(line, ',');
  const auto column = [&](const char* name) {
    return static_cast<std::size_t>(
        std::find(header.begin(), header.end(), name) - header.begin());
  };
  const std::size_t scheduler = column("scheduler");
  const std::size_t gathered = column("gathered");
  const std::size_t detection = column("detection");
  const std::size_t violation = column("violation");
  if (violation >= header.size()) return "sweep CSV lacks its columns";
  while (std::getline(is, line)) {
    const std::vector<std::string> cells = split(line, ',');
    if (cells.size() != header.size()) return "ragged sweep CSV row";
    if (cells[scheduler] != "synchronous") continue;
    if (cells[gathered] != "1" || cells[detection] != "1" ||
        cells[violation] != "0") {
      return "synchronous sweep row did not gather with detection";
    }
  }
  return "";
}

Outcome run_fresh_service(const Request& request) {
  return guarded([&] {
    gather::Service service;
    const gather::Service::RunReport report =
        service.run(gather::api::parse_run_spec(request.text));
    Outcome out;
    out.output = report_json(report.realized_n, report.min_pair_distance,
                             report.outcome);
    out.cache_hit = report.cache_hit;
    out.rows = 1;
    return out;
  });
}

Outcome sweep_fresh_service(const Request& request) {
  return guarded([&] {
    gather::Service service;
    Outcome out;
    out.output =
        csv_string(service.sweep(gather::api::parse_sweep_spec(request.text)));
    out.rows = count_rows(out.output);
    return out;
  });
}

Outcome call_abi(gather_service* service, const Request& request) {
  char* payload = nullptr;
  const gather_status status =
      request.kind == Kind::Run
          ? gather_run_json(service, request.text.c_str(), &payload)
          : gather_sweep_csv(service, request.text.c_str(), &payload);
  if (status != GATHER_STATUS_OK) {
    gather_free(payload);
    return failed_with(status, gather_last_error());
  }
  Outcome out;
  out.output = payload;
  gather_free(payload);
  if (request.kind == Kind::Sweep) {
    out.rows = count_rows(out.output);
    return out;
  }
  out.rows = 1;
  const std::size_t at = out.output.find(kCacheHitField);
  if (at != std::string::npos) {
    const std::size_t value = at + std::char_traits<char>::length(kCacheHitField);
    out.cache_hit = out.output.compare(value, 4, "true") == 0;
    out.output.erase(at, out.output.find('}', at) - at);
  }
  return out;
}

std::string reference_sweep_csv(const std::string& text) {
  scenario::Caches caches;
  return csv_string(
      scenario::SweepRunner::run(gather::api::parse_sweep_spec(text), caches));
}

Outcome Composer::call(TracedContext* shared, const Request& request,
                       std::uint64_t request_id) {
  const Span root(&log_, "api.request", request_id);
  std::unique_ptr<TracedContext> fresh;
  if (shared == nullptr) {
    const Span span(&log_, "api.service_new", request_id);
    fresh = std::make_unique<TracedContext>(gather::Service::Config{});
  }
  TracedContext& context = shared != nullptr ? *shared : *fresh;
  Outcome out = guarded([&] {
    return request.kind == Kind::Run ? run(context, request, request_id)
                                     : sweep(context, request, request_id);
  });
  if (fresh) retire(*fresh);
  return out;
}

void Composer::retire(const TracedContext& context) {
  const gather::Service::CacheStats stats = context.service.cache_stats();
  counters_.graph_misses += stats.graphs.misses;
  std::uint64_t seen = counters_.result_resident_bytes_max.load();
  while (seen < stats.results.resident_bytes &&
         !counters_.result_resident_bytes_max.compare_exchange_weak(
             seen, stats.results.resident_bytes)) {
  }
}

std::optional<scenario::CachedRun> Composer::lookup(TracedContext& context,
                                                    const std::string& fp,
                                                    std::uint64_t request_id) {
  std::optional<scenario::CachedRun> hit;
  {
    const Span span(&log_, "scenario.result_cache.lookup", request_id);
    hit = context.service.caches().results.lookup(fp);
  }
  ++counters_.lookups;
  bool repeat = false;
  {
    const std::lock_guard<std::mutex> lock(context.seen_mutex);
    repeat = !context.seen.insert(fp).second;
  }
  if (hit) {
    ++counters_.hits;
  } else if (repeat) {
    ++counters_.resimulated;
  }
  return hit;
}

gather::core::RunOutcome Composer::run_counted(
    scenario::ResolvedScenario& resolved, std::uint64_t request_id) {
  const auto counting =
      std::make_shared<CountingScheduler>(resolved.run_spec.scheduler);
  resolved.run_spec.scheduler = counting;
  gather::core::RunOutcome outcome;
  try {
    const Span span(&log_, "core.run", request_id);
    outcome = scenario::run_resolved(resolved, "");
  } catch (...) {
    counters_.activates_calls += counting->activates_calls();
    throw;
  }
  counters_.activates_calls += counting->activates_calls();
  const auto& metrics = outcome.result.metrics;
  counters_.decisions += metrics.decision_calls;
  counters_.moves += metrics.total_moves;
  counters_.message_bits += metrics.total_message_bits;
  counters_.simulated_rounds += metrics.simulated_rounds;
  counters_.rounds += metrics.rounds;
  return outcome;
}

// Mirrors gather::Service::run.
Outcome Composer::run(TracedContext& context, const Request& request,
                      std::uint64_t request_id) {
  scenario::ScenarioSpec spec;
  {
    const Span span(&log_, "api.parse", request_id);
    spec = gather::api::parse_run_spec(request.text);
  }
  const bool memo = spec.trace_path.empty();
  std::string fp;
  Outcome out;
  out.rows = 1;
  if (memo) {
    {
      const Span span(&log_, "scenario.fingerprint", request_id);
      fp = scenario::fingerprint(spec);
    }
    if (const auto hit = lookup(context, fp, request_id)) {
      out.output = report_json(hit->realized_n, hit->min_pair_distance,
                               hit->outcome);
      out.cache_hit = true;
      return out;
    }
  }
  auto& caches = context.service.caches();
  {
    const Span span(&log_, "scenario.resolve_graph", request_id);
    (void)scenario::resolve_graph(spec, caches.graphs);
  }
  ++counters_.graph_calls;
  scenario::ResolvedScenario resolved;
  {
    const Span span(&log_, "scenario.resolve", request_id);
    resolved = scenario::resolve(spec, caches.graphs);
  }
  const gather::core::RunOutcome outcome = run_counted(resolved, request_id);
  if (memo) {
    const Span span(&log_, "scenario.result_cache.store", request_id);
    caches.results.store(fp, scenario::CachedRun{resolved.realized_n,
                                                 resolved.min_pair_distance,
                                                 outcome});
  }
  out.output =
      report_json(resolved.realized_n, resolved.min_pair_distance, outcome);
  return out;
}

// Mirrors gather::Service::sweep -> SweepRunner::run, then write_csv.
Outcome Composer::sweep(TracedContext& context, const Request& request,
                        std::uint64_t request_id) {
  scenario::SweepSpec sweep;
  {
    const Span span(&log_, "api.parse", request_id);
    sweep = gather::api::parse_sweep_spec(request.text);
  }
  if (sweep.threads == 0) sweep.threads = context.sweep_threads;
  const unsigned threads = sweep.threads == 0
                               ? gather::support::default_thread_count()
                               : sweep.threads;
  std::vector<scenario::SweepPoint> points;
  {
    const Span span(&log_, "scenario.enumerate", request_id);
    points = scenario::SweepRunner::enumerate(sweep);
  }
  auto& caches = context.service.caches();
  const bool memo = sweep.use_result_cache && sweep.trace_dir.empty();
  std::vector<std::string> infeasible(points.size());
  std::vector<scenario::SweepRow> rows;
  {
    const Span executor(&log_, "support.executor", request_id, threads);
    const std::int64_t parent = executor.id();
    rows = gather::support::parallel_map_index<scenario::SweepRow>(
        points.size(), threads,
        [&](std::size_t i) {
          const Span point_span(&log_, "scenario.point", request_id, parent);
          const scenario::SweepPoint& point = points[i];
          scenario::SweepRow row;
          row.spec = point.spec;
          row.k_rule = point.k_rule;
          std::string fp;
          if (memo) {
            {
              const Span span(&log_, "scenario.fingerprint", request_id);
              fp = scenario::fingerprint(point.spec);
            }
            if (const auto hit = lookup(context, fp, request_id)) {
              row.realized_n = hit->realized_n;
              row.min_pair_distance = hit->min_pair_distance;
              row.outcome = hit->outcome;
              return row;
            }
          }
          scenario::ResolvedScenario resolved;
          try {
            {
              const Span span(&log_, "scenario.resolve_graph", request_id);
              (void)scenario::resolve_graph(point.spec, caches.graphs);
            }
            ++counters_.graph_calls;
            const Span span(&log_, "scenario.resolve", request_id);
            resolved = scenario::resolve(point.spec, caches.graphs);
          } catch (const scenario::ScenarioError& e) {
            if (!sweep.skip_infeasible) throw;
            infeasible[i] = e.what();
            return row;
          } catch (const gather::ContractViolation& e) {
            if (!sweep.skip_infeasible) throw;
            infeasible[i] = e.what();
            return row;
          }
          row.realized_n = resolved.realized_n;
          row.min_pair_distance = resolved.min_pair_distance;
          try {
            row.outcome = run_counted(resolved, request_id);
          } catch (const gather::ProtocolViolation&) {
            const gather::sim::Scheduler* sched =
                resolved.run_spec.scheduler.get();
            const bool benign = sched == nullptr || !sched->adversarial();
            if (!sweep.tolerate_protocol_violations || benign) throw;
            row.protocol_violation = true;
          }
          if (memo && !row.protocol_violation) {
            const Span span(&log_, "scenario.result_cache.store", request_id);
            caches.results.store(
                fp, scenario::CachedRun{row.realized_n, row.min_pair_distance,
                                        row.outcome});
          }
          return row;
        },
        sweep.steal_chunk);
  }
  if (sweep.skip_infeasible) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!infeasible[i].empty()) continue;
      if (kept != i) rows[kept] = std::move(rows[i]);
      ++kept;
    }
    if (kept == 0 && !rows.empty()) {
      throw scenario::ScenarioError(
          "every sweep point was infeasible; first error: " + infeasible.front());
    }
    rows.resize(kept);
  }
  Outcome out;
  {
    const Span span(&log_, "scenario.csv", request_id);
    out.output = csv_string(rows);
  }
  out.rows = rows.size();
  return out;
}

}  // namespace perfbench
