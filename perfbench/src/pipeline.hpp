// How the harness calls the library: through the public front doors
// (untraced) or composed layer by layer with spans (traced).
//
// Front doors: gather::Service::run / sweep for the C++ workloads and
// gather_run_json / gather_sweep_csv for the embedding workload. The
// traced composition replays what those entry points do, one public
// call per layer — parse, enumerate, fingerprint, result-cache lookup,
// resolve_graph, resolve, run_resolved, store, CSV — so each layer gets
// its own span. Both paths yield the same normalized output, which the
// harness compares byte for byte.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "api/service.hpp"
#include "generate.hpp"
#include "libgather.h"
#include "spans.hpp"

namespace perfbench {

struct Outcome {
  gather_status status = GATHER_STATUS_OK;
  /// Run: the ABI's JSON without "cache_hit". Sweep: the CSV bytes.
  /// Non-OK: "status=<name>".
  std::string output;
  /// The error message of a non-OK call (diagnostics only, not compared).
  std::string detail;
  bool cache_hit = false;
  std::size_t rows = 0;
};

/// Every correctness rule that can be judged from one call:
///  * a non-OK status fails unless it is VIOLATION on an adversarial run;
///  * a synchronous run (or sweep row) must gather with detection;
///  * a sweep row under synchronous must not record a violation.
/// Returns "" when the call passes, else the reason.
[[nodiscard]] std::string judge(const Request& request, const Outcome& outcome);

// ---- untraced front doors ----

/// Service::run on a fresh Service (crowded, dispersed).
[[nodiscard]] Outcome run_fresh_service(const Request& request);
/// Service::sweep on a fresh Service, then SweepRunner::write_csv.
[[nodiscard]] Outcome sweep_fresh_service(const Request& request);
/// gather_run_json / gather_sweep_csv on a shared C ABI service.
[[nodiscard]] Outcome call_abi(gather_service* service, const Request& request);
/// Reference CSV for a sweep: SweepRunner::run on a fresh cache pair.
[[nodiscard]] std::string reference_sweep_csv(const std::string& text);

// ---- traced composition ----

/// A C++ service plus the fingerprints it has been asked for, so a
/// repeat that still misses the result cache can be counted.
struct TracedContext {
  explicit TracedContext(const gather::Service::Config& config)
      : service(config), sweep_threads(config.sweep_threads) {}
  gather::Service service;
  unsigned sweep_threads;
  std::mutex seen_mutex;
  std::set<std::string> seen;
};

/// Counters gathered at the layer boundaries of the traced run.
struct LayerCounters {
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> resimulated{0};
  std::atomic<std::uint64_t> graph_calls{0};
  /// Graph-cache misses and the largest result-cache footprint, taken
  /// from each context's counters when it is retired (see retire()).
  std::atomic<std::uint64_t> graph_misses{0};
  std::atomic<std::uint64_t> result_resident_bytes_max{0};
  std::atomic<std::uint64_t> decisions{0};
  std::atomic<std::uint64_t> moves{0};
  std::atomic<std::uint64_t> message_bits{0};
  std::atomic<std::uint64_t> simulated_rounds{0};
  std::atomic<std::uint64_t> rounds{0};
  std::atomic<std::uint64_t> activates_calls{0};
};

class Composer {
 public:
  Composer(SpanLog& log, LayerCounters& counters)
      : log_(log), counters_(counters) {}

  /// One request, composed layer by layer; `request_id` tags its spans.
  /// A null `shared` context gives the request a fresh context of its
  /// own (the workloads that create a Service per request).
  [[nodiscard]] Outcome call(TracedContext* shared, const Request& request,
                             std::uint64_t request_id);

  /// Fold a context's cache counters into the layer counters. Each
  /// resolve() re-reads the graph its resolve_graph() call just cached,
  /// so only misses are taken from the graph cache.
  void retire(const TracedContext& context);

 private:
  Outcome run(TracedContext& context, const Request& request,
              std::uint64_t request_id);
  Outcome sweep(TracedContext& context, const Request& request,
                std::uint64_t request_id);
  /// Counting-scheduler run_resolved under a core.run span.
  gather::core::RunOutcome run_counted(gather::scenario::ResolvedScenario& resolved,
                                       std::uint64_t request_id);
  /// fingerprint + lookup spans; updates hit/resimulated counters.
  std::optional<gather::scenario::CachedRun> lookup(TracedContext& context,
                                                    const std::string& fp,
                                                    std::uint64_t request_id);

  SpanLog& log_;
  LayerCounters& counters_;
};

}  // namespace perfbench
