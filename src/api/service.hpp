// gather::Service — the embeddable context object fronting the library.
//
// A Service owns everything a long-lived embedding accumulates across
// requests: the graph cache, the fingerprint result cache, and the
// sweep thread configuration. There is deliberately no process-wide
// state behind it — two Services in one process have fully independent
// cache lifetimes (independent hit/miss counters, independent clear()),
// which is what makes the library safe to embed twice (a test harness
// next to a server, two tenants in one process) without either
// observing the other.
//
// The C-callable stable ABI in include/libgather.h wraps exactly this
// class: gather_service_new/free are new/delete on a Service,
// gather_run_json/gather_sweep_csv/gather_cache_stats are run()/sweep()
// /cache_stats() plus text serialization. C++ embedders can use Service
// directly and skip the C boundary.
//
// Layer contract (umbrella for src/api/): the embedding surface. Sits
// above scenario/; may depend on src/{support,graph,sim,uxs,core,
// scenario} and is depended on only by harnesses and external
// embedders. See docs/ARCHITECTURE.md §1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/caches.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "sim/trace.hpp"

namespace gather {

class Service {
 public:
  struct Config {
    /// Cache capacities in entries; 0 = the cache's own default.
    std::size_t graph_cache_capacity = 0;
    std::size_t result_cache_capacity = 0;
    /// Default worker count for sweep() when the SweepSpec leaves
    /// threads at 0; 0 = support::default_thread_count().
    unsigned sweep_threads = 0;
  };

  /// One Service's cache counter snapshot — never aggregated across
  /// contexts, because there is no cross-context state to aggregate.
  struct CacheStats {
    scenario::GraphCacheStats graphs;
    scenario::ResultCacheStats results;
  };

  /// The spec-pure result of run() plus whether the memo supplied it.
  struct RunReport {
    std::size_t realized_n = 0;
    std::uint32_t min_pair_distance = 0;
    core::RunOutcome outcome;
    bool cache_hit = false;
  };

  /// A decoded trace and its re-execution (see sim/trace.hpp).
  struct ReplayReport {
    sim::Trace trace;
    sim::ReplayResult replay;
  };

  Service() = default;
  explicit Service(const Config& config);

  // The caches hold mutexes and the context identity IS the object:
  // copying a Service would silently fork its state.
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Resolve the full instance through this context's graph cache.
  [[nodiscard]] scenario::ResolvedScenario resolve(
      const scenario::ScenarioSpec& spec);

  /// Run one scenario, memoized through this context's result cache:
  /// a repeated spec is a fingerprint hit and skips the simulation
  /// entirely (sound because outcomes are pure functions of the spec;
  /// see result_cache.hpp). Two deliberate bypasses: a spec with
  /// trace_path set always runs (a hit would skip the trace write),
  /// and a run aborted by ProtocolViolation propagates un-memoized
  /// (whether a violation is an outcome or an error is harness policy
  /// outside the fingerprint).
  [[nodiscard]] RunReport run(const scenario::ScenarioSpec& spec);

  /// SweepRunner::run against this context's caches. A SweepSpec with
  /// threads == 0 inherits Config::sweep_threads.
  [[nodiscard]] std::vector<scenario::SweepRow> sweep(
      const scenario::SweepSpec& spec, scenario::SweepStats* stats = nullptr);

  /// Decode, re-execute, and cross-check a binary trace file. Static:
  /// replay touches no cache (it never simulates). Throws
  /// sim::TraceError on IO failure, corruption, or replay mismatch.
  [[nodiscard]] static ReplayReport replay(const std::string& trace_path);

  [[nodiscard]] CacheStats cache_stats() const;

  /// Drop both caches' entries and counters — this context's only.
  void clear_caches();

  /// The underlying cache pair, for harnesses that drive SweepRunner
  /// or scenario::resolve directly but want this context's lifetime.
  [[nodiscard]] scenario::Caches& caches() { return caches_; }

 private:
  Config config_;
  scenario::Caches caches_;
};

}  // namespace gather
