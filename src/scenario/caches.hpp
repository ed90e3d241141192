// Context-owned cache pair — the state a long-lived embedding owns.
//
// One `Caches` bundles the immutable graph cache and the fingerprint
// result cache that a resolution/sweep threads through. There is no
// process-wide instance: whoever wants cross-call warmth (a
// `gather::Service`, a bench harness, a test) constructs a `Caches` and
// passes it down, so two services in one process have fully independent
// cache lifetimes and `clear()` semantics. A single resolution that is
// passed nothing builds fresh; a sweep always runs against the caller's
// bundle — never shared globals.
#pragma once

#include <cstddef>

#include "scenario/graph_cache.hpp"
#include "scenario/result_cache.hpp"

namespace gather::scenario {

struct Caches {
  Caches() = default;
  Caches(std::size_t graph_capacity, std::size_t result_capacity)
      : graphs(graph_capacity), results(result_capacity) {}

  /// Drop every entry and reset the counters of both caches. Affects
  /// only this bundle — another context's entries are untouched.
  void clear() {
    graphs.clear();
    results.clear();
  }

  GraphCache graphs;
  ResultCache results;
};

}  // namespace gather::scenario
