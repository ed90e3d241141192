// Fingerprint-keyed sweep result cache — memoized whole-run outcomes.
//
// Rows are a byte-deterministic pure function of their ScenarioSpec (the
// SweepRunner contract: same spec → same CSV bytes at any thread count),
// which is exactly the soundness condition for memoizing completed
// outcomes: a hit returns data indistinguishable from re-running the
// point. The cache is keyed by scenario::fingerprint() — every
// behavior-relevant spec field including the seed, params in canonical
// order.
//
// Two deliberate non-cachings keep that argument airtight:
//  * Protocol-violation rows are never stored. Whether a violation is a
//    recorded outcome or a sweep abort depends on
//    SweepSpec::tolerate_protocol_violations, which is a *harness*
//    policy outside the fingerprint; caching the row would let a
//    tolerant sweep's outcome leak into an intolerant one.
//  * SweepRunner bypasses the cache entirely when trace_dir is set: a
//    hit skips the run, so the trace file it was supposed to write
//    would silently not exist.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "core/run.hpp"

namespace gather::scenario {

/// The spec-pure slice of a SweepRow (everything except the wall-clock
/// timings and the spec echo the runner already has).
struct CachedRun {
  std::size_t realized_n = 0;
  std::uint32_t min_pair_distance = 0;
  core::RunOutcome outcome;
};

/// Counters for SweepRunner stats and `gather_cli --cache-stats`.
/// `resident_bytes` approximates live payload: fingerprint keys plus
/// the fixed outcome footprint.
struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::uint64_t resident_bytes = 0;
};

class ResultCache {
 public:
  /// Capacity in entries. The default holds the CI grids several times
  /// over; eviction is LRU by logical access tick (never a wall clock —
  /// the determinism lint bans clock reads in src/).
  explicit ResultCache(std::size_t capacity = 4096);

  /// nullopt counts as a miss; a hit bumps the entry's recency.
  [[nodiscard]] std::optional<CachedRun> lookup(const std::string& fingerprint);

  /// Idempotent: storing an already-present key keeps the existing
  /// entry (equal fingerprints imply equal outcomes, so either copy is
  /// correct — keeping the first avoids re-measuring bytes).
  void store(const std::string& fingerprint, const CachedRun& run);

  [[nodiscard]] ResultCacheStats stats() const;

  /// Drop everything and reset counters (bench cold-start hygiene).
  void clear();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    CachedRun run;
    std::uint64_t last_use = 0;
    std::uint64_t bytes = 0;
  };

  void evict_lru_locked();

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  std::uint64_t tick_ = 0;  ///< logical LRU clock
  ResultCacheStats stats_;
};

// There is deliberately no process-wide ResultCache instance: the memo
// is owned by an explicit context (scenario::Caches, fronted by
// gather::Service in src/api/) and handed to SweepRunner::run — two
// embeddings in one process never share or clear each other's entries.

}  // namespace gather::scenario
