// Pins for the shared-graph sweep executor: the graph cache (key
// canonicalization, one physical instance across threads, LRU eviction,
// failed-build retry), the fingerprint result cache, and the
// byte-identical-output contract under the work-stealing executor —
// the same grid at thread counts {1,2,3,8,97}, maximal stealing
// (steal_chunk=1), cache on and off, must produce identical CSV bytes
// and identical per-row trace hashes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/spec_text.hpp"
#include "libgather.h"
#include "scenario/caches.hpp"
#include "scenario/graph_cache.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace gather::scenario {
namespace {

TopologyPtr tiny_ring(std::size_t n) {
  ScenarioSpec spec;
  spec.family = "ring";
  spec.n = n;
  return resolve_graph(spec);
}

TEST(GraphCacheTest, KeyIsCanonicalOverParamInsertionOrder) {
  Params ab;
  ab.set("a", "1");
  ab.set("b", "2");
  Params ba;
  ba.set("b", "2");
  ba.set("a", "1");
  EXPECT_EQ(GraphCache::key_of("grid", ab, 12, 7),
            GraphCache::key_of("grid", ba, 12, 7));
}

TEST(GraphCacheTest, KeySeparatesEveryField) {
  const Params none;
  Params one;
  one.set("rows", "3");
  const std::string base = GraphCache::key_of("ring", none, 12, 7);
  EXPECT_NE(base, GraphCache::key_of("path", none, 12, 7));
  EXPECT_NE(base, GraphCache::key_of("ring", none, 13, 7));
  EXPECT_NE(base, GraphCache::key_of("ring", none, 12, 8));
  EXPECT_NE(base, GraphCache::key_of("ring", one, 12, 7));
}

TEST(GraphCacheTest, SharesOnePhysicalGraphAcrossThreads) {
  GraphCache cache(8);
  const Params none;
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const graph::Topology>> got(8);
  std::vector<std::thread> pool;
  pool.reserve(got.size());
  for (std::size_t t = 0; t < got.size(); ++t) {
    pool.emplace_back([&, t] {
      got[t] = cache.get_or_build("ring", none, 9, 5, [&] {
        ++builds;
        return tiny_ring(9);
      });
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& g : got) {
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g.get(), got.front().get());
  }
  // 8 caller refs + the cache's own copy inside the shared_future.
  EXPECT_GE(got.front().use_count(), 8);
  const GraphCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(GraphCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  GraphCache cache(2);
  const Params none;
  const auto build = [](std::size_t n) { return [n] { return tiny_ring(n); }; };
  (void)cache.get_or_build("ring", none, 8, 1, build(8));
  (void)cache.get_or_build("ring", none, 9, 1, build(9));
  // Touch n=8 so n=9 is the LRU victim when n=10 lands.
  (void)cache.get_or_build("ring", none, 8, 1, build(8));
  (void)cache.get_or_build("ring", none, 10, 1, build(10));
  GraphCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // n=8 survived (hit); n=9 was evicted (miss rebuilds it).
  (void)cache.get_or_build("ring", none, 8, 1, build(8));
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  (void)cache.get_or_build("ring", none, 9, 1, build(9));
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
}

TEST(GraphCacheTest, FailedBuildPropagatesAndRetries) {
  GraphCache cache(4);
  const Params none;
  int calls = 0;
  const auto flaky = [&calls]() -> TopologyPtr {
    if (++calls == 1) throw ScenarioError("transient");
    return tiny_ring(9);
  };
  EXPECT_THROW((void)cache.get_or_build("ring", none, 9, 1, flaky),
               ScenarioError);
  // The failed key was erased, so the retry builds instead of rethrowing.
  const auto g = cache.get_or_build("ring", none, 9, 1, flaky);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(GraphCacheTest, ImplicitDescriptorsAreCacheTrivial) {
  // An implicit family resolves through the cache like any other key,
  // but its entry charges ~0 resident bytes: the descriptor is a few
  // integers, not a CSR payload (satellite: byte accounting).
  ScenarioSpec spec;
  spec.family = "implicit-grid";
  spec.n = 1000 * 1000;
  GraphCache cache;
  const TopologyPtr g = resolve_graph(spec, cache);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->num_nodes(), 1000u * 1000u);
  EXPECT_NE(g->as_implicit(), nullptr);
  EXPECT_EQ(g->memory_bytes(), 0u);
  const GraphCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, 0u);  // +0 for the implicit entry
  // A materialized family of trivial size charges its real CSR bytes.
  const TopologyPtr ring = tiny_ring(9);
  EXPECT_GT(ring->memory_bytes(), 0u);
}

TEST(GraphCacheTest, FileFamilyStillBypassesTheCache) {
  // "file" reads the filesystem — not a pure function of the key — so
  // resolve_graph must build it fresh every time, never caching.
  const std::string path = testing::TempDir() + "/bypass_ring.edges";
  {
    std::ofstream os(path);
    os << "nodes 3\nedge 0 1\nedge 1 2\nedge 2 0\n";
  }
  ScenarioSpec spec;
  spec.family = "file";
  spec.family_params.set("path", path);
  spec.n = 3;
  GraphCache cache;
  const TopologyPtr a = resolve_graph(spec, cache);
  const TopologyPtr b = resolve_graph(spec, cache);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());  // fresh build per call, never shared
  const GraphCacheStats after = cache.stats();
  EXPECT_EQ(after.hits, 0u);
  EXPECT_EQ(after.misses, 0u);
  EXPECT_EQ(after.entries, 0u);
}

TEST(GraphCacheTest, ResolveSharesGraphBetweenIdenticalSpecs) {
  ScenarioSpec spec;
  spec.family = "torus";
  spec.n = 9;
  spec.k = 3;
  GraphCache cache;
  const ResolvedScenario a = resolve(spec, cache);
  const ResolvedScenario b = resolve(spec, cache);
  EXPECT_EQ(a.graph.get(), b.graph.get());
  spec.seed += 1;
  const ResolvedScenario c = resolve(spec, cache);
  EXPECT_NE(a.graph.get(), c.graph.get());
}

TEST(GraphCacheTest, CachelessResolveBuildsFresh) {
  // No cache handle = no context: every call builds its own instance,
  // and no process-wide state exists for the builds to leak into.
  ScenarioSpec spec;
  spec.family = "torus";
  spec.n = 9;
  spec.k = 3;
  const ResolvedScenario a = resolve(spec);
  const ResolvedScenario b = resolve(spec);
  EXPECT_NE(a.graph.get(), b.graph.get());
}

TEST(ResultCacheTest, StoreLookupAndLruEviction) {
  ResultCache cache(2);
  CachedRun run;
  run.realized_n = 9;
  run.min_pair_distance = 3;
  cache.store("a", run);
  cache.store("b", run);
  EXPECT_TRUE(cache.lookup("a").has_value());  // bumps a's recency
  cache.store("c", run);                       // evicts b (LRU)
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  const std::optional<CachedRun> hit = cache.lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->realized_n, 9u);
  EXPECT_EQ(hit->min_pair_distance, 3u);
}

TEST(FingerprintTest, SeparatesSpecsAndIgnoresTracePath) {
  ScenarioSpec spec;
  const std::string base = fingerprint(spec);
  ScenarioSpec other = spec;
  other.seed += 1;
  EXPECT_NE(base, fingerprint(other));
  other = spec;
  other.n += 1;
  EXPECT_NE(base, fingerprint(other));
  other = spec;
  other.algorithm = "uxs";
  EXPECT_NE(base, fingerprint(other));
  other = spec;
  other.delta_aware = true;
  EXPECT_NE(base, fingerprint(other));
  other = spec;
  other.hard_cap = 123;
  EXPECT_NE(base, fingerprint(other));  // hard_cap changes the outcome
  other = spec;
  other.trace_path = "/tmp/somewhere.trace";
  EXPECT_EQ(base, fingerprint(other));
}

// ---- determinism stress: the executor/cache torture grid ----

SweepSpec stress_grid() {
  SweepSpec sweep;
  sweep.families = {"ring", "torus", "star"};
  sweep.sizes = {9, 12};
  sweep.seeds = {1, 2};
  sweep.base.k = 3;
  sweep.skip_infeasible = true;
  return sweep;
}

std::string csv_of(const std::vector<SweepRow>& rows) {
  std::ostringstream os;
  SweepRunner::write_csv(os, rows);
  return os.str();
}

TEST(SweepDeterminismStress, ByteIdenticalAcrossThreadsStealAndCache) {
  SweepSpec reference_spec = stress_grid();
  reference_spec.threads = 1;
  Caches reference_caches;
  const std::vector<SweepRow> reference =
      SweepRunner::run(reference_spec, reference_caches);
  ASSERT_FALSE(reference.empty());
  const std::string want_csv = csv_of(reference);
  for (const unsigned threads : {1u, 2u, 3u, 8u, 97u}) {
    for (const bool cache : {false, true}) {
      SweepSpec sweep = stress_grid();
      sweep.threads = threads;
      sweep.steal_chunk = 1;  // maximal stealing
      sweep.use_result_cache = cache;
      Caches caches;  // cold per configuration
      const std::vector<SweepRow> rows = SweepRunner::run(sweep, caches);
      EXPECT_EQ(csv_of(rows), want_csv)
          << "threads=" << threads << " cache=" << cache;
      ASSERT_EQ(rows.size(), reference.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].outcome.result.metrics.trace_hash,
                  reference[i].outcome.result.metrics.trace_hash)
            << "row " << i << " threads=" << threads << " cache=" << cache;
      }
    }
  }
}

TEST(SweepResultCacheTest, SecondRunHitsEveryRow) {
  Caches caches;
  SweepSpec sweep = stress_grid();
  sweep.use_result_cache = true;
  sweep.threads = 2;
  SweepStats cold_stats;
  const std::vector<SweepRow> cold =
      SweepRunner::run(sweep, caches, &cold_stats);
  EXPECT_EQ(cold_stats.result_cache.hits, 0u);
  EXPECT_EQ(cold_stats.result_cache.entries, cold.size());
  SweepStats warm_stats;
  const std::vector<SweepRow> warm =
      SweepRunner::run(sweep, caches, &warm_stats);
  EXPECT_EQ(warm_stats.result_cache.hits, warm.size());
  EXPECT_EQ(csv_of(warm), csv_of(cold));
  for (const SweepRow& row : warm) {
    // A hit skips resolution and simulation entirely.
    EXPECT_EQ(row.resolve_seconds, 0.0);
    EXPECT_EQ(row.wall_seconds, 0.0);
  }
}

TEST(SweepResultCacheTest, TraceDirBypassesTheMemo) {
  Caches caches;
  SweepSpec sweep = stress_grid();
  sweep.families = {"ring"};
  sweep.sizes = {9};
  sweep.use_result_cache = true;
  sweep.trace_dir = testing::TempDir();
  SweepStats stats;
  const std::vector<SweepRow> rows = SweepRunner::run(sweep, caches, &stats);
  ASSERT_FALSE(rows.empty());
  // Bypassed entirely: a hit would have skipped the rows' trace writes.
  EXPECT_EQ(stats.result_cache.hits, 0u);
  EXPECT_EQ(stats.result_cache.misses, 0u);
  EXPECT_EQ(stats.result_cache.entries, 0u);
}

TEST(SweepResultCacheTest, AcceptanceGridColdThenWarm) {
  // Every pure family under all four schedulers, n=12, k=4, seed 1: 64
  // rows, run cold then warm through SweepRunner on one Caches and
  // through the C ABI on one service. The 16 graphs are built once and
  // shared by the schedulers' rows. Known gap, pinned so that closing it
  // shows as a deliberate re-pin: protocol-violation rows and infeasible
  // verdicts are never memoized, so 13 rows miss again on the warm run
  // and resolve their graphs again. Counters are cumulative.
  // {result hits, result misses, graph hits, graph misses} after the
  // cold and the warm call.
  const std::uint64_t want[2][4] = {{0, 64, 48, 16},
                                    {51, 64 + 13, 48 + 13, 16}};
  for (const unsigned threads : {1u, 4u}) {
    const std::string text =
        "families=ring,path,complete,star,grid,torus,hypercube,binary-tree,"
        "lollipop,barbell,caterpillar,wheel,bipartite,tree,random,regular\n"
        "schedulers=synchronous,adversarial-delay,semi-synchronous,"
        "crash-fault\nsizes=12\nk=4\nseeds=1\nuse_result_cache=1\n"
        "threads=" + std::to_string(threads) + "\n";
    const SweepSpec sweep = api::parse_sweep_spec(text);
    Caches caches;
    gather_service* service = gather_service_new();
    for (int call = 0; call < 2; ++call) {
      SweepStats stats;
      const std::vector<SweepRow> rows =
          SweepRunner::run(sweep, caches, &stats);
      char* csv = nullptr;
      ASSERT_EQ(gather_sweep_csv(service, text.c_str(), &csv),
                GATHER_STATUS_OK);
      EXPECT_EQ(csv, csv_of(rows));
      gather_free(csv);
      gather_cache_stats_s abi{};
      ASSERT_EQ(gather_cache_stats(service, &abi), GATHER_STATUS_OK);
      EXPECT_EQ(rows.size(), 64u);
      EXPECT_EQ((std::array{stats.result_cache.hits, stats.result_cache.misses,
                            stats.graph_cache.hits, stats.graph_cache.misses}),
                std::to_array(want[call]))
          << threads;
      EXPECT_EQ((std::array{abi.result_hits, abi.result_misses, abi.graph_hits,
                            abi.graph_misses}),
                std::to_array(want[call]))
          << threads;
    }
    gather_service_free(service);
  }
}

TEST(SweepDeterminismStress, SkewedGridWorkIsIndependentOfThreads) {
  // Two families x six sizes x three seeds, cache off, maximal stealing:
  // the n=40 complete-graph points cost orders of magnitude more than
  // the n=8 rings. Whatever the worker count, every row is simulated
  // once and each of the 36 graphs is built once.
  SweepSpec sweep;
  sweep.families = {"ring", "complete"};
  sweep.sizes = {8, 12, 16, 24, 32, 40};
  sweep.base.k = 4;
  sweep.seeds = {1, 2, 3};
  sweep.skip_infeasible = true;
  sweep.tolerate_protocol_violations = true;
  sweep.steal_chunk = 1;
  std::string reference_csv;
  for (const unsigned threads : {1u, 4u}) {
    sweep.threads = threads;
    Caches caches;
    SweepStats stats;
    const std::vector<SweepRow> rows = SweepRunner::run(sweep, caches, &stats);
    std::uint64_t decisions = 0;
    for (const SweepRow& row : rows) {
      decisions += row.outcome.result.metrics.decision_calls;
    }
    if (reference_csv.empty()) reference_csv = csv_of(rows);
    EXPECT_EQ(csv_of(rows), reference_csv) << threads;
    EXPECT_EQ(rows.size(), 36u) << threads;
    EXPECT_EQ(decisions, 1629016u) << threads;
    EXPECT_EQ(stats.graph_cache.misses, 36u) << threads;
    EXPECT_EQ(stats.graph_cache.hits + stats.result_cache.hits +
                  stats.result_cache.misses,
              0u)
        << threads;
  }
}

TEST(SweepTimingFieldsTest, TimingsNeverReachCsvHeader) {
  // resolve_seconds / wall_seconds are nondeterministic and must stay
  // out of the serialized schema (the byte-identical contract).
  for (const std::string& column : SweepRunner::csv_header()) {
    EXPECT_EQ(column.find("seconds"), std::string::npos) << column;
  }
}

}  // namespace
}  // namespace gather::scenario
