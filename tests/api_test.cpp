// The embedding surface: gather::Service context isolation and the C
// ABI in include/libgather.h.
//
// Three contracts pinned here:
//   1. Two Services in one process are fully independent — separate
//      hit/miss counters, separate clear() — because there is no
//      process-wide cache behind them (the point of the api layer).
//   2. The C ABI is a faithful wrapper: gather_sweep_csv bytes are
//      identical to driving SweepRunner directly, at any thread count.
//   3. Exceptions never cross the boundary: every error class maps to
//      its documented gather_status, with the message in
//      gather_last_error(), and out parameters stay unwritten.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/service.hpp"
#include "api/spec_text.hpp"
#include "libgather.h"
#include "scenario/caches.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace {

using gather::Service;
namespace scenario = gather::scenario;

scenario::ScenarioSpec small_spec() {
  scenario::ScenarioSpec spec;
  spec.family = "ring";
  spec.n = 12;
  spec.k = 3;
  spec.seed = 5;
  return spec;
}

// The same instance as spec text, for the ABI side of round trips.
constexpr const char* kRunSpecText =
    "# small ring instance\n"
    "family=ring\n"
    "n=12\n"
    "k=3\n"
    "seed=5\n";

// ring/8/3 undispersed under adversarial-delay(max-delay=6) at seed 1
// deterministically breaks a robot protocol invariant (the misaligned
// helper misses its finder) — the canonical VIOLATION input.
constexpr const char* kViolationSpecText =
    "family=ring\n"
    "n=8\n"
    "k=3\n"
    "placement=undispersed\n"
    "scheduler=adversarial-delay\n"
    "scheduler_params=max-delay=6\n"
    "seed=1\n";

std::string golden_trace_path() {
  return std::string(GATHER_TEST_DATA_DIR) + "/golden_sync_star.trace";
}

// ---- 1. context isolation -------------------------------------------------

TEST(ServiceTest, TwoServicesHaveIndependentCaches) {
  Service a;
  Service b;
  const scenario::ScenarioSpec spec = small_spec();

  const Service::RunReport first = a.run(spec);
  EXPECT_FALSE(first.cache_hit);
  const Service::RunReport second = a.run(spec);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.outcome.result.metrics.trace_hash,
            first.outcome.result.metrics.trace_hash);
  EXPECT_EQ(second.realized_n, first.realized_n);

  const Service::CacheStats a_stats = a.cache_stats();
  EXPECT_EQ(a_stats.results.hits, 1u);
  EXPECT_EQ(a_stats.results.misses, 1u);
  EXPECT_EQ(a_stats.results.entries, 1u);

  // b observed none of a's traffic — and cannot serve from a's memo.
  const Service::CacheStats b_before = b.cache_stats();
  EXPECT_EQ(b_before.results.hits, 0u);
  EXPECT_EQ(b_before.results.misses, 0u);
  EXPECT_EQ(b_before.graphs.misses, 0u);
  const Service::RunReport b_first = b.run(spec);
  EXPECT_FALSE(b_first.cache_hit);
  EXPECT_EQ(b_first.outcome.result.metrics.trace_hash,
            first.outcome.result.metrics.trace_hash);

  // clear() drops a's entries and counters; b's survive untouched.
  a.clear_caches();
  const Service::CacheStats a_cleared = a.cache_stats();
  EXPECT_EQ(a_cleared.results.hits, 0u);
  EXPECT_EQ(a_cleared.results.entries, 0u);
  EXPECT_EQ(a_cleared.graphs.entries, 0u);
  const Service::CacheStats b_after = b.cache_stats();
  EXPECT_EQ(b_after.results.misses, 1u);
  EXPECT_EQ(b_after.results.entries, 1u);
}

TEST(ServiceTest, SweepInheritsConfiguredThreadDefault) {
  Service::Config config;
  config.sweep_threads = 2;
  Service service(config);
  scenario::SweepSpec sweep;
  sweep.base = small_spec();
  sweep.seeds = {1, 2, 3};
  const std::vector<scenario::SweepRow> rows = service.sweep(sweep);
  ASSERT_EQ(rows.size(), 3u);
  for (const scenario::SweepRow& row : rows) {
    EXPECT_EQ(row.realized_n, 12u);
  }
}

// ---- 2. C ABI round trips -------------------------------------------------

struct ServiceHandle {
  gather_service* ptr;
  ServiceHandle() : ptr(gather_service_new()) {}
  ~ServiceHandle() { gather_service_free(ptr); }
  ServiceHandle(const ServiceHandle&) = delete;
  ServiceHandle& operator=(const ServiceHandle&) = delete;
};

std::string abi_sweep_csv(const std::string& spec_text) {
  ServiceHandle service;
  char* csv = nullptr;
  const gather_status status =
      gather_sweep_csv(service.ptr, spec_text.c_str(), &csv);
  EXPECT_EQ(status, GATHER_STATUS_OK) << gather_last_error();
  if (csv == nullptr) return {};
  std::string out(csv);
  gather_free(csv);
  return out;
}

TEST(CAbiTest, SweepCsvMatchesSweepRunnerBytes) {
  // The reference: SweepRunner driven directly with the same grid and
  // the harness policy that parse_sweep_spec and gather_cli share.
  scenario::SweepSpec sweep;
  sweep.base.k = 3;
  sweep.families = {"ring", "torus"};
  sweep.sizes = {9, 12};
  sweep.seeds = {1, 2};
  gather::api::apply_sweep_policy(sweep);
  sweep.threads = 1;
  scenario::Caches caches;
  const std::vector<scenario::SweepRow> rows =
      scenario::SweepRunner::run(sweep, caches);
  std::ostringstream reference;
  scenario::SweepRunner::write_csv(reference, rows);

  const std::string grid =
      "families=ring,torus\n"
      "sizes=9,12\n"
      "seeds=1,2\n"
      "k=3\n";
  EXPECT_EQ(abi_sweep_csv(grid + "threads=1\n"), reference.str());
  EXPECT_EQ(abi_sweep_csv(grid + "threads=4\n"), reference.str());

  // The CLI ≡ ABI referee: tests/cli_parity.cmake drives gather_cli
  // --sweep with every sweep flag and these base-point flags into the
  // same golden CSV. trace_dir is left out (traces never change a row).
  const std::string every_key =
      "family=star\nn=20\nk=5\nfamily_params=\n"
      "families=ring,torus,grid\nsizes=9,12\nk_rules=n/4+1,3\n"
      "placement=dispersed\nplacements=pair\nplacement_params=distance=2\n"
      "algorithm=undispersed\nalgorithms=faster,uxs\n"
      "labeling=equal-length\nsequence=covering\n"
      "scheduler=crash-fault\nschedulers=semi-synchronous\n"
      "scheduler_params=fairness=3\n"
      "known_min_pair_distance=2\ndelta_aware=true\n"
      "seed=5\nseeds=1,18446744073709551\n"
      "hard_cap=5000000\ntrace_path=ignored.trace\n"
      "threads=2\nsteal_chunk=1\nuse_result_cache=true\n";
  std::ifstream golden(std::string(GATHER_TEST_DATA_DIR) +
                       "/cli_sweep_parity.csv");
  ASSERT_TRUE(golden) << "missing tests/data/cli_sweep_parity.csv";
  std::ostringstream golden_csv;
  golden_csv << golden.rdbuf();
  EXPECT_EQ(abi_sweep_csv(every_key), golden_csv.str());
}

TEST(CAbiTest, RepeatedRunsHitTheServiceResultCache) {
  ServiceHandle service;
  char* first = nullptr;
  ASSERT_EQ(gather_run_json(service.ptr, kRunSpecText, &first),
            GATHER_STATUS_OK)
      << gather_last_error();
  ASSERT_NE(first, nullptr);
  const std::string cold(first);
  gather_free(first);
  EXPECT_NE(cold.find("\"cache_hit\": false"), std::string::npos) << cold;

  char* second = nullptr;
  ASSERT_EQ(gather_run_json(service.ptr, kRunSpecText, &second),
            GATHER_STATUS_OK)
      << gather_last_error();
  ASSERT_NE(second, nullptr);
  const std::string warm(second);
  gather_free(second);
  EXPECT_NE(warm.find("\"cache_hit\": true"), std::string::npos) << warm;
  // Same payload up to the memo flag: the hit replays the stored outcome.
  EXPECT_EQ(warm.substr(0, warm.find("\"cache_hit\"")),
            cold.substr(0, cold.find("\"cache_hit\"")));

  gather_cache_stats_s stats;
  ASSERT_EQ(gather_cache_stats(service.ptr, &stats), GATHER_STATUS_OK);
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 1u);

  ASSERT_EQ(gather_service_clear_caches(service.ptr), GATHER_STATUS_OK);
  ASSERT_EQ(gather_cache_stats(service.ptr, &stats), GATHER_STATUS_OK);
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.result_entries, 0u);
  EXPECT_EQ(stats.graph_entries, 0u);
}

TEST(CAbiTest, ReplayOfGoldenTraceReportsCleanRun) {
  char* json = nullptr;
  ASSERT_EQ(gather_replay_trace(golden_trace_path().c_str(), &json),
            GATHER_STATUS_OK)
      << gather_last_error();
  ASSERT_NE(json, nullptr);
  const std::string report(json);
  gather_free(json);
  EXPECT_NE(report.find("\"violation\": false"), std::string::npos) << report;
  EXPECT_NE(report.find("\"trace_hash\": "), std::string::npos) << report;
}

// ---- 3. error classes map to documented status codes ----------------------

TEST(CAbiTest, BadSpecTextIsUsage) {
  ServiceHandle service;
  char* json = reinterpret_cast<char*>(static_cast<std::uintptr_t>(1));
  EXPECT_EQ(gather_run_json(service.ptr, "bogus_key=1\n", &json),
            GATHER_STATUS_USAGE);
  EXPECT_EQ(json, nullptr);  // out parameter cleared, never populated
  EXPECT_NE(std::string(gather_last_error()).find("bogus_key"),
            std::string::npos)
      << gather_last_error();

  EXPECT_EQ(gather_run_json(service.ptr, "family=nosuchfamily\n", &json),
            GATHER_STATUS_USAGE);
  // The in-memory move-event key was removed in 0.2.0: the binary trace
  // (trace_path) is the only trace, so the old key is a usage error.
  // Spelled in two pieces so a source search for the removed name stays
  // empty.
  const std::string removed_key = std::string("record") + "_trace";
  const std::string removed_line = removed_key + "=1\n";
  EXPECT_EQ(gather_run_json(service.ptr, removed_line.c_str(), &json),
            GATHER_STATUS_USAGE);
  EXPECT_NE(std::string(gather_last_error()).find(removed_key),
            std::string::npos)
      << gather_last_error();
  // The decide-phase thread count was removed in 0.3.0 (the serial
  // decide loop outran the pool), so its key is a usage error too.
  const std::string removed_knob = std::string("decide") + "_threads";
  const std::string removed_knob_line = removed_knob + "=2\n";
  EXPECT_EQ(gather_run_json(service.ptr, removed_knob_line.c_str(), &json),
            GATHER_STATUS_USAGE);
  EXPECT_NE(std::string(gather_last_error()).find(removed_knob),
            std::string::npos)
      << gather_last_error();
  EXPECT_EQ(gather_run_json(service.ptr, "not a key value line\n", &json),
            GATHER_STATUS_USAGE);
  EXPECT_EQ(gather_sweep_csv(service.ptr, "sizes=twelve\n", &json),
            GATHER_STATUS_USAGE);
  // Integers outside the field's type are rejected, never wrapped: the
  // magnitude of a signed key must fit int (so negation is defined), and
  // unsigned fields narrower than 64 bits must hold the value.
  for (const char* line : {"known_min_pair_distance=-2147483648\n",
                           "known_min_pair_distance=4294967298\n",
                           "id_exponent_b=4294967298\n"}) {
    EXPECT_EQ(gather_run_json(service.ptr, line, &json), GATHER_STATUS_USAGE)
        << line;
    EXPECT_NE(std::string(gather_last_error()).find("out of range"),
              std::string::npos)
        << gather_last_error();
  }
  EXPECT_EQ(gather_sweep_csv(service.ptr, "threads=4294967297\n", &json),
            GATHER_STATUS_USAGE);
  EXPECT_NE(std::string(gather_last_error()).find("out of range"),
            std::string::npos)
      << gather_last_error();
}

TEST(CAbiTest, ProtocolViolationRowIsViolation) {
  ServiceHandle service;
  char* json = nullptr;
  EXPECT_EQ(gather_run_json(service.ptr, kViolationSpecText, &json),
            GATHER_STATUS_VIOLATION);
  EXPECT_EQ(json, nullptr);
  EXPECT_NE(std::string(gather_last_error()).find("protocol"),
            std::string::npos)
      << gather_last_error();
  // A violation is never memoized — the retry re-runs and re-reports.
  EXPECT_EQ(gather_run_json(service.ptr, kViolationSpecText, &json),
            GATHER_STATUS_VIOLATION);
  gather_cache_stats_s stats;
  ASSERT_EQ(gather_cache_stats(service.ptr, &stats), GATHER_STATUS_OK);
  EXPECT_EQ(stats.result_entries, 0u);
  EXPECT_EQ(stats.result_hits, 0u);
}

TEST(CAbiTest, TruncatedTraceFileIsTraceStatus) {
  std::ifstream in(golden_trace_path(), std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<char> head(12);
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  ASSERT_EQ(in.gcount(), static_cast<std::streamsize>(head.size()));
  const std::string truncated =
      testing::TempDir() + "api_test_truncated.trace";
  std::ofstream(truncated, std::ios::binary)
      .write(head.data(), static_cast<std::streamsize>(head.size()));

  char* json = nullptr;
  EXPECT_EQ(gather_replay_trace(truncated.c_str(), &json),
            GATHER_STATUS_TRACE);
  EXPECT_EQ(json, nullptr);
  EXPECT_EQ(gather_replay_trace("/nonexistent/api_test.trace", &json),
            GATHER_STATUS_TRACE);
  EXPECT_NE(std::string(gather_last_error()).size(), 0u);
}

TEST(CAbiTest, NullArgumentsAreArgumentStatus) {
  ServiceHandle service;
  char* json = nullptr;
  gather_cache_stats_s stats;
  EXPECT_EQ(gather_run_json(nullptr, kRunSpecText, &json),
            GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_run_json(service.ptr, nullptr, &json),
            GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_run_json(service.ptr, kRunSpecText, nullptr),
            GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_sweep_csv(nullptr, "k=3\n", &json),
            GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_replay_trace(nullptr, &json), GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_cache_stats(nullptr, &stats), GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_cache_stats(service.ptr, nullptr),
            GATHER_STATUS_ARGUMENT);
  EXPECT_EQ(gather_service_clear_caches(nullptr), GATHER_STATUS_ARGUMENT);
  EXPECT_NE(std::string(gather_last_error()).find("NULL"), std::string::npos);
  // NULL is a documented no-op, not a crash.
  gather_service_free(nullptr);
  gather_free(nullptr);
}

// ---- 4. version and status names ------------------------------------------

TEST(CAbiTest, VersionMatchesHeaderConstants) {
  EXPECT_STREQ(gather_version(), GATHER_VERSION_STRING);
  EXPECT_EQ(gather_version_major(), GATHER_VERSION_MAJOR);
  EXPECT_EQ(gather_version_minor(), GATHER_VERSION_MINOR);
  EXPECT_EQ(gather_version_patch(), GATHER_VERSION_PATCH);
}

TEST(CAbiTest, StatusNamesAreStable) {
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_OK), "ok");
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_VIOLATION), "violation");
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_USAGE), "usage");
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_INTERNAL), "internal");
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_TRACE), "trace");
  EXPECT_STREQ(gather_status_name(GATHER_STATUS_ARGUMENT), "argument");
  EXPECT_STREQ(gather_status_name(static_cast<gather_status>(99)), "unknown");
}

}  // namespace
