// E-SWEEP — sweep-executor macrobenchmarks (google-benchmark): the cost
// of running a full scenario grid through SweepRunner under the shared
// graph cache, the fingerprint result cache, and the work-stealing
// executor.
//
// Two experiments:
//  * BM_SweepColdVsWarmCacheAB — the 16-family × 4-scheduler grid run
//    twice per iteration, interleaved: arm A from cold caches (every
//    graph built, every row simulated), arm B immediately after with
//    both caches warm (every row a fingerprint hit). cold_rps/warm_rps
//    counters are rows per second per arm; the ratio is the price of a
//    re-run the memo makes free.
//  * BM_SweepSkewedImbalance — a deliberately skewed grid (a few large
//    faster-gathering points dominating a tail of cheap ones) at 1 vs 4
//    workers with steal_chunk=1, the shape static index splitting
//    handles worst: whichever worker drew the big points finished late
//    while the rest idled. items_per_second counts rows.
//  * BM_SweepApiBoundary — the SAME warm grid pushed through the C ABI
//    (gather_sweep_csv on one long-lived gather_service): every row is
//    a result-cache hit, so the measurement is the boundary itself —
//    spec-text parse, sweep orchestration, CSV serialization, and the
//    malloc'd hand-off. Comparing warm_rps here against the A/B bench's
//    warm arm prices what an embedder pays over linking C++ directly.
//
// `--json=<path>` writes the stable-schema BENCH_sweep.json perf record
// (bench_common.hpp) that check_bench_regression.py gates on.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "libgather.h"
#include "scenario/sweep.hpp"

namespace gather {
namespace {

/// Every registered family whose factory is a pure function of the spec
/// (all but "file") — the acceptance grid's family axis.
const std::vector<std::string> kAllFamilies = {
    "ring",      "path",        "complete", "star",
    "grid",      "torus",       "hypercube", "binary-tree",
    "lollipop",  "barbell",     "caterpillar", "wheel",
    "bipartite", "tree",        "random",   "regular"};

const std::vector<std::string> kAllSchedulers = {
    "synchronous", "adversarial-delay", "semi-synchronous", "crash-fault"};

scenario::SweepSpec acceptance_grid() {
  scenario::SweepSpec sweep;
  sweep.families = kAllFamilies;
  sweep.schedulers = kAllSchedulers;
  sweep.sizes = {12};
  sweep.base.k = 4;
  sweep.seeds = {1};
  sweep.skip_infeasible = true;
  sweep.tolerate_protocol_violations = true;
  sweep.use_result_cache = true;
  return sweep;
}

void BM_SweepColdVsWarmCacheAB(benchmark::State& state) {
  scenario::SweepSpec sweep = acceptance_grid();
  sweep.threads = static_cast<unsigned>(state.range(0));
  scenario::Caches caches;  // the context whose warmth the B arm measures
  double cold_s = 0.0;
  double warm_s = 0.0;
  std::size_t rows_per_run = 0;
  for (auto _ : state) {
    caches.clear();
    const auto t0 = std::chrono::steady_clock::now();
    const auto cold = scenario::SweepRunner::run(sweep, caches);
    const auto t1 = std::chrono::steady_clock::now();
    const auto warm = scenario::SweepRunner::run(sweep, caches);
    const auto t2 = std::chrono::steady_clock::now();
    cold_s += std::chrono::duration<double>(t1 - t0).count();
    warm_s += std::chrono::duration<double>(t2 - t1).count();
    rows_per_run = cold.size();
    benchmark::DoNotOptimize(warm.size());
  }
  const double rows =
      static_cast<double>(state.iterations() * rows_per_run);
  state.SetItemsProcessed(2 * static_cast<std::int64_t>(rows));
  state.counters["cold_rps"] = cold_s > 0 ? rows / cold_s : 0.0;
  state.counters["warm_rps"] = warm_s > 0 ? rows / warm_s : 0.0;
  state.counters["grid_rows"] = static_cast<double>(rows_per_run);
}
BENCHMARK(BM_SweepColdVsWarmCacheAB)->Arg(1)->Arg(4)->UseRealTime();

void BM_SweepSkewedImbalance(benchmark::State& state) {
  // Two families × six sizes × three seeds; the n=40 complete-graph
  // points cost orders of magnitude more than the n=8 rings, so static
  // index splitting strands most workers idle. steal_chunk=1 maximizes
  // redistribution; the result cache is off so every row is simulated.
  scenario::SweepSpec sweep;
  sweep.families = {"ring", "complete"};
  sweep.sizes = {8, 12, 16, 24, 32, 40};
  sweep.base.k = 4;
  sweep.seeds = {1, 2, 3};
  sweep.skip_infeasible = true;
  sweep.tolerate_protocol_violations = true;
  sweep.threads = static_cast<unsigned>(state.range(0));
  sweep.steal_chunk = 1;
  std::size_t rows_per_run = 0;
  for (auto _ : state) {
    scenario::Caches caches;  // cold per iteration: graph builds are timed
    const auto rows = scenario::SweepRunner::run(sweep, caches);
    rows_per_run = rows.size();
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows_per_run));
}
BENCHMARK(BM_SweepSkewedImbalance)->Arg(1)->Arg(4)->UseRealTime();

std::string join_list(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ',';
    out += item;
  }
  return out;
}

void BM_SweepApiBoundary(benchmark::State& state) {
  // acceptance_grid() as spec text (parse_sweep_spec applies the same
  // skip-infeasible/tolerate policy the C++ spec sets explicitly).
  const std::string spec_text = "families=" + join_list(kAllFamilies) +
                                "\nschedulers=" + join_list(kAllSchedulers) +
                                "\nsizes=12\nk=4\nseeds=1\n"
                                "use_result_cache=1\nthreads=" +
                                std::to_string(state.range(0)) + "\n";
  gather_service* service = gather_service_new();
  // Warm the context once; every measured call is boundary + memo hits.
  char* warmup = nullptr;
  if (gather_sweep_csv(service, spec_text.c_str(), &warmup) !=
      GATHER_STATUS_OK) {
    state.SkipWithError(gather_last_error());
    gather_service_free(service);
    return;
  }
  std::size_t rows_per_run = 0;
  for (const char* p = warmup; *p != '\0'; ++p) {
    if (*p == '\n') ++rows_per_run;
  }
  rows_per_run -= 1;  // header line
  gather_free(warmup);
  for (auto _ : state) {
    char* csv = nullptr;
    if (gather_sweep_csv(service, spec_text.c_str(), &csv) !=
        GATHER_STATUS_OK) {
      state.SkipWithError(gather_last_error());
      break;
    }
    benchmark::DoNotOptimize(csv);
    gather_free(csv);
  }
  gather_service_free(service);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows_per_run));
  state.counters["grid_rows"] = static_cast<double>(rows_per_run);
}
BENCHMARK(BM_SweepApiBoundary)->Arg(1)->Arg(4)->UseRealTime();

/// Console reporter that also collects every run into a BenchJson row
/// (same tee pattern as bench_engine_throughput).
class JsonTeeReporter final : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::BenchJson& json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      // Plain measurement rows only: aggregate rows (_mean/_stddev/...
      // under --benchmark_repetitions) carry statistics, not
      // per-iteration times, and would pollute the perf record.
      if (run.run_type != Run::RT_Iteration) continue;
      std::vector<std::pair<std::string, std::string>> params;
      params.emplace_back("benchmark", run.benchmark_name());
      for (const auto& [name, counter] : run.counters) {
        std::ostringstream value;
        value << counter.value;
        params.emplace_back(name, value.str());
      }
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      json_.add_row(std::move(params),
                    static_cast<std::uint64_t>(run.iterations),
                    run.real_accumulated_time / iters * 1e3);
    }
  }

 private:
  bench::BenchJson& json_;
};

}  // namespace
}  // namespace gather

int main(int argc, char** argv) {
  const std::string json_path = gather::bench::extract_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  gather::bench::BenchJson json("sweep_throughput");
  gather::JsonTeeReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.write_file(json_path) ? 0 : 1;
}
