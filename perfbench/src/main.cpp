// perfbench_harness — runs one benchmark workload and prints one JSON
// line: end-to-end metrics (untraced) or per-layer metrics (traced).
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--spans-out <file.tsv>]
//
// Untraced: closed-loop clients call the front doors for whole cycles
// of the request stream until --seconds is reached. Traced: a fixed
// number of cycles runs twice on fresh contexts — once through the
// front doors, once composed layer by layer under spans — and the two
// outputs must be byte-identical. perfbench/run.py builds and drives
// this binary; see perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "generate.hpp"
#include "pipeline.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepetitions = 15;
constexpr std::size_t kPreparedRequests = 2048;
// service-mix's long-lived service: one sweep worker per call, and a
// result cache that fills within a few cycles (a cycle introduces ~325
// specs and only repeats within itself), so memory reaches its plateau
// early in every run.
constexpr gather::Service::Config kMixService{0, 1024, 1};

struct Options {
  Workload workload = Workload::Crowded;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

struct CallRecord {
  std::size_t index = 0;
  Kind kind = Kind::Run;
  std::uint64_t identity = 0;
  std::int64_t latency_ns = 0;
  std::uint64_t hash = 0;
  Outcome outcome;  ///< output kept only when the pass keeps outputs
  std::string failure;
};

struct Pass {
  std::vector<CallRecord> calls;  ///< sorted by index
  double elapsed_s = 0.0;
  std::size_t rows = 0;
};

using CallFn = std::function<Outcome(std::size_t index, const Request&)>;

std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

unsigned clients_of(Workload workload) {
  return workload == Workload::ServiceMix ? 2 : 1;
}

/// Cycles per traced pass at 10 seconds (scaled linearly with --seconds).
std::size_t traced_cycles_per_10s(Workload workload) {
  switch (workload) {
    case Workload::SsyncSweep:
      return 2;
    case Workload::ServiceMix:
      return 8;
    default:
      return 1;
  }
}

/// VmHWM of this process image in MB. Not ru_maxrss: Linux carries that
/// across execve, so when run.py starts the harness it would report the
/// Python process's footprint.
double hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Peak resident memory per cycle: the high-water mark is reset at each
/// cycle boundary (/proc/self/clear_refs, value 5) and read at the next.
/// The median over cycles does not grow with the number of cycles a run
/// fits, unlike the process-lifetime peak, which is an extreme over
/// every request run. Without a resettable mark, one process-wide
/// window remains.
class PeakWindows {
 public:
  void boundary() {
    if (reset_ok_) peaks_.push_back(hwm_mb());
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    reset_ok_ = static_cast<bool>(clear);
  }
  [[nodiscard]] double median_mb() {
    std::vector<double> peaks = peaks_;
    peaks.push_back(hwm_mb());
    std::sort(peaks.begin(), peaks.end());
    return peaks[peaks.size() / 2];
  }

 private:
  std::vector<double> peaks_;
  bool reset_ok_ = false;
};

/// Closed loop: `clients` threads each take the next request index and
/// wait for its reply. With `fixed_calls` = 0 the loop stops at the
/// first cycle boundary where finishing another cycle would overrun
/// --seconds by more than half a cycle; otherwise after fixed_calls.
Pass drive(const Stream& stream, unsigned clients, double seconds,
           std::size_t fixed_calls, bool keep_outputs, const CallFn& call,
           PeakWindows* peaks = nullptr) {
  const std::size_t cycle = stream.cycle_length();
  std::mutex dispatch_mutex;
  std::size_t next = 0;
  bool stop = false;
  if (peaks != nullptr) peaks->boundary();
  const Clock::time_point start = Clock::now();
  const auto claim = [&]() -> std::optional<std::size_t> {
    const std::lock_guard<std::mutex> lock(dispatch_mutex);
    if (stop) return std::nullopt;
    if (fixed_calls > 0) {
      if (next >= fixed_calls) stop = true;
    } else if (next > 0 && next % cycle == 0) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      const double per_cycle = elapsed / static_cast<double>(next / cycle);
      if (elapsed + per_cycle / 2.0 >= seconds) stop = true;
    }
    if (stop) return std::nullopt;
    if (peaks != nullptr && next > 0 && next % cycle == 0) peaks->boundary();
    return next++;
  };

  std::vector<std::vector<CallRecord>> per_client(clients);
  const auto client = [&](unsigned id) {
    std::vector<CallRecord>& records = per_client[id];
    while (const std::optional<std::size_t> index = claim()) {
      Request built;
      const bool ready = *index < stream.prepared_count();
      if (!ready) built = stream.at(*index);
      const Request& request = ready ? stream.prepared(*index) : built;
      CallRecord record;
      record.index = *index;
      record.kind = request.kind;
      record.identity = request.identity;
      const Clock::time_point t0 = Clock::now();
      try {
        record.outcome = call(*index, request);
      } catch (const std::exception& e) {
        record.outcome.status = GATHER_STATUS_INTERNAL;
        record.outcome.output = std::string("status=internal: ") + e.what();
      }
      record.latency_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
              .count();
      record.hash = fnv1a(record.outcome.output);
      record.failure = judge(request, record.outcome);
      if (!keep_outputs) record.outcome.output.clear();
      records.push_back(std::move(record));
    }
  };
  std::vector<std::thread> threads;
  for (unsigned id = 0; id < clients; ++id) threads.emplace_back(client, id);
  for (std::thread& t : threads) t.join();

  Pass pass;
  pass.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& records : per_client) {
    for (CallRecord& r : records) pass.calls.push_back(std::move(r));
  }
  std::sort(pass.calls.begin(), pass.calls.end(),
            [](const CallRecord& a, const CallRecord& b) {
              return a.index < b.index;
            });
  for (const CallRecord& r : pass.calls) pass.rows += r.outcome.rows;
  return pass;
}

/// Failures found after a pass: a repeat whose reply differs from the
/// first reply to the same request, and (service-mix) ABI sweep CSV that
/// differs from SweepRunner::write_csv for the same grid. The CSV
/// reference runs for the first cycle's distinct sweeps only.
void check_pass(const Stream& stream, Pass& pass) {
  std::map<std::uint64_t, std::uint64_t> first_reply;
  for (CallRecord& r : pass.calls) {
    const auto [it, inserted] = first_reply.emplace(r.identity, r.hash);
    if (!inserted && it->second != r.hash && r.failure.empty()) {
      r.failure = "repeat reply differs from the first reply";
    }
  }
  if (stream.workload() != Workload::ServiceMix) return;
  std::set<std::uint64_t> checked;
  for (CallRecord& r : pass.calls) {
    if (r.index >= stream.cycle_length()) break;
    if (r.kind != Kind::Sweep || r.outcome.status != GATHER_STATUS_OK) continue;
    if (!checked.insert(r.identity).second) continue;
    if (fnv1a(reference_sweep_csv(stream.at(r.index).text)) != r.hash) {
      r.failure = "gather_sweep_csv differs from SweepRunner::write_csv";
    }
  }
}

/// Digest over the first cycle's replies (cache_hit excluded), in index
/// order — pinned for the default seed by perfbench/run.py.
std::uint64_t digest(const Stream& stream, const Pass& pass) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const CallRecord& r : pass.calls) {
    if (r.index >= stream.cycle_length()) break;
    h = fnv1a(std::to_string(r.index) + ":" + hex(r.hash) + ";", h);
  }
  return h;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Owns the context a run starts with: the shared C ABI service of
/// service-mix, or one gather::Service for the per-request workloads.
struct Setup {
  std::optional<Stream> stream;
  gather_service* abi = nullptr;
  ~Setup() { gather_service_free(abi); }
};

/// Request generation plus service creation, repeated; the median
/// repetition is reported and the last one's state is kept.
double set_up(const Options& options, Setup& setup) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    gather_service_free(setup.abi);
    setup.abi = nullptr;
    const Clock::time_point t0 = Clock::now();
    setup.stream.emplace(options.workload, options.seed);
    setup.stream->prepare(kPreparedRequests);
    if (options.workload == Workload::ServiceMix) {
      setup.abi = gather_service_new_with(kMixService.graph_cache_capacity,
                                          kMixService.result_cache_capacity,
                                          kMixService.sweep_threads);
    } else {
      const gather::Service service;
      (void)service.cache_stats();
    }
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return quantile(times, 0.5);
}

CallFn front_door(Workload workload, gather_service* abi) {
  switch (workload) {
    case Workload::ServiceMix:
      return [abi](std::size_t, const Request& r) { return call_abi(abi, r); };
    case Workload::SsyncSweep:
      return [](std::size_t, const Request& r) { return sweep_fresh_service(r); };
    default:
      return [](std::size_t, const Request& r) { return run_fresh_service(r); };
  }
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(const Pass& pass) {
    for (const CallRecord& r : pass.calls) {
      ++attempted;
      if (!r.failure.empty()) {
        ++failed;
        if (failed <= 5) {
          std::cerr << "perfbench: call " << r.index
                    << " failed: " << r.failure << "\n";
        }
      }
    }
  }
};

void print_number(std::ostream& os, double value) {
  if (!std::isfinite(value)) value = 0.0;
  os << std::setprecision(12) << value;
}

void print_result(const Options& options, const Tally& tally,
                  std::uint64_t digest_value,
                  const std::vector<std::pair<std::string, double>>& metrics,
                  const std::vector<std::pair<std::string, double>>& details) {
  std::ostringstream os;
  os << "{\"workload\": \"" << workload_name(options.workload)
     << "\", \"seed\": " << options.seed
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"digest\": \""
     << hex(digest_value) << "\", \"compiler\": \"" << PERFBENCH_COMPILER
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"nproc\": " << std::thread::hardware_concurrency();
  const auto object = [&os](const char* key, const auto& entries) {
    os << ", \"" << key << "\": {";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) os << ", ";
      os << '"' << entries[i].first << "\": ";
      print_number(os, entries[i].second);
    }
    os << '}';
  };
  object("metrics", metrics);
  object("details", details);
  os << "}\n";
  std::cout << os.str() << std::flush;
}

int run_untraced(const Options& options) {
  Setup setup;
  const double setup_s = set_up(options, setup);
  const Stream& stream = *setup.stream;
  PeakWindows peaks;
  Pass pass = drive(stream, clients_of(options.workload), options.seconds, 0,
                    false, front_door(options.workload, setup.abi), &peaks);
  const double peak_rss_mb = peaks.median_mb();
  check_pass(stream, pass);
  Tally tally;
  tally.add(pass);

  std::vector<double> latency_ms;
  std::size_t hits = 0;
  for (const CallRecord& r : pass.calls) {
    latency_ms.push_back(static_cast<double>(r.latency_ns) / 1e6);
    if (r.outcome.cache_hit) ++hits;
  }
  const double calls = static_cast<double>(pass.calls.size());
  std::vector<std::pair<std::string, double>> metrics = {
      {"rows_per_s", static_cast<double>(pass.rows) / pass.elapsed_s},
      {"latency_ms.p50", quantile(latency_ms, 0.5)},
      {"setup_s", setup_s},
      {"peak_rss_mb", peak_rss_mb}};
  std::vector<std::pair<std::string, double>> details = {
      {"calls", calls},
      {"rows", static_cast<double>(pass.rows)},
      {"cycles", calls / static_cast<double>(stream.cycle_length())},
      {"elapsed_s", pass.elapsed_s},
      {"failed_frac", static_cast<double>(tally.failed) / calls},
      {"cache_hit_frac", static_cast<double>(hits) / calls},
      {"stream_repeat_frac", stream.repeat_fraction()}};
  // The highest percentile with at least ten samples beyond it.
  if (pass.calls.size() >= 100) {
    details.emplace_back("latency_ms.p90", quantile(latency_ms, 0.9));
  }
  print_result(options, tally, digest(stream, pass), metrics, details);
  return tally.failed == 0 ? 0 : 1;
}

int run_traced(const Options& options) {
  Setup setup;
  (void)set_up(options, setup);
  const Stream& stream = *setup.stream;
  const unsigned clients = clients_of(options.workload);
  const std::size_t cycles = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.seconds / 10.0 *
                                  static_cast<double>(
                                      traced_cycles_per_10s(options.workload))));
  const std::size_t fixed = cycles * stream.cycle_length();

  Pass untraced = drive(stream, clients, options.seconds, fixed, true,
                        front_door(options.workload, setup.abi));
  check_pass(stream, untraced);

  SpanLog log;
  LayerCounters counters;
  Composer composer(log, counters);
  std::optional<TracedContext> shared;
  if (options.workload == Workload::ServiceMix) shared.emplace(kMixService);
  TracedContext* shared_ptr = shared ? &*shared : nullptr;
  Pass traced = drive(stream, clients, options.seconds, fixed, true,
                      [&](std::size_t index, const Request& request) {
                        return composer.call(shared_ptr, request, index);
                      });
  if (shared) composer.retire(*shared);
  check_pass(stream, traced);

  // The traced outputs must equal the untraced ones (cache_hit aside).
  for (std::size_t i = 0; i < traced.calls.size(); ++i) {
    CallRecord& t = traced.calls[i];
    const CallRecord& u = untraced.calls[i];
    if (t.failure.empty() && (t.outcome.status != u.outcome.status ||
                              t.outcome.output != u.outcome.output)) {
      t.failure = "traced output differs from the untraced output";
    }
  }
  Tally tally;
  tally.add(untraced);
  tally.add(traced);

  const std::vector<SpanRecord> records = log.records();
  const std::map<std::string, SpanTotals> totals = SpanLog::totals(records);
  const auto per_call = [&totals](const char* name, double unit_ns) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.calls == 0) return 0.0;
    return static_cast<double>(it->second.self_ns) /
           static_cast<double>(it->second.calls) / unit_ns;
  };
  const auto self_ns = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  double all_self_ns = 0.0;
  for (const auto& [name, t] : totals) {
    all_self_ns += static_cast<double>(t.self_ns);
  }

  // api.boundary_us: the ABI call (untraced pass) minus the C++ calls it
  // wraps (the root's children in the traced pass), per run request
  // whose cache outcome matched in both passes; the median is reported.
  std::vector<double> boundary_us;
  if (options.workload == Workload::ServiceMix) {
    std::vector<std::int64_t> child_ns(records.size(), 0);
    for (const SpanRecord& r : records) {
      if (r.parent >= 0) {
        child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
      }
    }
    std::map<std::uint64_t, std::int64_t> wrapped_ns;
    for (const SpanRecord& r : records) {
      if (r.parent < 0) {
        wrapped_ns[r.request] = child_ns[static_cast<std::size_t>(r.id)];
      }
    }
    for (std::size_t i = 0; i < untraced.calls.size(); ++i) {
      const CallRecord& u = untraced.calls[i];
      const CallRecord& t = traced.calls[i];
      if (u.kind != Kind::Run || u.outcome.status != GATHER_STATUS_OK ||
          t.outcome.status != GATHER_STATUS_OK ||
          u.outcome.cache_hit != t.outcome.cache_hit) {
        continue;
      }
      boundary_us.push_back(
          static_cast<double>(u.latency_ns - wrapped_ns[u.index]) / 1e3);
    }
  }

  const double decisions = static_cast<double>(counters.decisions.load());
  const double moves = static_cast<double>(counters.moves.load());
  const double simulated = static_cast<double>(counters.simulated_rounds.load());
  const double activates = static_cast<double>(counters.activates_calls.load());
  const double lookups = static_cast<double>(counters.lookups.load());
  const double graph_calls = static_cast<double>(counters.graph_calls.load());
  const double core_ns = self_ns("core.run");
  double executor_idle = 0.0;
  if (const auto it = totals.find("support.executor"); it != totals.end()) {
    double capacity_ns = 0.0;
    for (const SpanRecord& r : records) {
      if (std::strcmp(r.name, "support.executor") == 0) {
        capacity_ns += static_cast<double>(r.width) *
                       static_cast<double>(r.end_ns - r.start_ns);
      }
    }
    executor_idle =
        1.0 - ratio(static_cast<double>(it->second.child_ns), capacity_ns);
  }
  const double overhead_ms = (traced.elapsed_s - untraced.elapsed_s) * 1e3;

  const std::vector<std::pair<std::string, double>> metrics = {
      {"api.parse_us", per_call("api.parse", 1e3)},
      {"api.boundary_us", quantile(boundary_us, 0.5)},
      {"scenario.fingerprint_us", per_call("scenario.fingerprint", 1e3)},
      {"scenario.result_cache.lookup_us",
       per_call("scenario.result_cache.lookup", 1e3)},
      {"scenario.result_cache.hit_ratio",
       ratio(static_cast<double>(counters.hits.load()), lookups)},
      {"scenario.result_cache.resimulated",
       static_cast<double>(counters.resimulated.load())},
      {"scenario.result_cache.resident_bytes",
       static_cast<double>(counters.result_resident_bytes_max.load())},
      {"scenario.graph_cache.hit_ratio",
       graph_calls > 0.0
           ? 1.0 - static_cast<double>(counters.graph_misses.load()) / graph_calls
           : 0.0},
      {"scenario.resolve_graph_ms", per_call("scenario.resolve_graph", 1e6)},
      {"scenario.resolve_ms", per_call("scenario.resolve", 1e6)},
      {"scenario.enumerate_ms", per_call("scenario.enumerate", 1e6)},
      {"scenario.csv_ms", per_call("scenario.csv", 1e6)},
      {"core.run_ms", per_call("core.run", 1e6)},
      {"core.self_share", ratio(core_ns, all_self_ns)},
      {"sim.decisions", decisions},
      {"sim.ns_per_decision", ratio(core_ns, decisions)},
      {"sim.message_bits_per_decision",
       ratio(static_cast<double>(counters.message_bits.load()), decisions)},
      {"sim.moves", moves},
      {"sim.ns_per_move", ratio(core_ns, moves)},
      {"sim.simulated_rounds", simulated},
      {"sim.skip_ratio",
       ratio(simulated, static_cast<double>(counters.rounds.load()))},
      {"sim.scheduler.activates_calls", activates},
      {"sim.scheduler.activates_per_simulated_round", ratio(activates, simulated)},
      {"support.idle_frac", executor_idle},
      {"trace.overhead_ms", overhead_ms}};

  std::vector<std::pair<std::string, double>> details = {
      {"calls_per_pass", static_cast<double>(fixed)},
      {"untraced_s", untraced.elapsed_s},
      {"traced_s", traced.elapsed_s},
      {"trace.overhead_frac", ratio(overhead_ms, untraced.elapsed_s * 1e3)},
      {"spans", static_cast<double>(records.size())},
      {"boundary_samples", static_cast<double>(boundary_us.size())}};
  for (const auto& [name, t] : totals) {
    details.emplace_back("self_share." + name,
                         ratio(static_cast<double>(t.self_ns), all_self_ns));
  }
  if (!options.spans_out.empty()) log.write_tsv(options.spans_out);
  print_result(options, tally, digest(stream, untraced), metrics, details);
  return tally.failed == 0 ? 0 : 1;
}

bool parse_options(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      const std::optional<Workload> w = parse_workload(value);
      if (!w) return false;
      options.workload = *w;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--spans-out") {
      options.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options.seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    if (!perfbench::parse_options(argc, argv, options)) {
      std::cerr << "usage: perfbench_harness --workload "
                   "<crowded|dispersed|ssync-sweep|service-mix> --seed <n> "
                   "--seconds <s> --trace <0|1> [--spans-out <file>]\n";
      return 2;
    }
    return options.trace ? perfbench::run_traced(options)
                         : perfbench::run_untraced(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
