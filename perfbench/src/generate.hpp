// Seeded request generation for the benchmark workloads.
//
// The harness hands the library nothing but the spec text generated
// here. Every request is a pure function of (workload, seed, index), so
// the same seed replays the same inputs and two builds can be compared
// on identical work.
//
// Requests come in fixed-size cycles. A cycle is a stratified sample of
// the workload's input space: its strata (families x size bands x robot
// counts, or popularity ranks) are the same in every cycle, and each
// cycle draws fresh values inside them from (seed, cycle), so every
// cycle is new work of the same mix and a run averages over many draws.
// Runs measure whole cycles, which keeps the mix of a short run and a
// long run the same.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { Crowded, Dispersed, SsyncSweep, ServiceMix };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

enum class Kind { Run, Sweep };

struct Request {
  Kind kind = Kind::Run;
  /// Spec text for api::parse_run_spec / parse_sweep_spec (or the ABI).
  std::string text;
  /// Equal identity <=> equal text; repeat checks group calls by it.
  std::uint64_t identity = 0;
  /// A run request under `synchronous`: it must gather with detection.
  /// (Sweep rows are judged per row from their CSV.)
  bool synchronous = false;
  /// Its scheduler can perturb the run, so VIOLATION is an outcome.
  bool adversarial = false;
};

/// SplitMix64 — the generator's own PRNG, independent of the library's
/// support/rng so that library changes never change the inputs.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

class Stream {
 public:
  Stream(Workload workload, std::uint64_t seed);

  [[nodiscard]] Workload workload() const { return workload_; }
  [[nodiscard]] std::size_t cycle_length() const { return sequence_.size(); }

  /// Request `index` of the stream (cycle = index / cycle_length()).
  [[nodiscard]] Request at(std::size_t index) const;

  /// Share of a cycle's calls whose identity already occurred earlier in
  /// the same cycle (the service-mix popularity target is ~0.75).
  [[nodiscard]] double repeat_fraction() const;

  /// Materialize the first `count` requests so that the measured loop
  /// does not build their text (the rest are built on demand).
  void prepare(std::size_t count);
  [[nodiscard]] const Request& prepared(std::size_t index) const {
    return prepared_[index];
  }
  [[nodiscard]] std::size_t prepared_count() const { return prepared_.size(); }

 private:
  /// One distinct request of a cycle. Its fixed attributes select the
  /// stratum — crowded: (family, strata index); dispersed: (family,
  /// k-rule divisor); service-mix: popularity rank, which fixes the
  /// scheduler — and at() draws the rest from (seed, cycle, cell).
  struct Cell {
    Kind kind = Kind::Run;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };

  Workload workload_;
  std::uint64_t seed_;
  std::vector<Cell> cells_;
  /// Cycle position -> cell index (repeats share a cell).
  std::vector<std::uint32_t> sequence_;
  std::vector<Request> prepared_;
};

}  // namespace perfbench
