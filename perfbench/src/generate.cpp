#include "generate.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {
namespace {

// The sixteen pure graph families (no implicit descriptors, no files).
constexpr std::array<const char*, 16> kPureFamilies = {
    "ring",        "path",    "complete", "star",      "grid",  "torus",
    "hypercube",   "binary-tree", "lollipop", "barbell", "caterpillar",
    "wheel",       "bipartite", "tree",   "random",    "regular"};

// The paper-regime families of the crowded and dispersed workloads.
constexpr std::array<const char*, 4> kRegimeFamilies = {"torus", "grid",
                                                        "random", "regular"};

// crowded strata: (n, k/n). n is fixed: a run's cost grows like n^3 k^2
// here, so the seed varies the graph, start node and labels only.
constexpr std::array<std::pair<std::size_t, std::size_t>, 3> kCrowdedStrata = {
    {{40, 4}, {64, 3}, {96, 2}}};
// dispersed n bands across [64, 144]; each (family, rule) cell owns one.
constexpr std::array<std::size_t, 3> kDispersedBands = {72, 104, 136};

// service-mix cycle shape: 1000 calls, 10% sweeps, exactly 75% repeats.
constexpr std::size_t kMixCalls = 1000;
constexpr std::size_t kMixSweepCalls = 100;
constexpr std::size_t kMixNewRuns = 225;
constexpr std::size_t kMixNewSweeps = 25;
constexpr double kZipfExponent = 1.0;
// The most popular specs are synchronous; below them schedulers rotate,
// so violation re-simulations come from the popularity tail.
constexpr std::size_t kMixSynchronousHead = 64;

std::string line(const char* key, const std::string& value) {
  std::string out = key;
  out += '=';
  out += value;
  out += '\n';
  return out;
}

std::string line(const char* key, std::uint64_t value) {
  return line(key, std::to_string(value));
}

template <typename T>
void shuffle(std::vector<T>& items, SplitMix& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

const char* rotating_scheduler(std::size_t rank) {
  if (rank < kMixSynchronousHead) return "synchronous";
  switch (rank % 4) {
    case 1:
      return "adversarial-delay";
    case 2:
      return "crash-fault";
    default:
      return "synchronous";
  }
}

/// A pure family, uniformly. Under adversarial-delay the two tree
/// families are left out: there the engine rarely throws
/// EngineInvariantError "follow cycle detected" (about 1 in 2000 tree
/// specs; e.g. family=tree n=22 k=4 seed=1761006563), and a benchmark
/// input must not fail.
std::size_t pick_family(SplitMix& rng, const char* scheduler) {
  const bool avoid_trees = std::string_view(scheduler) == "adversarial-delay";
  while (true) {
    const std::size_t f = rng.below(kPureFamilies.size());
    const std::string_view name = kPureFamilies[f];
    if (!avoid_trees || (name != "tree" && name != "binary-tree")) return f;
  }
}

/// Index in [0, count) drawn with weight 1/(i+1)^s: earlier-introduced
/// specs are more popular.
std::size_t zipf_pick(std::size_t count, SplitMix& rng) {
  double total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
  }
  const double target =
      total * static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    if (target < acc) return i;
  }
  return count - 1;
}

/// Cycle positions of one call kind: which introduce a new spec (the
/// first always does, `fresh - 1` more land uniformly) and which repeat.
std::vector<int> introductions(std::size_t slots, std::size_t fresh,
                               SplitMix& rng) {
  std::vector<int> tail(slots - 1, 0);
  std::fill(tail.begin(), tail.begin() + (fresh - 1), 1);
  shuffle(tail, rng);
  std::vector<int> marks{1};
  marks.insert(marks.end(), tail.begin(), tail.end());
  return marks;
}

}  // namespace

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix::below(std::uint64_t bound) { return next() % bound; }

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return SplitMix(a ^ (b * 0x9e3779b97f4a7c15ULL) ^ 0x5bd1e995ULL).next();
}

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "crowded") return Workload::Crowded;
  if (name == "dispersed") return Workload::Dispersed;
  if (name == "ssync-sweep") return Workload::SsyncSweep;
  if (name == "service-mix") return Workload::ServiceMix;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::Crowded:
      return "crowded";
    case Workload::Dispersed:
      return "dispersed";
    case Workload::SsyncSweep:
      return "ssync-sweep";
    case Workload::ServiceMix:
      return "service-mix";
  }
  return "?";
}

Stream::Stream(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  SplitMix rng(mix(seed, 0x5eed));
  switch (workload) {
    case Workload::Crowded:
      for (std::uint32_t f = 0; f < kRegimeFamilies.size(); ++f) {
        for (std::uint32_t s = 0; s < kCrowdedStrata.size(); ++s) {
          cells_.push_back(Cell{Kind::Run, f, s});
        }
      }
      break;
    case Workload::Dispersed:
      for (std::uint32_t f = 0; f < kRegimeFamilies.size(); ++f) {
        for (std::uint32_t divisor = 2; divisor <= 4; ++divisor) {
          cells_.push_back(Cell{Kind::Run, f, divisor});
        }
      }
      break;
    case Workload::SsyncSweep:
      cells_.push_back(Cell{Kind::Sweep, 0, 0});
      break;
    case Workload::ServiceMix: {
      for (std::uint32_t r = 0; r < kMixNewRuns; ++r) {
        cells_.push_back(Cell{Kind::Run, r, 0});
      }
      for (std::uint32_t r = 0; r < kMixNewSweeps; ++r) {
        cells_.push_back(Cell{Kind::Sweep, r, 0});
      }
      // Each position's kind, and whether it introduces a spec or
      // repeats an earlier one with Zipf popularity by introduction order.
      std::vector<int> is_sweep(kMixCalls, 0);
      std::fill(is_sweep.begin(), is_sweep.begin() + kMixSweepCalls, 1);
      shuffle(is_sweep, rng);
      sequence_.assign(kMixCalls, 0);
      for (const Kind kind : {Kind::Run, Kind::Sweep}) {
        const bool sweep = kind == Kind::Sweep;
        std::vector<std::size_t> slots;
        for (std::size_t p = 0; p < kMixCalls; ++p) {
          if ((is_sweep[p] != 0) == sweep) slots.push_back(p);
        }
        const std::vector<int> fresh = introductions(
            slots.size(), sweep ? kMixNewSweeps : kMixNewRuns, rng);
        const std::uint32_t base = sweep ? kMixNewRuns : 0;
        std::size_t seen = 0;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          const std::size_t rank = fresh[i] ? seen++ : zipf_pick(seen, rng);
          sequence_[slots[i]] = base + static_cast<std::uint32_t>(rank);
        }
      }
      return;
    }
  }
  // One call per cell, in a seed-shuffled order.
  sequence_.resize(cells_.size());
  std::iota(sequence_.begin(), sequence_.end(), 0U);
  shuffle(sequence_, rng);
}

Request Stream::at(std::size_t index) const {
  const std::size_t cycle = index / sequence_.size();
  const std::uint32_t which = sequence_[index % sequence_.size()];
  const Cell& cell = cells_[which];
  Request request;
  request.kind = cell.kind;
  request.identity = mix(mix(seed_, cycle), which);
  // The cell's randomized attributes and scenario seed, fresh per cycle.
  SplitMix rng(request.identity);
  std::string body;
  switch (workload_) {
    case Workload::Crowded: {
      const auto& [n, ratio] = kCrowdedStrata[cell.b];
      body = line("family", kRegimeFamilies[cell.a]) + line("n", n) +
             line("k", ratio * n) + line("placement", "one-node") +
             line("algorithm", "faster") + line("scheduler", "synchronous");
      request.synchronous = true;
      break;
    }
    case Workload::Dispersed: {
      const std::size_t n =
          kDispersedBands[(cell.a + cell.b) % kDispersedBands.size()] - 2 +
          rng.below(5);
      body = line("family", kRegimeFamilies[cell.a]) + line("n", n) +
             line("k", n / cell.b + 1) + line("placement", "dispersed") +
             line("algorithm", "faster") + line("scheduler", "synchronous");
      request.synchronous = true;
      break;
    }
    case Workload::SsyncSweep: {
      std::string families;
      for (const char* family : kPureFamilies) {
        if (!families.empty()) families += ',';
        families += family;
      }
      body = line("families", families) + line("sizes", 12) +
             line("k_rules", 4) + line("schedulers", "semi-synchronous") +
             line("threads", 2) + line("use_result_cache", 0);
      break;
    }
    case Workload::ServiceMix: {
      const char* scheduler = rotating_scheduler(cell.a);
      if (cell.kind == Kind::Run) {
        body = line("family", kPureFamilies[pick_family(rng, scheduler)]) +
               line("n", 8 + rng.below(17)) + line("k", 2 + rng.below(5)) +
               line("scheduler", scheduler);
        request.synchronous = std::string_view(scheduler) == "synchronous";
        request.adversarial = !request.synchronous;
      } else {
        const std::size_t a = pick_family(rng, scheduler);
        std::size_t b = a;
        while (b == a) b = pick_family(rng, scheduler);
        const std::size_t n1 = 8 + rng.below(17);
        const std::size_t n2 = 8 + (n1 - 8 + 1 + rng.below(16)) % 17;
        body = line("families", std::string(kPureFamilies[a]) + "," +
                                    kPureFamilies[b]) +
               line("sizes", std::to_string(n1) + "," + std::to_string(n2)) +
               line("k_rules", 2 + rng.below(5)) +
               line("schedulers", scheduler) + line("threads", 1) +
               line("use_result_cache", 1);
      }
      break;
    }
  }
  request.text = body + line(cell.kind == Kind::Sweep ? "seeds" : "seed",
                             rng.next() & 0xffffffffULL);
  return request;
}

double Stream::repeat_fraction() const {
  std::vector<std::uint32_t> seen;
  std::size_t repeats = 0;
  for (const std::uint32_t which : sequence_) {
    if (std::find(seen.begin(), seen.end(), which) != seen.end()) {
      ++repeats;
    } else {
      seen.push_back(which);
    }
  }
  return static_cast<double>(repeats) / static_cast<double>(sequence_.size());
}

void Stream::prepare(std::size_t count) {
  prepared_.clear();
  prepared_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) prepared_.push_back(at(i));
}

}  // namespace perfbench
