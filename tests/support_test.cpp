// Unit tests for src/support: RNG determinism, bit utilities, saturating
// math, statistics, tables, CSV, and the parallel sweep executor.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>
#include <sstream>

#include "support/assert.hpp"
#include "support/bitstring.hpp"
#include "support/csv.hpp"
#include "support/math.hpp"
#include "support/parallel_for.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace gather::support {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= (a.next() != b.next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenInclusive) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear in 500 draws
}

TEST(Rng, ShufflePreservesElements) {
  Xoshiro256 rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, HashCombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

TEST(Math, SatAddSaturates) {
  EXPECT_EQ(sat_add(kU64Max, 1), kU64Max);
  EXPECT_EQ(sat_add(kU64Max - 1, 1), kU64Max);
  EXPECT_EQ(sat_add(2, 3), 5u);
}

TEST(Math, SatMulSaturates) {
  EXPECT_EQ(sat_mul(kU64Max, 2), kU64Max);
  EXPECT_EQ(sat_mul(1ULL << 40, 1ULL << 40), kU64Max);
  EXPECT_EQ(sat_mul(6, 7), 42u);
  EXPECT_EQ(sat_mul(0, kU64Max), 0u);
}

TEST(Math, SatPow) {
  EXPECT_EQ(sat_pow(2, 10), 1024u);
  EXPECT_EQ(sat_pow(10, 0), 1u);
  EXPECT_EQ(sat_pow(2, 64), kU64Max);
  EXPECT_EQ(sat_pow(0, 3), 0u);
}

// The schedule arithmetic evaluates bit widths in constant expressions.
static_assert(bit_width_u64(0) == 0 && bit_width_u64(kU64Max) == 64);

TEST(Math, BitWidth) {
  EXPECT_EQ(bit_width_u64(0), 0u);
  EXPECT_EQ(bit_width_u64(1), 1u);
  EXPECT_EQ(bit_width_u64(2), 2u);
  EXPECT_EQ(bit_width_u64(255), 8u);
  EXPECT_EQ(bit_width_u64(256), 9u);
  // Every power boundary against a shift-loop reference.
  const auto reference = [](std::uint64_t v) {
    unsigned w = 0;
    for (; v != 0; v >>= 1) ++w;
    return w;
  };
  EXPECT_EQ(bit_width_u64(kU64Max), reference(kU64Max));
  for (unsigned j = 1; j < 64; ++j) {
    const std::uint64_t p = std::uint64_t{1} << j;
    EXPECT_EQ(bit_width_u64(p - 1), reference(p - 1)) << "2^" << j << "-1";
    EXPECT_EQ(bit_width_u64(p), reference(p)) << "2^" << j;
  }
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
}

TEST(Bitstring, Length) {
  EXPECT_EQ(label_bit_length(1), 1u);
  EXPECT_EQ(label_bit_length(2), 2u);
  EXPECT_EQ(label_bit_length(3), 2u);
  EXPECT_EQ(label_bit_length(8), 4u);
}

TEST(Bitstring, LsbFirstBits) {
  // 6 = 110b -> LSB first: 0, 1, 1, then padding zeros.
  EXPECT_FALSE(label_bit_lsb_first(6, 0));
  EXPECT_TRUE(label_bit_lsb_first(6, 1));
  EXPECT_TRUE(label_bit_lsb_first(6, 2));
  EXPECT_FALSE(label_bit_lsb_first(6, 3));
  EXPECT_FALSE(label_bit_lsb_first(6, 63));
  EXPECT_FALSE(label_bit_lsb_first(6, 200));
}

TEST(Stats, LinearFitExact) {
  const auto fit = linear_fit({1, 2, 3, 4}, {3, 5, 7, 9});  // y = 2x + 1
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Stats, LogLogRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x : {8.0, 16.0, 32.0, 64.0}) {
    xs.push_back(x);
    ys.push_back(5.0 * x * x * x);  // cubic
  }
  const auto fit = loglog_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
}

TEST(Stats, RejectsDegenerateInput) {
  EXPECT_THROW((void)linear_fit({1}, {1}), ContractViolation);
  EXPECT_THROW((void)loglog_fit({1, -2}, {1, 2}), ContractViolation);
}

TEST(Table, FormatsAlignedRows) {
  TextTable t({"n", "rounds"});
  t.add_row({"8", "2216"});
  t.add_row({"16", "17000"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("rounds"), std::string::npos);
  EXPECT_NE(out.find("17000"), std::string::npos);
  EXPECT_NE(out.find('+'), std::string::npos);
}

TEST(Table, GroupedThousands) {
  EXPECT_EQ(TextTable::grouped(1234567), "1,234,567");
  EXPECT_EQ(TextTable::grouped(999), "999");
  EXPECT_EQ(TextTable::grouped(0), "0");
}

TEST(Table, RowArityChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Csv, WritesEscapedCells) {
  const std::string path = testing::TempDir() + "/gather_csv_test.csv";
  {
    CsvWriter w(path, {"name", "value"});
    ASSERT_TRUE(w.ok());
    w.add_row({"plain", "1"});
    w.add_row({"with,comma", "2"});
    w.add_row({"with\"quote", "3"});
  }
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(all.find("\"with\"\"quote\""), std::string::npos);
}

TEST(ParallelFor, WorkerCountIsCapped) {
  // Pure arithmetic: no thread is started here.
  constexpr unsigned kHuge = std::numeric_limits<unsigned>::max();
  constexpr std::size_t kRows = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(worker_count(kRows, kHuge), kMaxWorkers);
  EXPECT_EQ(worker_count(kRows, kMaxWorkers + 1), kMaxWorkers);
  EXPECT_EQ(worker_count(kRows, 97), 97u);
  EXPECT_EQ(worker_count(10, kHuge), 10u);
  EXPECT_EQ(worker_count(1, kHuge), 1u);
  EXPECT_EQ(worker_count(0, kHuge), 0u);
  EXPECT_EQ(worker_count(kRows, 1), 1u);
  EXPECT_EQ(worker_count(kRows, 0), 0u);
  static_assert(kMaxWorkers == 256);
}

TEST(ParallelFor, ThreadCountParsesPlainDecimalsOnly) {
  // The GATHER_THREADS parser, without touching the environment.
  EXPECT_EQ(parse_thread_count("0"), 0u);
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("007"), 7u);
  EXPECT_EQ(parse_thread_count("256"), kMaxWorkers);
  // Large values clamp to the cap instead of wrapping around.
  EXPECT_EQ(parse_thread_count("257"), kMaxWorkers);
  EXPECT_EQ(parse_thread_count("4294967296"), kMaxWorkers);
  EXPECT_EQ(parse_thread_count("4294967297"), kMaxWorkers);
  EXPECT_EQ(parse_thread_count("99999999999999999999999999"), kMaxWorkers);
  for (const char* bad : {"", "abc", "-1", "+2", " 2", "2 ", "2x", "0x10",
                          "1e3", "3.5"}) {
    EXPECT_EQ(parse_thread_count(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(ParallelFor, VisitsAllIndicesOnce) {
  std::vector<std::atomic<int>> counts(1000);
  parallel_for_index(1000, 8, [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, SerialFallback) {
  std::vector<int> counts(64, 0);
  parallel_for_index(64, 1, [&](std::size_t i) { counts[i]++; });
  for (const int c : counts) EXPECT_EQ(c, 1);
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for_index(100, 4,
                         [](std::size_t i) {
                           if (i == 37) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

TEST(ParallelFor, MapCollectsInOrder) {
  const auto out = parallel_map_index<std::size_t>(
      50, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  std::atomic<int> calls{0};
  parallel_for_index(0, 8, [&](std::size_t) { calls++; });
  parallel_for_index(0, 1, [&](std::size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, MoreThreadsThanIndices) {
  // The pool must clamp to `count` workers and still visit each index
  // exactly once — no worker may spin on an out-of-range index.
  std::vector<std::atomic<int>> counts(3);
  parallel_for_index(3, 16, [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, SoleErrorPropagatesExactly) {
  // One throwing index: that exact exception must surface, and every
  // other index must still be free to run (the stop flag only abandons
  // indices claimed after the capture).
  std::atomic<int> calls{0};
  try {
    parallel_for_index(100, 4, [&](std::size_t i) {
      if (i == 37) throw SimError("index 37 failed");
      calls++;
    });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "index 37 failed");
  }
  EXPECT_LE(calls.load(), 99);
}

TEST(ParallelFor, FirstErrorWinsPoolJoinsCleanly) {
  // Many concurrent throwers: exactly one exception is chosen, it is one
  // of the thrown ones, and all workers join (the call returns rather
  // than deadlocking or terminating). Looped as a stress test — under
  // TSan this pins the error-capture path (mutex + stop flag) race-free.
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<int> started{0};
    try {
      parallel_for_index(64, 4, [&](std::size_t i) {
        started++;
        if (i % 3 == 0) throw SimError("thrower " + std::to_string(i));
      });
      FAIL() << "expected SimError";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("thrower"), std::string::npos);
    }
    EXPECT_GE(started.load(), 1);
    EXPECT_LE(started.load(), 64);
  }
}

TEST(ParallelFor, MapExceptionPropagates) {
  EXPECT_THROW(parallel_map_index<int>(10, 4,
                                       [](std::size_t i) {
                                         if (i == 5) throw SimError("map");
                                         return static_cast<int>(i);
                                       }),
               SimError);
}

TEST(ParallelFor, TinyStealChunkVisitsAllIndicesOnce) {
  // steal_chunk=1 maximizes steal traffic: every index is its own
  // stealing currency, so this pins the deque claim/steal paths under
  // the worst-case schedule. Each index must still run exactly once.
  std::vector<std::atomic<int>> counts(257);
  parallel_for_index(
      257, 8, [&](std::size_t i) { counts[i]++; }, 1);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, StealChunkLargerThanCount) {
  // One chunk per worker slab: stealing degenerates to the static
  // partition, which must still cover the range exactly once.
  std::vector<std::atomic<int>> counts(5);
  parallel_for_index(
      5, 3, [&](std::size_t i) { counts[i]++; }, 1000);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, MapMatchesSerialForTinyStealChunk) {
  // The executor contract — identical to serial execution — must hold
  // under the most steal-heavy schedule, not just the auto chunking.
  const auto serial = parallel_map_index<std::uint64_t>(
      97, 1, [](std::size_t i) { return i * 2654435761u; });
  for (unsigned threads : {2u, 3u, 8u, 97u}) {
    const auto stolen = parallel_map_index<std::uint64_t>(
        97, threads, [](std::size_t i) { return i * 2654435761u; }, 1);
    EXPECT_EQ(stolen, serial) << "threads=" << threads;
  }
}

TEST(ParallelFor, PlainFunctorCallable) {
  // The callable is a template parameter (no std::function in the
  // per-index path) — a plain functor must work without any conversion.
  struct Doubler {
    std::vector<std::atomic<int>>* counts;
    void operator()(std::size_t i) const { (*counts)[i] += 2; }
  };
  std::vector<std::atomic<int>> counts(64);
  parallel_for_index(64, 4, Doubler{&counts});
  for (const auto& c : counts) EXPECT_EQ(c.load(), 2);
}

TEST(ParallelFor, ErrorUnderTinyStealChunkStillPropagates) {
  for (int iter = 0; iter < 20; ++iter) {
    EXPECT_THROW(parallel_for_index(
                     64, 4,
                     [](std::size_t i) {
                       if (i == 13) throw SimError("stolen boom");
                     },
                     1),
                 SimError);
  }
}

TEST(ParallelFor, MapMatchesSerialForEveryThreadCount) {
  // Result-order determinism: the executor contract is "identical to
  // serial execution" regardless of worker count or claim interleaving.
  const auto serial = parallel_map_index<std::uint64_t>(
      97, 1, [](std::size_t i) { return i * 2654435761u; });
  for (unsigned threads : {2u, 3u, 8u, 97u}) {
    const auto parallel = parallel_map_index<std::uint64_t>(
        97, threads, [](std::size_t i) { return i * 2654435761u; });
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace gather::support
