#include "uxs/uxs.hpp"

#include "support/math.hpp"
#include "support/rng.hpp"
#include "uxs/coverage.hpp"

namespace gather::uxs {

Port next_port(Port entry_port, std::uint64_t offset, std::uint32_t degree) {
  GATHER_EXPECTS(degree >= 1);
  const std::uint64_t base = (entry_port == graph::kNoPort)
                                 ? 0
                                 : static_cast<std::uint64_t>(entry_port);
  return static_cast<Port>((base + offset) % degree);
}

ExplorationSequence::ExplorationSequence(std::string name,
                                         std::vector<std::uint32_t> offsets)
    : name_(std::move(name)), offsets_(std::move(offsets)) {
  length_ = offsets_.size();
}

ExplorationSequence::ExplorationSequence(std::string name,
                                         std::uint64_t lazy_seed,
                                         std::uint64_t length)
    : name_(std::move(name)), lazy_seed_(lazy_seed), length_(length) {
  GATHER_EXPECTS(length >= 1);
}

std::uint64_t paper_length(std::size_t n) {
  using support::sat_mul;
  const std::uint64_t logn = std::max<std::uint64_t>(1, support::ceil_log2(n));
  return std::max<std::uint64_t>(1, sat_mul(support::sat_pow(n, 5), logn));
}

std::uint64_t practical_length(std::size_t n, std::uint64_t c) {
  using support::sat_mul;
  const std::uint64_t logn = std::max<std::uint64_t>(1, support::ceil_log2(n));
  return std::max<std::uint64_t>(
      1, sat_mul(c, sat_mul(support::sat_pow(n, 3), logn)));
}

namespace {

/// Append `length` offsets of the stream seeded with `seed` to `out`.
void append_pseudorandom_offsets(std::uint64_t seed, std::uint64_t length,
                                 std::vector<std::uint32_t>& out) {
  support::Xoshiro256 rng(seed);
  const std::size_t begin = out.size();
  out.resize(begin + length);
  for (std::size_t i = begin; i < out.size(); ++i) {
    out[i] = static_cast<std::uint32_t>(rng.next() >> 32);
  }
}

}  // namespace

SequencePtr make_pseudorandom_sequence(std::size_t n, std::uint64_t length) {
  GATHER_EXPECTS(n >= 1);
  GATHER_EXPECTS(length >= 1);
  // The seed is a fixed function of n alone: every robot that knows n
  // derives the same sequence, as the model requires.
  const std::uint64_t seed = support::hash_combine(0xDEED5EEDu, n);
  std::vector<std::uint32_t> offsets;
  append_pseudorandom_offsets(seed, length, offsets);
  return std::make_shared<ExplorationSequence>(
      "pseudorandom(n=" + std::to_string(n) + ")", std::move(offsets));
}

SequencePtr make_lazy_sequence(std::size_t n, std::uint64_t length) {
  GATHER_EXPECTS(n >= 1);
  GATHER_EXPECTS(length >= 1);
  // Same n-only seeding contract as make_pseudorandom_sequence, distinct
  // stream tag (the lazy offsets are hash-per-step, not Xoshiro output).
  const std::uint64_t seed = support::hash_combine(0x1A27C0DEu, n);
  return std::make_shared<ExplorationSequence>(
      "lazy(n=" + std::to_string(n) + ")", seed, length);
}

SequencePtr make_covering_sequence(const graph::Topology& g, std::uint64_t seed) {
  const std::size_t n = g.num_nodes();
  if (n == 1) {
    return std::make_shared<ExplorationSequence>("covering(n=1)",
                                                 std::vector<std::uint32_t>{0});
  }
  // Grow a pseudorandom sequence in chunks until it covers g from every
  // start. Random walks cover in O(n^3) expected steps, so this converges
  // quickly for experiment-scale graphs.
  const std::uint64_t chunk =
      std::max<std::uint64_t>(16, 4 * static_cast<std::uint64_t>(n) * n);
  // Chunks are generated in place and checked without a copy, so one
  // chunk-sized buffer is alive at a time.
  std::vector<std::uint32_t> offsets;
  for (unsigned grow = 0; grow < 4096; ++grow) {
    append_pseudorandom_offsets(support::hash_combine(seed, grow), chunk,
                                offsets);
    if (covers_all_starts(g, offsets)) {
      return std::make_shared<ExplorationSequence>(
          "covering(n=" + std::to_string(n) +
              ",len=" + std::to_string(offsets.size()) + ")",
          std::move(offsets));
    }
  }
  throw SimError("make_covering_sequence failed to converge");
}

}  // namespace gather::uxs
