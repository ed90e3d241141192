// Trace capture/replay referee suite.
//
// Three layers of pins:
//  1. Golden binary traces committed under tests/data/ — one synchronous
//     run (the star instance whose trace hash was captured from the seed
//     engine at commit dbf0492) and one semi-synchronous fairness=3 run.
//     decode→re-encode must be byte-identical, and replay must reproduce
//     the pinned trace hash and RunResult without touching the
//     simulator.
//  2. A record→decode→replay round-trip over every registered graph
//     family × every registered scheduler: the replayed RunResult
//     (trace hash, metrics, detection/false-announcement flags) must
//     equal the live engine's bit for bit, and violation-terminated runs
//     must replay as violations.
//  3. Negative paths: truncated, corrupted, or semantically inconsistent
//     buffers fail with TraceError and a usable message — never silently
//     and never with undefined behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/run.hpp"
#include "scenario/scenario.hpp"
#include "sim/trace.hpp"
#include "support/parallel_for.hpp"

#ifndef GATHER_TEST_DATA_DIR
#error "tests/CMakeLists.txt must define GATHER_TEST_DATA_DIR"
#endif

namespace gather::sim {
namespace {

std::string data_path(const std::string& name) {
  return std::string(GATHER_TEST_DATA_DIR) + "/" + name;
}

// ---- 1. committed golden traces ------------------------------------------

struct GoldenPin {
  const char* file;
  std::size_t num_nodes;
  std::size_t robots;
  std::uint64_t trace_hash;
  Round rounds;
  std::uint64_t simulated_rounds;
  std::uint64_t total_moves;
  bool detection_correct;
};

// Values captured when the traces were recorded; the sync star hash is
// the dbf0492-era pin also asserted in scheduler_test.cpp.
const GoldenPin kGolden[] = {
    // star n=9 k=3 one-node/undispersed seed=11, synchronous
    {"golden_sync_star.trace", 9, 3, 0x995d072cdd647e10ULL, 3122, 107, 136,
     true},
    // ring n=4 k=2 undispersed/uxs seed=3, semi-synchronous fairness=3
    {"golden_ssync_ring.trace", 4, 2, 0xdbefd565d03ee97cULL, 3785, 2899, 512,
     true},
};

TEST(GoldenTrace, DecodeReencodeIsByteIdentical) {
  for (const GoldenPin& pin : kGolden) {
    const std::vector<std::uint8_t> bytes = read_trace_file(data_path(pin.file));
    const Trace trace = decode_trace(bytes);
    EXPECT_EQ(encode_trace(trace), bytes) << pin.file;
  }
}

TEST(GoldenTrace, ReplayReproducesPinnedRun) {
  for (const GoldenPin& pin : kGolden) {
    const Trace trace = decode_trace(read_trace_file(data_path(pin.file)));
    EXPECT_EQ(trace.num_nodes, pin.num_nodes) << pin.file;
    ASSERT_EQ(trace.robots.size(), pin.robots) << pin.file;
    const ReplayResult replay = replay_trace(trace);
    EXPECT_FALSE(replay.violation) << pin.file;
    EXPECT_EQ(replay.result.metrics.trace_hash, pin.trace_hash) << pin.file;
    EXPECT_EQ(replay.result.metrics.rounds, pin.rounds) << pin.file;
    EXPECT_EQ(replay.result.metrics.simulated_rounds, pin.simulated_rounds)
        << pin.file;
    EXPECT_EQ(replay.result.metrics.total_moves, pin.total_moves) << pin.file;
    EXPECT_TRUE(replay.result.gathered_at_end) << pin.file;
    EXPECT_EQ(replay.result.detection_correct, pin.detection_correct)
        << pin.file;
    EXPECT_FALSE(replay.result.false_announcement) << pin.file;
    // Gathered runs end with every robot on one node.
    ASSERT_EQ(replay.final_positions.size(), pin.robots) << pin.file;
    for (const NodeId pos : replay.final_positions) {
      EXPECT_EQ(pos, replay.final_positions.front()) << pin.file;
    }
  }
}

// ---- 2. record/replay round-trip across families × schedulers ------------

std::string roundtrip_one(const std::string& family,
                          const std::string& scheduler) {
  const std::string name = family + "/" + scheduler;
  scenario::ScenarioSpec spec;
  spec.family = family;
  spec.scheduler = scheduler;
  spec.n = 12;
  spec.k = 3;
  spec.seed = 7;
  const scenario::ResolvedScenario resolved = scenario::resolve(spec);

  TraceRecorder recorder;
  core::RunSpec run_spec = resolved.run_spec;
  run_spec.trace_recorder = &recorder;
  bool threw = false;
  std::string violation_message;
  core::RunOutcome live;
  try {
    live = core::run_gathering(*resolved.graph, resolved.placement, run_spec);
  } catch (const ProtocolViolation& e) {
    threw = true;
    violation_message = e.what();
  }
  if (!recorder.finished()) return name + ": recorder not finished";

  const Trace trace = decode_trace(recorder.bytes());
  if (encode_trace(trace) != recorder.bytes()) {
    return name + ": decode/re-encode not byte-identical";
  }
  const ReplayResult replay = replay_trace(trace);

  if (threw) {
    if (!replay.violation) return name + ": violation run replayed clean";
    if (replay.violation_message != violation_message) {
      return name + ": violation message mismatch";
    }
    return "";
  }
  if (replay.violation) return name + ": clean run replayed as violation";

  const RunResult& a = live.result;
  const RunResult& b = replay.result;
  if (a.metrics.trace_hash != b.metrics.trace_hash) {
    return name + ": trace hash mismatch";
  }
  if (a.metrics.rounds != b.metrics.rounds ||
      a.metrics.first_gathered != b.metrics.first_gathered ||
      a.metrics.first_termination != b.metrics.first_termination ||
      a.metrics.last_termination != b.metrics.last_termination ||
      a.metrics.total_moves != b.metrics.total_moves ||
      a.metrics.total_message_bits != b.metrics.total_message_bits ||
      a.metrics.decision_calls != b.metrics.decision_calls ||
      a.metrics.simulated_rounds != b.metrics.simulated_rounds ||
      a.metrics.moves_per_robot != b.metrics.moves_per_robot) {
    return name + ": metrics mismatch";
  }
  if (a.all_terminated != b.all_terminated ||
      a.hit_round_cap != b.hit_round_cap ||
      a.gathered_at_end != b.gathered_at_end ||
      a.detection_correct != b.detection_correct ||
      a.false_announcement != b.false_announcement ||
      a.gather_node != b.gather_node) {
    return name + ": result flags mismatch";
  }
  if (replay.final_positions != trace.final_positions) {
    return name + ": final positions mismatch";
  }
  return "";
}

TEST(TraceRoundTrip, EveryFamilyTimesEveryScheduler) {
  std::vector<std::string> families;
  for (const std::string& family : scenario::graph_families().list()) {
    if (family != "file") families.push_back(family);  // needs a graph file
  }
  const std::vector<std::string> schedulers = scenario::schedulers().list();
  ASSERT_GE(families.size(), 16u);
  ASSERT_GE(schedulers.size(), 4u);

  struct Case {
    std::string family;
    std::string scheduler;
  };
  std::vector<Case> cases;
  for (const std::string& family : families) {
    for (const std::string& scheduler : schedulers) {
      cases.push_back({family, scheduler});
    }
  }
  const std::vector<std::string> failures =
      support::parallel_map_index<std::string>(
          cases.size(), support::default_thread_count(), [&](std::size_t i) {
            return roundtrip_one(cases[i].family, cases[i].scheduler);
          });
  for (const std::string& failure : failures) {
    EXPECT_EQ(failure, "");
  }
}

// ---- 3. negative paths ---------------------------------------------------

std::vector<std::uint8_t> golden_bytes() {
  return read_trace_file(data_path("golden_sync_star.trace"));
}

TEST(TraceNegative, TruncationAtEveryPrefixFailsCleanly) {
  const std::vector<std::uint8_t> bytes = golden_bytes();
  // Every strict prefix must decode to TraceError — never crash, never
  // return a Trace. Step 7 keeps the loop cheap while still covering
  // header, preamble, round-record, and trailer truncations.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    EXPECT_THROW(
        (void)decode_trace(std::span(bytes.data(), len)), TraceError)
        << "prefix length " << len;
  }
}

TEST(TraceNegative, SingleByteCorruptionFailsCleanly) {
  const std::vector<std::uint8_t> bytes = golden_bytes();
  // Flip one byte at a spread of offsets; decode must either throw
  // TraceError (structural damage or checksum mismatch) — it must never
  // succeed, because the checksum covers every byte before it and the
  // trailing checksum bytes themselves are verified against the rest.
  for (const std::size_t offset :
       {std::size_t{4}, std::size_t{9}, bytes.size() / 2, bytes.size() - 3}) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[offset] ^= 0xff;
    EXPECT_THROW((void)decode_trace(corrupt), TraceError)
        << "offset " << offset;
  }
}

TEST(TraceNegative, BadMagicAndVersionRejected) {
  std::vector<std::uint8_t> bytes = golden_bytes();
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW((void)decode_trace(bad), TraceError);
  }
  EXPECT_THROW((void)decode_trace(std::span<const std::uint8_t>()),
               TraceError);
  // A future-version buffer must be rejected up front, not misparsed.
  std::vector<std::uint8_t> future = bytes;
  future[4] = 2;  // version varint directly after the 4-byte magic
  EXPECT_THROW((void)decode_trace(future), TraceError);
}

TEST(TraceNegative, TrailingGarbageRejected) {
  std::vector<std::uint8_t> bytes = golden_bytes();
  bytes.push_back(0x00);
  EXPECT_THROW((void)decode_trace(bytes), TraceError);
}

/// Recompute the trailing FNV-1a checksum after a byte patch, so the
/// patched buffer reaches the decoder's structural checks.
void reseal(std::vector<std::uint8_t>& bytes) {
  bytes.resize(bytes.size() - 8);
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(h >> (8 * i)));
  }
}

/// The encoding of `trace` with one varint field replaced by `wide`,
/// checksum resealed. `set` writes the field; encoding it as 0 and as 1
/// (both one-byte varints) locates it at the first byte where the two
/// buffers differ.
std::vector<std::uint8_t> patch_varint(
    Trace trace, const std::function<void(Trace&, std::uint64_t)>& set,
    std::uint64_t wide) {
  set(trace, 0);
  std::vector<std::uint8_t> bytes = encode_trace(trace);
  set(trace, 1);
  const std::vector<std::uint8_t> other = encode_trace(trace);
  EXPECT_EQ(bytes.size(), other.size());
  const auto at =
      std::mismatch(bytes.begin(), bytes.end(), other.begin()).first;
  EXPECT_NE(at, bytes.end());
  std::vector<std::uint8_t> encoded;  // LEB128, as the writer emits it
  std::uint64_t v = wide;
  for (; v >= 0x80; v >>= 7) {
    encoded.push_back(static_cast<std::uint8_t>(v) | 0x80);
  }
  encoded.push_back(static_cast<std::uint8_t>(v));
  const auto offset = at - bytes.begin();
  bytes.erase(bytes.begin() + offset);
  bytes.insert(bytes.begin() + offset, encoded.begin(), encoded.end());
  reseal(bytes);
  return bytes;
}

TEST(TraceNegative, NodeIdsAreRangeCheckedBeforeNarrowing) {
  // A checksum-valid trace naming node 2^32 + v must be rejected, not
  // decoded as node v: every node field is range-checked as the full
  // 64-bit varint.
  const Trace golden = decode_trace(golden_bytes());
  ASSERT_LT(golden.num_nodes, 32u);
  constexpr std::uint64_t kAlias = (std::uint64_t{1} << 32) + 3;
  std::size_t moved = 0;
  while (golden.rounds[moved].moves.empty()) ++moved;
  const std::vector<
      std::pair<const char*, std::function<void(Trace&, std::uint64_t)>>>
      fields = {
          {"start node",
           [](Trace& t, std::uint64_t v) {
             t.robots[0].start = static_cast<NodeId>(v);
           }},
          {"move target",
           [moved](Trace& t, std::uint64_t v) {
             t.rounds[moved].moves[0].to = static_cast<NodeId>(v);
           }},
          {"carried target",
           [](Trace& t, std::uint64_t v) {
             t.rounds[0].carried = {{0, static_cast<NodeId>(v)}};
           }},
          {"gather node",
           [](Trace& t, std::uint64_t v) {
             t.recorded.gather_node = static_cast<NodeId>(v);
           }},
          {"final position",
           [](Trace& t, std::uint64_t v) {
             t.final_positions[0] = static_cast<NodeId>(v);
           }},
      };
  for (const auto& [what, set] : fields) {
    // The same patch with an in-range node decodes, so the rejection
    // below is the range check's, not collateral damage.
    EXPECT_NO_THROW((void)decode_trace(patch_varint(golden, set, 3))) << what;
    try {
      (void)decode_trace(patch_varint(golden, set, kAlias));
      ADD_FAILURE() << what << ": node 2^32+3 decoded";
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << what << ": " << e.what();
    }
  }
  // A node count past the 32-bit id space would let 2^32 + v through
  // the per-field check, so the header rejects it.
  const auto set_count = [](Trace& t, std::uint64_t v) { t.num_nodes = v; };
  EXPECT_NO_THROW((void)decode_trace(patch_varint(golden, set_count, 9)));
  const std::uint64_t past_ids = (std::uint64_t{1} << 32) + 9;
  EXPECT_THROW((void)decode_trace(patch_varint(golden, set_count, past_ids)),
               TraceError);
}

TEST(TraceNegative, ReplayCatchesInconsistentTrailer) {
  // A structurally valid trace whose trailer disagrees with its own
  // event stream (possible only via a buggy writer — the checksum still
  // matches because we re-encode) must fail replay, not propagate lies.
  Trace trace = decode_trace(golden_bytes());
  trace.recorded.metrics.total_moves += 1;
  EXPECT_THROW((void)replay_trace(trace), TraceError);

  Trace positions = decode_trace(golden_bytes());
  ASSERT_FALSE(positions.final_positions.empty());
  positions.final_positions[0] ^= 1;
  EXPECT_THROW((void)replay_trace(positions), TraceError);
}

TEST(TraceNegative, MissingFileIsTraceError) {
  EXPECT_THROW((void)read_trace_file(data_path("does_not_exist.trace")),
               TraceError);
}

// ---- first_divergence ----------------------------------------------------

TEST(TraceDiff, IdenticalTracesHaveNoDivergence) {
  const Trace a = decode_trace(golden_bytes());
  const Trace b = decode_trace(golden_bytes());
  EXPECT_FALSE(first_divergence(a, b).has_value());
}

TEST(TraceDiff, ReportsRoundAndRobotOfFirstDivergingAction) {
  const Trace a = decode_trace(golden_bytes());
  Trace b = decode_trace(golden_bytes());
  // Redirect one move in the middle of the run.
  ASSERT_GT(b.rounds.size(), 4u);
  TraceRound* victim = nullptr;
  for (TraceRound& round : b.rounds) {
    if (!round.moves.empty() && round.round > 0) {
      victim = &round;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  victim->moves[0].to = (victim->moves[0].to + 1) % a.num_nodes;
  const auto div = first_divergence(a, b);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(div->round, victim->round);
  EXPECT_EQ(div->robot, a.robots[victim->moves[0].slot].id);
  EXPECT_NE(div->what.find("move"), std::string::npos) << div->what;
}

}  // namespace
}  // namespace gather::sim
