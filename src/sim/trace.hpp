// Binary trace capture and replay — the run as a command buffer.
//
// The engine's trace_hash proves two runs were identical but throws the
// run away: a 10^4-robot, Õ(n^5)-round execution cannot be diffed,
// bisected, or visualized without re-simulating it. TraceRecorder turns
// a run into a compact, versioned binary command buffer of per-round
// *typed action vectors* — activations, moves, follows, terminations,
// carried (standing-follow) moves — plus a preamble carrying the
// per-robot schedule (start node, release round, crash round) and a
// trailer carrying the RunResult. TraceReplayer re-executes the buffer
// against plain occupancy/timeline state, with no algorithm decide logic
// and no graph, reproducing the run's trace hash, final positions, and
// RunResult exactly; every recomputed quantity is cross-checked against
// the trailer, so a corrupt or truncated file fails with TraceError, not
// silently.
//
// Format v1 (all integers LEB128 varints unless noted; see DESIGN.md
// "Binary trace format" for the layout and forward-compat rules):
//
//   "GTRC" magic · version · preamble (num_nodes, num_slots, flags,
//   hard_cap, per-slot id/start/release/crash) · round records (tag
//   kRound: round delta, then the five typed vectors, slots
//   delta-encoded in ascending order) · one terminal record (tag kEnd:
//   result flags, metrics, trace hash, final positions, moves per
//   robot — or tag kViolation: round + message for a run a
//   ProtocolViolation aborted) · FNV-1a checksum over everything before
//   it (8 raw little-endian bytes).
//
// Replay invariants that make this exact: the engine hashes moves and
// terminations interleaved in ascending-slot order over the active set,
// then carried moves in ascending-slot order; per-round vectors keep
// those sets separately (they are disjoint) and the replayer merges by
// slot, so the fingerprint accumulates in the engine's exact order.
// `from` nodes are not stored — the replayer's own occupancy state
// supplies them, which is what makes replay a *check* rather than a
// copy.
//
// The recorder is an opt-in sink (EngineConfig::trace_recorder, null by
// default): when disabled the engine pays one predicted-false branch per
// round and per move, nothing else. tests/engine_test.cpp pins that a
// recorded run reproduces the unrecorded one's counters.
//
// Layer contract: sim/ (no dependency on scenario/ or core/); depends
// on support/ only. Harness surfaces: scenario::ScenarioSpec::
// trace_path, scenario::SweepSpec::trace_dir, gather_cli
// --record/--replay/--diff, tools/trace_diff.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/types.hpp"
#include "support/assert.hpp"

namespace gather::sim {

/// Decode, replay, or IO failure on a trace buffer. Derives from
/// SimError so callers that already report simulation failures pick it
/// up; never silent, never UB.
class TraceError : public SimError {
 public:
  explicit TraceError(const std::string& what) : SimError(what) {}
};

inline constexpr std::uint32_t kTraceVersion = 1;

/// One robot's preamble entry (slot = add_robot order).
struct TraceRobot {
  RobotId id = 0;
  NodeId start = 0;
  Round release = 0;       ///< scheduler release round (0 = synchronous)
  Round crash = kNoRound;  ///< scheduler crash round (kNoRound = never)
};

struct TraceMove {
  std::uint32_t slot = 0;
  NodeId to = 0;
};

struct TraceFollow {
  std::uint32_t slot = 0;
  std::uint32_t leader = 0;  ///< leader's slot
};

/// One simulated round's typed action vectors. All slot vectors are in
/// strictly ascending slot order; `moves` and `terminations` are
/// disjoint (a slot acts at most once per round) and `carried` is
/// disjoint from both (carried slots were not activated).
struct TraceRound {
  Round round = 0;
  std::vector<std::uint32_t> activations;
  std::vector<TraceMove> moves;
  std::vector<std::uint32_t> terminations;
  std::vector<TraceFollow> follows;
  std::vector<TraceMove> carried;
};

/// A fully decoded trace. For a completed run `recorded` and
/// `final_positions` carry the trailer; for a violation-terminated run
/// they are default and the violation fields are set instead.
struct Trace {
  std::size_t num_nodes = 0;
  bool naive_stepping = false;
  Round hard_cap = 0;
  std::vector<TraceRobot> robots;
  std::vector<TraceRound> rounds;

  bool violation = false;
  Round violation_round = 0;
  std::string violation_message;

  RunResult recorded;  ///< trailer RunResult (moves_per_robot included)
  std::vector<NodeId> final_positions;
};

/// Streaming encoder fed by the engine (see the hook points in
/// sim/engine.cpp). Buffers one round of typed vectors; each
/// begin_round flushes the previous round's encoding, so memory stays
/// O(robots + encoded bytes). finish()/record_violation() writes the
/// terminal record + checksum; bytes() is valid only after one of them.
class TraceRecorder {
 public:
  void begin_run(std::size_t num_nodes, bool naive_stepping, Round hard_cap,
                 std::span<const RobotId> ids, std::span<const NodeId> starts,
                 std::span<const Round> release, std::span<const Round> crash);
  void begin_round(Round r, std::span<const std::uint32_t> active);
  void record_move(std::uint32_t slot, NodeId to);
  void record_carried(std::uint32_t slot, NodeId to);
  void record_follow(std::uint32_t slot, std::uint32_t leader_slot);
  void record_terminate(std::uint32_t slot);
  /// Terminal record for a completed run; `final_positions` is the
  /// engine's end-of-run pos_ array (slot order).
  void finish(const RunResult& result, std::span<const NodeId> final_positions);
  /// Terminal record for a run aborted by a ProtocolViolation (called by
  /// core::run_gathering before rethrowing). The staged partial round is
  /// flushed first, so replay reproduces the run up to the break.
  void record_violation(std::string_view message);

  [[nodiscard]] bool finished() const { return finished_; }
  /// The encoded buffer; valid only once finished.
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const;

 private:
  void flush_round();

  std::vector<std::uint8_t> buffer_;
  TraceRound staged_;
  bool started_ = false;
  bool staging_ = false;
  bool finished_ = false;
  Round prev_round_ = 0;
  bool any_round_ = false;
};

/// Result of re-executing a trace. For a complete trace `result` equals
/// the recorded RunResult bit for bit (the replayer recomputes every
/// replayable field and cross-checks it against the trailer; only
/// total_message_bits and hit_round_cap are carried through). For a
/// violation trace the violation fields are set and `result` holds the
/// recomputed partial metrics.
struct ReplayResult {
  RunResult result;
  std::vector<NodeId> final_positions;
  bool violation = false;
  Round violation_round = 0;
  std::string violation_message;
};

/// Canonical encoding of a decoded trace — byte-identical to what the
/// recorder emitted (decode→encode is the identity on valid buffers;
/// pinned by tests/trace_test.cpp on the committed golden traces).
[[nodiscard]] std::vector<std::uint8_t> encode_trace(const Trace& trace);

/// Parse and structurally validate a buffer (magic, version, record
/// grammar, checksum). Throws TraceError on any malformation.
[[nodiscard]] Trace decode_trace(std::span<const std::uint8_t> bytes);

/// Re-execute a decoded trace against fresh occupancy/timeline state (no
/// robots, no graph) and cross-check the trailer. Throws TraceError on
/// any inconsistency (corruption the checksum cannot see, e.g. a
/// semantically impossible event stream from a buggy writer).
[[nodiscard]] ReplayResult replay_trace(const Trace& trace);

/// First point where two traces disagree, for bisecting runs.
struct TraceDivergence {
  Round round = 0;    ///< round of the divergence (0 for preamble-level)
  RobotId robot = 0;  ///< robot label involved (0 = not robot-specific)
  std::string what;   ///< human-readable action-level description
};

/// std::nullopt when the traces describe the identical run; otherwise
/// the first divergence in (preamble, round records, terminal) order.
[[nodiscard]] std::optional<TraceDivergence> first_divergence(const Trace& a,
                                                              const Trace& b);

/// Whole-file helpers. Throw TraceError on IO failure.
void write_trace_file(const std::string& path,
                      std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> read_trace_file(
    const std::string& path);

}  // namespace gather::sim
