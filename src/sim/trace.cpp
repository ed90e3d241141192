#include "sim/trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace gather::sim {

namespace {

// Mirrors the accumulation in sim/engine.cpp (hash_word there): the
// replayer must fold the same words in the same order to land on the
// same fingerprint. Only equality is meaningful.
void hash_word(std::uint64_t& h, std::uint64_t w) {
  h ^= w;
  h *= 1099511628211ULL;
  h ^= h >> 47;
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr char kMagic[4] = {'G', 'T', 'R', 'C'};
constexpr std::uint8_t kRound = 0x01;
constexpr std::uint8_t kEnd = 0x02;
constexpr std::uint8_t kViolation = 0x03;

// Preamble / trailer flag bytes. v1 decoders reject unknown bits — a
// future version that needs more flags bumps the version instead of
// silently changing meaning (see DESIGN.md forward-compat rules).
constexpr std::uint8_t kFlagNaive = 0x01;
constexpr std::uint8_t kEndAllTerminated = 0x01;
constexpr std::uint8_t kEndHitRoundCap = 0x02;
constexpr std::uint8_t kEndGathered = 0x04;
constexpr std::uint8_t kEndDetectionCorrect = 0x08;
constexpr std::uint8_t kEndFalseAnnouncement = 0x10;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  [[nodiscard]] std::uint8_t u8() {
    if (pos >= bytes.size())
      throw TraceError("truncated trace: unexpected end of buffer at offset " +
                       std::to_string(pos));
    return bytes[pos++];
  }

  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw TraceError("malformed trace: overlong varint");
  }

  [[nodiscard]] std::uint64_t u64le() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    }
    return v;
  }
};

// ---- canonical record writers (shared by recorder and encode_trace) -----

void append_header(std::vector<std::uint8_t>& out, std::size_t num_nodes,
                   bool naive_stepping, Round hard_cap,
                   std::span<const TraceRobot> robots) {
  out.insert(out.end(), kMagic, kMagic + 4);
  put_varint(out, kTraceVersion);
  put_varint(out, num_nodes);
  put_varint(out, robots.size());
  out.push_back(naive_stepping ? kFlagNaive : 0);
  put_varint(out, hard_cap);
  for (const TraceRobot& r : robots) {
    put_varint(out, r.id);
    put_varint(out, r.start);
    put_varint(out, r.release);
    // +1 shift so "never" (kNoRound = 2^64-1) lands on the 1-byte 0.
    put_varint(out, r.crash + 1);
  }
}

void append_round(std::vector<std::uint8_t>& out, Round prev_round,
                  const TraceRound& rr) {
  out.push_back(kRound);
  put_varint(out, rr.round - prev_round);
  put_varint(out, rr.activations.size());
  std::uint32_t prev = 0;
  for (const std::uint32_t s : rr.activations) {
    put_varint(out, s - prev);
    prev = s;
  }
  put_varint(out, rr.moves.size());
  prev = 0;
  for (const TraceMove& mv : rr.moves) {
    put_varint(out, mv.slot - prev);
    prev = mv.slot;
    put_varint(out, mv.to);
  }
  put_varint(out, rr.terminations.size());
  prev = 0;
  for (const std::uint32_t s : rr.terminations) {
    put_varint(out, s - prev);
    prev = s;
  }
  put_varint(out, rr.follows.size());
  prev = 0;
  for (const TraceFollow& f : rr.follows) {
    put_varint(out, f.slot - prev);
    prev = f.slot;
    put_varint(out, f.leader);
  }
  put_varint(out, rr.carried.size());
  prev = 0;
  for (const TraceMove& mv : rr.carried) {
    put_varint(out, mv.slot - prev);
    prev = mv.slot;
    put_varint(out, mv.to);
  }
}

void append_end(std::vector<std::uint8_t>& out, const RunResult& result,
                std::span<const NodeId> final_positions) {
  out.push_back(kEnd);
  std::uint8_t flags = 0;
  if (result.all_terminated) flags |= kEndAllTerminated;
  if (result.hit_round_cap) flags |= kEndHitRoundCap;
  if (result.gathered_at_end) flags |= kEndGathered;
  if (result.detection_correct) flags |= kEndDetectionCorrect;
  if (result.false_announcement) flags |= kEndFalseAnnouncement;
  out.push_back(flags);
  const RunMetrics& m = result.metrics;
  put_varint(out, result.gather_node);
  put_varint(out, m.rounds);
  put_varint(out, m.first_gathered + 1);  // +1: kNoRound wraps to 0
  put_varint(out, m.first_termination + 1);
  put_varint(out, m.last_termination + 1);
  put_varint(out, m.total_moves);
  put_varint(out, m.total_message_bits);
  put_varint(out, m.decision_calls);
  put_varint(out, m.simulated_rounds);
  put_u64le(out, m.trace_hash);
  for (const NodeId p : final_positions) put_varint(out, p);
  for (const std::uint64_t c : m.moves_per_robot) put_varint(out, c);
}

void append_violation(std::vector<std::uint8_t>& out, Round round,
                      std::string_view message) {
  out.push_back(kViolation);
  put_varint(out, round);
  put_varint(out, message.size());
  out.insert(out.end(), message.begin(), message.end());
}

void append_checksum(std::vector<std::uint8_t>& out) {
  put_u64le(out, fnv1a(out.data(), out.size()));
}

}  // namespace

// ---- TraceRecorder --------------------------------------------------------

void TraceRecorder::begin_run(std::size_t num_nodes, bool naive_stepping,
                              Round hard_cap, std::span<const RobotId> ids,
                              std::span<const NodeId> starts,
                              std::span<const Round> release,
                              std::span<const Round> crash) {
  GATHER_EXPECTS(!started_);
  GATHER_EXPECTS(ids.size() == starts.size() && ids.size() == release.size() &&
                 ids.size() == crash.size());
  started_ = true;
  std::vector<TraceRobot> robots(ids.size());
  for (std::size_t s = 0; s < ids.size(); ++s) {
    robots[s] = TraceRobot{ids[s], starts[s], release[s], crash[s]};
  }
  buffer_.reserve(64 + 8 * robots.size());
  append_header(buffer_, num_nodes, naive_stepping, hard_cap, robots);
}

void TraceRecorder::begin_round(Round r, std::span<const std::uint32_t> active) {
  GATHER_EXPECTS(started_ && !finished_);
  flush_round();
  staged_.round = r;
  staged_.activations.assign(active.begin(), active.end());
  staging_ = true;
}

void TraceRecorder::record_move(std::uint32_t slot, NodeId to) {
  GATHER_EXPECTS(staging_);
  staged_.moves.push_back(TraceMove{slot, to});
}

void TraceRecorder::record_carried(std::uint32_t slot, NodeId to) {
  GATHER_EXPECTS(staging_);
  staged_.carried.push_back(TraceMove{slot, to});
}

void TraceRecorder::record_follow(std::uint32_t slot,
                                  std::uint32_t leader_slot) {
  GATHER_EXPECTS(staging_);
  staged_.follows.push_back(TraceFollow{slot, leader_slot});
}

void TraceRecorder::record_terminate(std::uint32_t slot) {
  GATHER_EXPECTS(staging_);
  staged_.terminations.push_back(slot);
}

void TraceRecorder::flush_round() {
  if (!staging_) return;
  append_round(buffer_, prev_round_, staged_);
  prev_round_ = staged_.round;
  any_round_ = true;
  staging_ = false;
  staged_.activations.clear();
  staged_.moves.clear();
  staged_.terminations.clear();
  staged_.follows.clear();
  staged_.carried.clear();
}

void TraceRecorder::finish(const RunResult& result,
                           std::span<const NodeId> final_positions) {
  GATHER_EXPECTS(started_ && !finished_);
  flush_round();
  append_end(buffer_, result, final_positions);
  append_checksum(buffer_);
  finished_ = true;
}

void TraceRecorder::record_violation(std::string_view message) {
  GATHER_EXPECTS(started_ && !finished_);
  // The violation surfaced inside the round being staged (or, if none is
  // staged — e.g. it escaped between rounds — the last flushed one).
  const Round r = staging_ ? staged_.round : prev_round_;
  flush_round();
  append_violation(buffer_, r, message);
  append_checksum(buffer_);
  finished_ = true;
}

const std::vector<std::uint8_t>& TraceRecorder::bytes() const {
  GATHER_EXPECTS(finished_);
  return buffer_;
}

// ---- encode / decode ------------------------------------------------------

std::vector<std::uint8_t> encode_trace(const Trace& trace) {
  std::vector<std::uint8_t> out;
  append_header(out, trace.num_nodes, trace.naive_stepping, trace.hard_cap,
                trace.robots);
  Round prev = 0;
  for (const TraceRound& rr : trace.rounds) {
    append_round(out, prev, rr);
    prev = rr.round;
  }
  if (trace.violation) {
    append_violation(out, trace.violation_round, trace.violation_message);
  } else {
    append_end(out, trace.recorded, trace.final_positions);
  }
  append_checksum(out);
  return out;
}

namespace {

/// Decode one ascending slot list (delta-encoded); shared by the four
/// slot-keyed vectors of a round record.
std::vector<std::uint32_t> read_slot_list(Reader& rd, std::size_t num_slots,
                                          const char* what) {
  const std::uint64_t count = rd.varint();
  if (count > num_slots) {
    throw TraceError(std::string("malformed trace: ") + what +
                     " count exceeds robot count");
  }
  std::vector<std::uint32_t> slots(count);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t delta = rd.varint();
    if (i > 0 && delta == 0) {
      throw TraceError(std::string("malformed trace: ") + what +
                       " slots not strictly ascending");
    }
    prev = i == 0 ? delta : prev + delta;
    if (prev >= num_slots) {
      throw TraceError(std::string("malformed trace: ") + what +
                       " slot out of range");
    }
    slots[i] = static_cast<std::uint32_t>(prev);
  }
  return slots;
}

/// Decode one node id. The range check runs on the full 64-bit varint,
/// before narrowing: node 2^32 + v must fail, not alias node v.
NodeId read_node(Reader& rd, std::uint64_t num_nodes, const char* what) {
  const std::uint64_t node = rd.varint();
  if (node >= num_nodes) {
    throw TraceError(std::string("malformed trace: ") + what +
                     " out of range");
  }
  return static_cast<NodeId>(node);
}

}  // namespace

Trace decode_trace(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    throw TraceError("not a gather trace (bad magic)");
  }
  Reader rd{bytes, 4};
  const std::uint64_t version = rd.varint();
  if (version != kTraceVersion) {
    throw TraceError("unsupported trace version " + std::to_string(version) +
                     " (this build reads version " +
                     std::to_string(kTraceVersion) + ")");
  }
  Trace t;
  t.num_nodes = rd.varint();
  if (t.num_nodes > static_cast<NodeId>(-1)) {
    // The engine's node ids are 32-bit (all-ones reserved); a larger
    // count would let read_node pass ids that do not fit a NodeId.
    throw TraceError("malformed trace: node count out of range");
  }
  const std::uint64_t num_slots = rd.varint();
  if (num_slots == 0) throw TraceError("malformed trace: zero robots");
  if (num_slots > bytes.size()) {
    // Each robot costs >= 4 preamble bytes; a count beyond the buffer
    // size is corruption, caught before any allocation of that size.
    throw TraceError("malformed trace: robot count exceeds buffer size");
  }
  const std::uint8_t flags = rd.u8();
  if ((flags & ~kFlagNaive) != 0) {
    throw TraceError("malformed trace: unknown preamble flags");
  }
  t.naive_stepping = (flags & kFlagNaive) != 0;
  t.hard_cap = rd.varint();
  t.robots.resize(num_slots);
  for (TraceRobot& r : t.robots) {
    r.id = rd.varint();
    if (r.id == 0) throw TraceError("malformed trace: robot id 0");
    r.start = read_node(rd, t.num_nodes, "start node");
    r.release = rd.varint();
    r.crash = rd.varint() - 1;  // 0 = never, wraps back to kNoRound
  }

  bool done = false;
  Round prev_round = 0;
  while (!done) {
    const std::uint8_t tag = rd.u8();
    switch (tag) {
      case kRound: {
        TraceRound rr;
        const std::uint64_t delta = rd.varint();
        if (t.rounds.empty()) {
          rr.round = delta;
        } else {
          if (delta == 0) {
            throw TraceError("malformed trace: rounds not strictly ascending");
          }
          rr.round = prev_round + delta;
          if (rr.round < prev_round) {
            throw TraceError("malformed trace: round counter overflow");
          }
        }
        prev_round = rr.round;
        rr.activations = read_slot_list(rd, num_slots, "activation");
        const std::uint64_t n_moves = rd.varint();
        if (n_moves > num_slots) {
          throw TraceError("malformed trace: move count exceeds robot count");
        }
        rr.moves.resize(n_moves);
        std::uint64_t prev_slot = 0;
        for (std::size_t i = 0; i < n_moves; ++i) {
          const std::uint64_t d = rd.varint();
          if (i > 0 && d == 0) {
            throw TraceError("malformed trace: move slots not ascending");
          }
          prev_slot = i == 0 ? d : prev_slot + d;
          if (prev_slot >= num_slots) {
            throw TraceError("malformed trace: move slot out of range");
          }
          rr.moves[i].slot = static_cast<std::uint32_t>(prev_slot);
          rr.moves[i].to = read_node(rd, t.num_nodes, "move target");
        }
        rr.terminations = read_slot_list(rd, num_slots, "termination");
        const std::uint64_t n_follows = rd.varint();
        if (n_follows > num_slots) {
          throw TraceError("malformed trace: follow count exceeds robot count");
        }
        rr.follows.resize(n_follows);
        prev_slot = 0;
        for (std::size_t i = 0; i < n_follows; ++i) {
          const std::uint64_t d = rd.varint();
          if (i > 0 && d == 0) {
            throw TraceError("malformed trace: follow slots not ascending");
          }
          prev_slot = i == 0 ? d : prev_slot + d;
          if (prev_slot >= num_slots) {
            throw TraceError("malformed trace: follow slot out of range");
          }
          rr.follows[i].slot = static_cast<std::uint32_t>(prev_slot);
          const std::uint64_t leader = rd.varint();
          if (leader >= num_slots) {
            throw TraceError("malformed trace: follow leader out of range");
          }
          rr.follows[i].leader = static_cast<std::uint32_t>(leader);
        }
        const std::uint64_t n_carried = rd.varint();
        if (n_carried > num_slots) {
          throw TraceError(
              "malformed trace: carried count exceeds robot count");
        }
        rr.carried.resize(n_carried);
        prev_slot = 0;
        for (std::size_t i = 0; i < n_carried; ++i) {
          const std::uint64_t d = rd.varint();
          if (i > 0 && d == 0) {
            throw TraceError("malformed trace: carried slots not ascending");
          }
          prev_slot = i == 0 ? d : prev_slot + d;
          if (prev_slot >= num_slots) {
            throw TraceError("malformed trace: carried slot out of range");
          }
          rr.carried[i].slot = static_cast<std::uint32_t>(prev_slot);
          rr.carried[i].to = read_node(rd, t.num_nodes, "carried target");
        }
        t.rounds.push_back(std::move(rr));
        break;
      }
      case kEnd: {
        const std::uint8_t end_flags = rd.u8();
        constexpr std::uint8_t known =
            kEndAllTerminated | kEndHitRoundCap | kEndGathered |
            kEndDetectionCorrect | kEndFalseAnnouncement;
        if ((end_flags & ~known) != 0) {
          throw TraceError("malformed trace: unknown trailer flags");
        }
        RunResult& res = t.recorded;
        res.all_terminated = (end_flags & kEndAllTerminated) != 0;
        res.hit_round_cap = (end_flags & kEndHitRoundCap) != 0;
        res.gathered_at_end = (end_flags & kEndGathered) != 0;
        res.detection_correct = (end_flags & kEndDetectionCorrect) != 0;
        res.false_announcement = (end_flags & kEndFalseAnnouncement) != 0;
        res.gather_node = read_node(rd, t.num_nodes, "gather node");
        RunMetrics& m = res.metrics;
        m.rounds = rd.varint();
        m.first_gathered = rd.varint() - 1;
        m.first_termination = rd.varint() - 1;
        m.last_termination = rd.varint() - 1;
        m.total_moves = rd.varint();
        m.total_message_bits = rd.varint();
        m.decision_calls = rd.varint();
        m.simulated_rounds = rd.varint();
        m.trace_hash = rd.u64le();
        t.final_positions.resize(num_slots);
        for (NodeId& p : t.final_positions) {
          p = read_node(rd, t.num_nodes, "final position");
        }
        m.moves_per_robot.resize(num_slots);
        for (std::uint64_t& c : m.moves_per_robot) c = rd.varint();
        done = true;
        break;
      }
      case kViolation: {
        t.violation = true;
        t.violation_round = rd.varint();
        const std::uint64_t len = rd.varint();
        if (len > bytes.size() - rd.pos) {
          throw TraceError("truncated trace: violation message overruns "
                           "buffer");
        }
        t.violation_message.assign(
            reinterpret_cast<const char*>(bytes.data() + rd.pos), len);
        rd.pos += len;
        done = true;
        break;
      }
      default:
        throw TraceError("malformed trace: unknown record tag " +
                         std::to_string(tag));
    }
  }

  const std::size_t body = rd.pos;
  const std::uint64_t stored = rd.u64le();
  if (fnv1a(bytes.data(), body) != stored) {
    throw TraceError("corrupt trace: checksum mismatch");
  }
  if (rd.pos != bytes.size()) {
    throw TraceError("malformed trace: trailing bytes after checksum");
  }
  return t;
}

// ---- replay ---------------------------------------------------------------

ReplayResult replay_trace(const Trace& t) {
  const std::size_t k = t.robots.size();
  GATHER_EXPECTS(k > 0);
  std::vector<NodeId> pos(k);
  for (std::size_t s = 0; s < k; ++s) pos[s] = t.robots[s].start;
  std::vector<std::uint8_t> terminated(k, 0);
  std::vector<std::uint64_t> move_count(k, 0);

  RunResult res;
  RunMetrics& m = res.metrics;

  const auto all_colocated = [&]() {
    const NodeId node = pos.front();
    return std::all_of(pos.begin(), pos.end(),
                       [node](NodeId p) { return p == node; });
  };
  const auto apply_move = [&](Round r, const TraceMove& mv, const char* kind) {
    if (terminated[mv.slot] != 0) {
      throw TraceError(std::string("inconsistent trace: ") + kind +
                       " by terminated robot at round " + std::to_string(r));
    }
    const NodeId from = pos[mv.slot];
    hash_word(m.trace_hash, r);
    hash_word(m.trace_hash, t.robots[mv.slot].id);
    hash_word(m.trace_hash, (static_cast<std::uint64_t>(from) << 32) | mv.to);
    pos[mv.slot] = mv.to;
    ++move_count[mv.slot];
  };

  for (const TraceRound& rr : t.rounds) {
    m.decision_calls += rr.activations.size();
    const bool terminated_this_round = !rr.terminations.empty();
    // The engine hashes moves and terminations interleaved in ascending
    // slot order over the active set; merge the two disjoint vectors to
    // reproduce that order, then append the carried moves.
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < rr.moves.size() || j < rr.terminations.size()) {
      const bool take_move =
          j >= rr.terminations.size() ||
          (i < rr.moves.size() && rr.moves[i].slot < rr.terminations[j]);
      if (take_move) {
        apply_move(rr.round, rr.moves[i], "move");
        ++i;
      } else {
        const std::uint32_t s = rr.terminations[j];
        if (i < rr.moves.size() && rr.moves[i].slot == s) {
          throw TraceError(
              "inconsistent trace: robot both moves and terminates at round " +
              std::to_string(rr.round));
        }
        if (terminated[s] != 0) {
          throw TraceError(
              "inconsistent trace: robot terminates twice at round " +
              std::to_string(rr.round));
        }
        hash_word(m.trace_hash, ~rr.round);
        hash_word(m.trace_hash, t.robots[s].id);
        terminated[s] = 1;
        if (m.first_termination == kNoRound) m.first_termination = rr.round;
        m.last_termination = rr.round;
        ++j;
      }
    }
    for (const TraceMove& mv : rr.carried) {
      apply_move(rr.round, mv, "carried move");
    }

    const std::size_t movers = rr.moves.size() + rr.carried.size();
    m.rounds = rr.round;
    ++m.simulated_rounds;
    if ((movers > 0 || m.simulated_rounds == 1) &&
        m.first_gathered == kNoRound && all_colocated()) {
      m.first_gathered = rr.round;
    }
    if (terminated_this_round && !all_colocated()) {
      res.false_announcement = true;
    }
  }

  res.all_terminated =
      std::all_of(terminated.begin(), terminated.end(),
                  [](std::uint8_t x) { return x != 0; });
  res.gathered_at_end = all_colocated();
  if (res.gathered_at_end) res.gather_node = pos.front();
  res.detection_correct = res.all_terminated &&
                          m.first_termination == m.last_termination &&
                          res.gathered_at_end;
  m.moves_per_robot = move_count;
  for (const std::uint64_t c : move_count) m.total_moves += c;

  ReplayResult out;
  if (t.violation) {
    out.violation = true;
    out.violation_round = t.violation_round;
    out.violation_message = t.violation_message;
  } else {
    // Cross-check every recomputed quantity against the trailer; carry
    // through the two that are not replayable from action vectors.
    const RunResult& rec = t.recorded;
    const auto expect = [](bool ok, const char* field) {
      if (!ok) {
        throw TraceError(
            std::string("inconsistent trace: replay disagrees with trailer "
                        "field ") +
            field);
      }
    };
    expect(m.trace_hash == rec.metrics.trace_hash, "trace_hash");
    expect(m.rounds == rec.metrics.rounds, "rounds");
    expect(m.simulated_rounds == rec.metrics.simulated_rounds,
           "simulated_rounds");
    expect(m.decision_calls == rec.metrics.decision_calls, "decision_calls");
    expect(m.total_moves == rec.metrics.total_moves, "total_moves");
    expect(m.first_gathered == rec.metrics.first_gathered, "first_gathered");
    expect(m.first_termination == rec.metrics.first_termination,
           "first_termination");
    expect(m.last_termination == rec.metrics.last_termination,
           "last_termination");
    expect(m.moves_per_robot == rec.metrics.moves_per_robot,
           "moves_per_robot");
    expect(res.all_terminated == rec.all_terminated, "all_terminated");
    expect(res.gathered_at_end == rec.gathered_at_end, "gathered_at_end");
    expect(res.detection_correct == rec.detection_correct,
           "detection_correct");
    expect(res.false_announcement == rec.false_announcement,
           "false_announcement");
    expect(res.gather_node == rec.gather_node, "gather_node");
    expect(pos == t.final_positions, "final_positions");
    res.hit_round_cap = rec.hit_round_cap;
    m.total_message_bits = rec.metrics.total_message_bits;
  }
  out.result = std::move(res);
  out.final_positions = std::move(pos);
  return out;
}

// ---- diff -----------------------------------------------------------------

namespace {

std::string node_str(NodeId n) { return std::to_string(n); }

/// Compare two ascending slot vectors; report the first slot present in
/// exactly one of them.
std::optional<TraceDivergence> diff_slot_sets(
    const Trace& t, Round round, const char* what,
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
      return TraceDivergence{round, t.robots[a[i]].id,
                             std::string(what) + " in A only"};
    }
    if (i >= a.size() || b[j] < a[i]) {
      return TraceDivergence{round, t.robots[b[j]].id,
                             std::string(what) + " in B only"};
    }
    ++i;
    ++j;
  }
  return std::nullopt;
}

std::optional<TraceDivergence> diff_move_lists(
    const Trace& t, Round round, const char* what,
    const std::vector<TraceMove>& a, const std::vector<TraceMove>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].slot < b[j].slot)) {
      return TraceDivergence{round, t.robots[a[i].slot].id,
                             std::string(what) + " to node " +
                                 node_str(a[i].to) + " in A only"};
    }
    if (i >= a.size() || b[j].slot < a[i].slot) {
      return TraceDivergence{round, t.robots[b[j].slot].id,
                             std::string(what) + " to node " +
                                 node_str(b[j].to) + " in B only"};
    }
    if (a[i].to != b[j].to) {
      return TraceDivergence{round, t.robots[a[i].slot].id,
                             std::string(what) + " target differs: node " +
                                 node_str(a[i].to) + " in A vs node " +
                                 node_str(b[j].to) + " in B"};
    }
    ++i;
    ++j;
  }
  return std::nullopt;
}

}  // namespace

std::optional<TraceDivergence> first_divergence(const Trace& a,
                                                const Trace& b) {
  if (a.num_nodes != b.num_nodes) {
    return TraceDivergence{0, 0,
                           "graph size differs: " + std::to_string(a.num_nodes) +
                               " vs " + std::to_string(b.num_nodes) + " nodes"};
  }
  if (a.robots.size() != b.robots.size()) {
    return TraceDivergence{
        0, 0,
        "robot count differs: " + std::to_string(a.robots.size()) + " vs " +
            std::to_string(b.robots.size())};
  }
  for (std::size_t s = 0; s < a.robots.size(); ++s) {
    const TraceRobot& ra = a.robots[s];
    const TraceRobot& rb = b.robots[s];
    if (ra.id != rb.id) {
      return TraceDivergence{0, ra.id,
                             "slot " + std::to_string(s) + " label differs: " +
                                 std::to_string(ra.id) + " vs " +
                                 std::to_string(rb.id)};
    }
    if (ra.start != rb.start) {
      return TraceDivergence{0, ra.id,
                             "start node differs: " + node_str(ra.start) +
                                 " vs " + node_str(rb.start)};
    }
    if (ra.release != rb.release) {
      return TraceDivergence{0, ra.id,
                             "release round differs: " +
                                 std::to_string(ra.release) + " vs " +
                                 std::to_string(rb.release)};
    }
    if (ra.crash != rb.crash) {
      return TraceDivergence{0, ra.id, "crash round differs"};
    }
  }

  const std::size_t rounds = std::min(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < rounds; ++i) {
    const TraceRound& ra = a.rounds[i];
    const TraceRound& rb = b.rounds[i];
    if (ra.round != rb.round) {
      return TraceDivergence{std::min(ra.round, rb.round), 0,
                             "simulated round #" + std::to_string(i) +
                                 " differs: round " + std::to_string(ra.round) +
                                 " in A vs round " + std::to_string(rb.round) +
                                 " in B"};
    }
    if (auto d = diff_slot_sets(a, ra.round, "activation", ra.activations,
                                rb.activations)) {
      return d;
    }
    if (auto d = diff_move_lists(a, ra.round, "move", ra.moves, rb.moves)) {
      return d;
    }
    if (auto d = diff_slot_sets(a, ra.round, "termination", ra.terminations,
                                rb.terminations)) {
      return d;
    }
    for (std::size_t f = 0; f < std::max(ra.follows.size(), rb.follows.size());
         ++f) {
      if (f >= ra.follows.size() || f >= rb.follows.size() ||
          ra.follows[f].slot != rb.follows[f].slot ||
          ra.follows[f].leader != rb.follows[f].leader) {
        const std::uint32_t slot = f < ra.follows.size() ? ra.follows[f].slot
                                                         : rb.follows[f].slot;
        return TraceDivergence{ra.round, a.robots[slot].id,
                               "follow decision differs"};
      }
    }
    if (auto d =
            diff_move_lists(a, ra.round, "carried move", ra.carried,
                            rb.carried)) {
      return d;
    }
  }
  if (a.rounds.size() != b.rounds.size()) {
    const Trace& longer = a.rounds.size() > b.rounds.size() ? a : b;
    return TraceDivergence{
        longer.rounds[rounds].round, 0,
        std::string("trace ") +
            (a.rounds.size() > b.rounds.size() ? "A" : "B") +
            " continues with simulated round " +
            std::to_string(longer.rounds[rounds].round) +
            " where the other ends"};
  }

  if (a.violation != b.violation) {
    return TraceDivergence{a.violation ? a.violation_round : b.violation_round,
                           0,
                           std::string("trace ") + (a.violation ? "A" : "B") +
                               " ends in a protocol violation, the other "
                               "completed"};
  }
  if (a.violation) {
    if (a.violation_message != b.violation_message) {
      return TraceDivergence{a.violation_round, 0,
                             "violation message differs: \"" +
                                 a.violation_message + "\" vs \"" +
                                 b.violation_message + "\""};
    }
    return std::nullopt;
  }
  if (a.recorded.metrics.trace_hash != b.recorded.metrics.trace_hash) {
    return TraceDivergence{a.recorded.metrics.rounds, 0,
                           "identical action vectors but trailer hash "
                           "differs (corrupt trailer)"};
  }
  if (a.recorded.metrics.total_message_bits !=
      b.recorded.metrics.total_message_bits) {
    return TraceDivergence{a.recorded.metrics.rounds, 0,
                           "message-bit counters differ: " +
                               std::to_string(
                                   a.recorded.metrics.total_message_bits) +
                               " vs " +
                               std::to_string(
                                   b.recorded.metrics.total_message_bits)};
  }
  return std::nullopt;
}

// ---- file IO --------------------------------------------------------------

void write_trace_file(const std::string& path,
                      std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceError("cannot open trace file for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw TraceError("failed writing trace file: " + path);
}

std::vector<std::uint8_t> read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw TraceError("cannot open trace file: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()), size);
  }
  if (!in) throw TraceError("failed reading trace file: " + path);
  return bytes;
}

}  // namespace gather::sim
