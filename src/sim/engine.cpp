#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <type_traits>

#include "sim/trace.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace gather::sim {

// 32-bit index audit (see also graph/graph.cpp): slots and nodes are
// uint32 with all-ones sentinels, and the trace hash packs a move's
// (from, to) pair into one 64-bit word as (from << 32) | to.
static_assert(sizeof(NodeId) == 4,
              "the move hash packs (from << 32) | to into a uint64");
static_assert(kNoRound == static_cast<Round>(-1),
              "wake arithmetic saturates against the all-ones Round sentinel");

namespace {

/// Accumulate a 64-bit word into the trace hash: xor-multiply-shift per
/// word (FNV-1a's prime with a murmur-style fold). One multiply per word
/// instead of FNV's eight byte steps — the hash runs three times per
/// move, so it is on the round loop's critical path. Only equality of
/// fingerprints matters (skip vs naive, rerun determinism); the exact
/// constant is not part of any contract.
void hash_word(std::uint64_t& h, std::uint64_t w) {
  h ^= w;
  h *= 1099511628211ULL;
  h ^= h >> 47;
}

/// Bits one co-located robot's broadcast costs its receivers: label,
/// group id, and the 3-bit role tag.
std::uint64_t message_bits(const RobotPublicState& s) {
  return support::bit_width_u64(s.id) + support::bit_width_u64(s.group_id) + 3;
}

}  // namespace

Engine::Engine(const graph::Topology& graph, EngineConfig config)
    : graph_(graph),
      csr_(graph.as_csr()),
      imp_(graph.as_implicit()),
      config_(std::move(config)) {
  GATHER_EXPECTS(config_.hard_cap > 0);
  // num_nodes() - 1 must be a representable NodeId distinct from the
  // kEmpty/kNoSlot sentinels — part of the 32-bit index audit.
  GATHER_EXPECTS(graph.num_nodes() <=
                 static_cast<std::size_t>(static_cast<NodeId>(-1)));
  nodes_.init(graph.num_nodes(), config_.dense_node_limit);
  sched_ = config_.scheduler.get();
  rec_ = config_.trace_recorder;
  prof_ = config_.profile;
  suppressing_ = sched_ != nullptr && sched_->fairness_bound() > 0;
  promises_ = !config_.naive_stepping && rec_ == nullptr;
  follow_sleeps_ = suppressing_ && promises_;
  replays_ = !suppressing_ && promises_;
}

void Engine::add_robot(std::unique_ptr<Robot> robot, NodeId start) {
  GATHER_EXPECTS(!ran_);
  GATHER_EXPECTS(robot != nullptr);
  GATHER_EXPECTS(start < graph_.num_nodes());
  GATHER_EXPECTS(robots_.size() < static_cast<std::size_t>(kNoSlot));
  const RobotId id = robot->id();
  GATHER_EXPECTS(id >= 1);

  const auto slot = static_cast<std::uint32_t>(robots_.size());
  const Round release = sched_ != nullptr ? sched_->release_round(slot, id) : 0;
  const Round crash = sched_ != nullptr ? sched_->crash_round(slot, id)
                                        : kNoRound;
  any_delay_ = any_delay_ || release > 0;
  any_crash_ = any_crash_ || crash != kNoRound;

  robots_.push_back(std::move(robot));
  ids_.push_back(id);
  pos_.push_back(start);
  entry_port_.push_back(kNoPort);
  wake_.push_back(0);
  pending_.push_back(kNoRound);
  active_stamp_.push_back(kNoRound);
  move_count_.push_back(0);
  terminated_.push_back(0);
  release_.push_back(release);
  crash_at_.push_back(crash);
  local_.push_back(0);
  sleep_target_.push_back(kNoRound);
  standing_follow_.push_back(0);
  occ_next_.push_back(kNoSlot);
  // The label index and the occupant lists are built once, in run().

  // A delayed robot's first wake deadline is its release round; until
  // then it is dormant (present, Init-tagged, never activated).
  heap_push(release, slot);
}

void Engine::index_robots() {
  // One sort by label gives the label index (duplicates end up adjacent)
  // and the label ranks; pushing the slots onto their start nodes' lists
  // in descending label order leaves every list sorted by label, so a
  // crowded start node costs O(k log k), not a list walk per robot.
  const auto num_slots = static_cast<std::uint32_t>(ids_.size());
  slots_by_id_.resize(num_slots);
  for (std::uint32_t s = 0; s < num_slots; ++s) slots_by_id_[s] = s;
  std::sort(slots_by_id_.begin(), slots_by_id_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return ids_[a] < ids_[b];
            });
  label_rank_.assign(num_slots, 0);
  for (std::uint32_t rank = num_slots; rank-- > 0;) {
    const std::uint32_t slot = slots_by_id_[rank];
    // Labels must be unique.
    GATHER_EXPECTS(rank + 1 == num_slots ||
                   ids_[slot] != ids_[slots_by_id_[rank + 1]]);
    label_rank_[slot] = rank;
    std::uint32_t& head = nodes_.ref(pos_[slot]).head;
    occ_next_[slot] = head;
    head = slot;
  }
}

NodeId Engine::position_of(RobotId id) const { return pos_[slot_of(id)]; }

std::uint32_t Engine::find_slot(RobotId id) const {
  const auto it = std::lower_bound(
      slots_by_id_.begin(), slots_by_id_.end(), id,
      [this](std::uint32_t s, RobotId target) { return ids_[s] < target; });
  if (it == slots_by_id_.end() || ids_[*it] != id) return kNoSlot;
  return *it;
}

std::uint32_t Engine::slot_of(RobotId id) const {
  const std::uint32_t slot = find_slot(id);
  GATHER_EXPECTS(slot != kNoSlot);
  return slot;
}

// The wake machinery and carry pass run inside every simulated round;
// gather_lint keeps them allocation-free (reserve-backed emplace on the
// pre-sized members is the one sanctioned growth path).
// gather-lint: hot-path-begin(wake-machinery)
void Engine::heap_push(Round round, std::uint32_t slot) {
  wake_[slot] = round;
  // Most wakes are for the next round: a vector push, no heap sift.
  if (round == soon_round_) {
    soon_.push_back(slot);
    if (prof_ != nullptr) ++prof_->bucket_pushes;
    return;
  }
  // A sleeper woken early that goes back to sleep until the same
  // deadline finds its entry still queued: wake_ names the deadline
  // again, so that entry is live once more and no second one is needed.
  if (pending_[slot] == round) return;
  pending_[slot] = round;
  heap_.emplace_back(round, slot);
  std::push_heap(heap_.begin(), heap_.end(),
                 std::greater<std::pair<Round, std::uint32_t>>{});
  if (prof_ != nullptr) {
    ++prof_->heap_pushes;
    prof_->heap_peak = std::max<std::uint64_t>(prof_->heap_peak, heap_.size());
  }
}

void Engine::heap_pop() {
  const auto [round, slot] = heap_.front();
  if (pending_[slot] == round) pending_[slot] = kNoRound;
  std::pop_heap(heap_.begin(), heap_.end(),
                std::greater<std::pair<Round, std::uint32_t>>{});
  heap_.pop_back();
  if (prof_ != nullptr) ++prof_->heap_pops;
}

bool Engine::heap_pop_next(Round& round) {
  // Pop stale entries (slot terminated, or wake was moved earlier/later).
  while (!heap_.empty()) {
    const auto [r, slot] = heap_.front();
    if (terminated_[slot] != 0 || wake_[slot] != r) {
      heap_pop();
      continue;
    }
    round = r;
    return true;
  }
  return false;
}

void Engine::advance_ledger(Round r) {
  constexpr Round kWordRounds = Scheduler::kWordRounds;
  const Round target = r / kWordRounds;
  if (ledger_block_ == target) return;
  // A fresh ledger starts at the first collected round's block: every
  // release is at or after that round, so no earlier block holds an
  // activation of any slot.
  const Round from = ledger_block_ == kNoRound ? target : ledger_block_ + 1;
  const auto num_slots = static_cast<std::uint32_t>(ids_.size());
  for (Round block = from; block <= target; ++block) {
    // Live slots: not terminated, not crashed by the block's first round
    // (never admitted again), released by its last. Liveness only ever
    // ends, so a live slot's blocks are consecutive and folding the
    // previous word into clock_base_ below misses none.
    const Round start = block * kWordRounds;
    ledger_slots_.clear();
    ledger_ids_.clear();
    for (std::uint32_t s = 0; s < num_slots; ++s) {
      if (terminated_[s] != 0 || crash_at_[s] <= start ||
          release_[s] > start + (kWordRounds - 1)) {
        continue;
      }
      ledger_slots_.push_back(s);
      ledger_ids_.push_back(ids_[s]);
    }
    const std::size_t count = ledger_slots_.size();
    if (count == 0) continue;
    const std::span<std::uint64_t> words(ledger_words_.data(), count);
    sched_->activation_words(block, ledger_slots_, ledger_ids_, words);
    if (prof_ != nullptr) {
      prof_->activation_words += count;
      ++prof_->ledger_blocks;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t s = ledger_slots_[i];
      std::uint64_t word = words[i];
      if (release_[s] > start) {
        word &= ~std::uint64_t{0} << (release_[s] - start);
      }
      clock_base_[s] += static_cast<Round>(std::popcount(clock_word_[s]));
      clock_word_[s] = word;
    }
  }
  ledger_block_ = target;
}

bool Engine::resolve_carry(std::uint32_t s, Round r) {
  // The memo stamp doubles as the in-progress mark: a standing-follow
  // cycle re-enters a stamped slot whose carry_has_ is still 0 and
  // resolves to "not carried" for the whole cycle.
  if (carry_stamp_[s] == r) return carry_has_[s] != 0;
  carry_stamp_[s] = r;
  carry_has_[s] = 0;
  const RobotId leader_id = standing_follow_[s];
  if (leader_id == 0) return false;
  const std::uint32_t leader = leader_slot(s, leader_id);
  if (leader == kNoSlot) return false;
  if (pos_[leader] != pos_[s]) return false;  // leader already departed
  if (terminated_[leader] != 0) return false;
  if (any_crash_ && r >= crash_at_[leader]) return false;
  graph::HalfEdge edge{};
  if (decision_stamp_[leader] == r) {
    // Active leader: the follower mirrors its resolved concrete action.
    const Action& act = resolved_[leader];
    if (act.kind != ActionKind::Move || !act.take_followers) return false;
    edge = traverse_at(pos_[leader], act.port);
  } else {
    // Suppressed leader: carried iff it is itself carried.
    if (!resolve_carry(leader, r)) return false;
    edge = carry_edge_[leader];
  }
  carry_edge_[s] = edge;
  carry_has_[s] = 1;
  return true;
}

void Engine::collect_carried(Round r) {
  // Slot order — deterministic across skip and naive stepping.
  carried_.clear();
  const std::size_t num_slots = decisions_.size();
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    if (decision_stamp_[s] == r || terminated_[s] != 0) continue;
    if (any_crash_ && r >= crash_at_[s]) continue;
    if (standing_follow_[s] == 0) continue;
    if (resolve_carry(s, r)) carried_.push_back(s);
  }
}

std::size_t Engine::apply_carried(Round r, RunResult& result) {
  // Same bookkeeping as an active move; hashed after the active set, in
  // slot order, so skip and naive stepping fingerprint identically. The
  // forced move voids any sleep promise — the robot re-decides next round.
  auto& m = result.metrics;
  for (const std::uint32_t s : carried_) {
    const NodeId from = pos_[s];
    const graph::HalfEdge h = carry_edge_[s];
    queue_arrival(s, from, h.to, r);
    pos_[s] = h.to;
    entry_port_[s] = h.to_port;
    ++move_count_[s];
    hash_word(m.trace_hash, r);
    hash_word(m.trace_hash, ids_[s]);
    hash_word(m.trace_hash, (static_cast<std::uint64_t>(from) << 32) | h.to);
    if (rec_ != nullptr) rec_->record_carried(s, h.to);
    sleep_target_[s] = kNoRound;
    if (!config_.naive_stepping) {
      heap_push(r + 1, s);
    } else {
      wake_[s] = r + 1;
    }
  }
  return carried_.size();
}

void Engine::settle_follow_sleeps(Round end, RunMetrics& m) {
  constexpr Round kWordRounds = Scheduler::kWordRounds;
  const auto num_slots = static_cast<std::uint32_t>(ids_.size());
  bool ledger_at_end = end == kNoRound;
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    if (terminated_[s] != 0 || credit_bits_[s] == 0) continue;
    // The ledger must hold the block of the last round the run reached.
    // A slot that crashed earlier kept the word of its last live block.
    if (!ledger_at_end) {
      advance_ledger(end - 1);
      ledger_at_end = true;
    }
    // Only a crash ends a sleep when the run ran out of live robots.
    const Round stop = std::min(end, crash_at_[s]);
    GATHER_INVARIANT(stop != kNoRound);
    const Round block_start = (stop - 1) / kWordRounds * kWordRounds;
    const Round width = stop - block_start;  // in [1, 64]
    const std::uint64_t mask = width == kWordRounds
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << width) - 1;
    const Round local =
        clock_base_[s] +
        static_cast<Round>(std::popcount(clock_word_[s] & mask));
    const Round skipped = local - credit_base_[s];
    if (skipped == 0) continue;
    m.total_message_bits += skipped * credit_bits_[s];
    if (prof_ != nullptr) prof_->skipped_polls += skipped;
    // Each skipped poll was a simulated round; the fairness bound keeps
    // this walk back to the last one short.
    Round last = stop - 1;
    while (!sched_->activates(last, s, ids_[s])) --last;
    m.rounds = std::max(m.rounds, last);
  }
}

void Engine::queue_arrival(std::uint32_t slot, NodeId from, NodeId to,
                           Round r) {
  // The source holds the mover, so it has a record even in sparse mode;
  // its stamp lists it once however many robots leave it. A self-loop
  // still touches (and so wakes) its node.
  NodeRec* src = nodes_.find(from);
  if (src->touch_stamp != r) {
    src->touch_stamp = r;
    touched_nodes_.push_back(from);
  }
  // A move along a self-loop leaves the robot where its list puts it.
  if (to != from) {
    arrivals_.push_back((static_cast<std::uint64_t>(to) << 32) |
                        label_rank_[slot]);
  }
}

void Engine::splice_arrivals(Round r) {
  // Every mover's pos_ already names its destination, so one pass over
  // each source's list unlinks exactly its departed occupants —
  // O(occupancy) per node, whatever order the movers left in.
  // touched_nodes_ holds just the sources here, and a source holds its
  // movers, so find() cannot miss. Unlinking never rewrites a departed
  // robot's own link, so when every occupant of the one source leaves,
  // its old head still starts the movers' chain in label order.
  const bool one_source = touched_nodes_.size() == 1;
  std::uint32_t group = kNoSlot;  // the emptied single source's old head
  std::size_t departed = 0;
  for (const NodeId node : touched_nodes_) {
    NodeRec* rec = nodes_.find(node);
    // Clear the mark so the destination pass below can list the node
    // again; a node both left and entered then appears twice, which
    // only repeats its idempotent occupancy wakeup.
    rec->touch_stamp = kNoRound;
    const std::uint32_t head = rec->head;
    for (std::uint32_t* link = &rec->head; *link != kNoSlot;) {
      const std::uint32_t occ = *link;
      if (pos_[occ] == node) {
        link = &occ_next_[occ];
      } else {
        *link = occ_next_[occ];
        ++departed;
      }
    }
    if (one_source && rec->head == kNoSlot) group = head;
    // Sparse mode: hand an emptied record back so resident memory stays
    // O(robots). Safe even though it voids the node's view memo — views
    // of round r are fully consumed before any round-r move.
    nodes_.release_if_empty(node);
  }
  GATHER_INVARIANT(departed == arrivals_.size());

  // Intact group move: the emptied source's movers all land on one node
  // that held no robot (terminated, dormant and crashed ones included),
  // so that node's list is the movers' chain, handed over without a sort
  // or a merge. The node is not listed: every occupant moved, so each is
  // already woken, and their Follow promises stand — they see the same
  // entries there; only degree and entry port changed.
  if (group != kNoSlot) {
    const std::uint64_t dest = arrivals_.front() >> 32;
    const bool one_dest =
        std::all_of(arrivals_.begin(), arrivals_.end(),
                    [dest](std::uint64_t key) { return key >> 32 == dest; });
    if (one_dest) {
      NodeRec& rec = nodes_.ref(static_cast<NodeId>(dest));
      if (rec.head == kNoSlot) {
        rec.head = group;
        arrivals_.clear();
        if (prof_ != nullptr) ++prof_->group_handoffs;
        return;
      }
    }
  }

  // List each destination once. Records are created only now, after
  // every emptied source was released, so the table never holds more
  // records than there are robots. The stamp also tells whether some
  // destination receives a group.
  bool grouped = false;
  for (const std::uint64_t key : arrivals_) {
    const auto node = static_cast<NodeId>(key >> 32);
    NodeRec& rec = nodes_.ref(node);
    if (rec.touch_stamp == r) {
      grouped = true;
    } else {
      rec.touch_stamp = r;
      touched_nodes_.push_back(node);
    }
  }
  // Merge each destination's arrivals, sorted by label, into its list in
  // one walk: a group arriving together costs O(occupancy + group). With
  // one arrival per destination (the dispersed regime) every run has
  // length one, so the order does not matter and nothing is sorted.
  if (grouped) std::sort(arrivals_.begin(), arrivals_.end());
  for (std::size_t i = 0; i < arrivals_.size();) {
    const auto node = static_cast<NodeId>(arrivals_[i] >> 32);
    std::uint32_t* link = &nodes_.ref(node).head;
    for (; i < arrivals_.size() && (arrivals_[i] >> 32) == node; ++i) {
      const auto rank = static_cast<std::uint32_t>(arrivals_[i]);
      const std::uint32_t slot = slots_by_id_[rank];
      while (*link != kNoSlot && label_rank_[*link] < rank) {
        link = &occ_next_[*link];
      }
      occ_next_[slot] = *link;
      *link = slot;
      link = &occ_next_[slot];
    }
  }
  arrivals_.clear();
}
// gather-lint: hot-path-end(wake-machinery)

bool Engine::all_colocated() const {
  if (pos_.empty()) return true;
  const NodeId node = pos_.front();
  return std::all_of(pos_.begin(), pos_.end(),
                     [node](NodeId p) { return p == node; });
}

RunResult Engine::run() {
  GATHER_EXPECTS(!ran_);
  GATHER_EXPECTS(!robots_.empty());
  ran_ = true;
  index_robots();

  RunResult result;
  auto& m = result.metrics;
  const std::size_t num_slots = robots_.size();
  m.moves_per_robot.assign(num_slots, 0);

  // Size the reusable per-round scratch buffers — the last allocations
  // before the round loop.
  decisions_.assign(num_slots, Action{});
  decision_stamp_.assign(num_slots, kNoRound);
  resolved_.assign(num_slots, Action{});
  resolved_stamp_.assign(num_slots, kNoRound);
  resolve_mark_.assign(num_slots, 0);
  leader_slot_.assign(num_slots, kNoSlot);
  if (replays_) promise_until_.assign(num_slots, 0);
  // A slot is listed at most twice a round: its consult changed its
  // state, and it terminated.
  if (promises_) changed_slots_.reserve(2 * num_slots);
  if (suppressing_) {
    if (!config_.naive_stepping) {
      clock_base_.assign(num_slots, 0);
      clock_word_.assign(num_slots, 0);
      ledger_slots_.reserve(num_slots);
      ledger_ids_.reserve(num_slots);
      ledger_words_.assign(num_slots, 0);
    }
    decided_stay_local_.assign(num_slots, 0);
    follow_wake_.assign(num_slots, kNoRound);
    if (follow_sleeps_) {
      credit_base_.assign(num_slots, 0);
      credit_bits_.assign(num_slots, 0);
    }
    carry_stamp_.assign(num_slots, kNoRound);
    carry_has_.assign(num_slots, 0);
    carry_edge_.assign(num_slots, graph::HalfEdge{});
    carried_.reserve(num_slots);
  }
  view_arena_.resize(num_slots);
  views_.resize(num_slots);
  active_.reserve(num_slots);
  touched_nodes_.reserve(2 * num_slots);
  arrivals_.reserve(num_slots);  // each robot moves at most once per round
  nodes_.reserve(num_slots);
  heap_.reserve(4 * num_slots);
  // A slot enters the next-round bucket at most twice per round (a
  // suppressed pop, then a carry); add_robot filled it for round 0.
  soon_.reserve(2 * num_slots);
  due_.reserve(2 * num_slots);

  // Trace preamble: pos_ still holds the start nodes here (no round has
  // run), and the per-slot schedule was sampled in add_robot.
  if (rec_ != nullptr) {
    rec_->begin_run(graph_.num_nodes(), config_.naive_stepping,
                    config_.hard_cap, ids_, pos_, release_, crash_at_);
  }

  std::size_t alive = num_slots;
  Round r = 0;
  bool first_round = true;
  Round stopped_at = kNoRound;  ///< the round stop_when_gathered ended at

  // Hoisted scheduler gates: locals stay in registers across the round
  // loop (the members would be reloaded after every opaque robot call),
  // so the synchronous path pays one predicted branch per activation.
  const bool any_delay = any_delay_;
  const bool any_crash = any_crash_;
  const bool suppressing = suppressing_;
  const bool filtered = any_delay || any_crash || suppressing;

  // gather-lint: hot-path-begin(round-loop)
  // A robot counts as alive while it can still act in some future round,
  // i.e. it neither terminated nor crashes by round r+1. Without a crash
  // adversary that is every slot not yet terminated: a counter, no scan.
  const auto count_alive = [&](Round now) {
    if (!any_crash) return num_slots - terminated_count_;
    if (prof_ != nullptr) prof_->wake_slot_visits += num_slots;
    std::size_t count = 0;
    for (std::uint32_t s = 0; s < num_slots; ++s) {
      if (terminated_[s] == 0 && crash_at_[s] > now + 1) ++count;
    }
    return count;
  };

  // Admit a slot whose wake is due at round r. The scheduler filters the
  // candidates: crashed slots are dropped for good, dormant slots defer
  // to their release round, suppressed slots defer one round (pure
  // predicates — see sim/scheduler.hpp — so skip and naive stepping
  // agree). All three gates are off (false) for the synchronous model
  // and cost nothing. A slot due twice is admitted once (active_stamp_).
  const auto admit = [&](std::uint32_t slot) {
    if (filtered) {
      if (any_crash && r >= crash_at_[slot]) return;  // crashed for good
      if (any_delay && r < release_[slot]) {
        heap_push(release_[slot], slot);  // dormant: woken by arrivals
        return;
      }
      if (suppressing) {
        // Conservative wake, re-check on activation: read the local clock
        // off the ledger; if a sleep deadline is pending and local time
        // still lags it (suppressed rounds did not tick), push the wake
        // out by the remaining deficit. A follow sleep also ends at its
        // leader's wake: the leader may move then, and the follower must
        // be consulted if activated, as it is in every activated round
        // while it polls.
        const Round bit = r % Scheduler::kWordRounds;
        const std::uint64_t word = clock_word_[slot];
        local_[slot] = clock_base_[slot] +
                       static_cast<Round>(std::popcount(
                           word & ((std::uint64_t{1} << bit) - 1)));
        const Round target = sleep_target_[slot];
        if (target != kNoRound && local_[slot] < target &&
            r < follow_wake_[slot]) {
          heap_push(std::min(follow_wake_[slot],
                             support::sat_add(r, target - local_[slot])),
                    slot);
          return;
        }
        if (((word >> bit) & 1) == 0) {
          heap_push(r + 1, slot);  // suppressed: deferred one round
          return;
        }
        sleep_target_[slot] = kNoRound;  // promise consumed; re-deciding
      }
    }
    if (active_stamp_[slot] != r) {
      active_stamp_[slot] = r;
      active_.push_back(slot);
    }
  };

  while (alive > 0) {
    if (config_.naive_stepping) {
      r = first_round ? 0 : r + 1;
    } else {
      // The next round is the bucket's if it holds anyone (every heap
      // deadline is at or past it), else the heap's earliest.
      Round next = soon_round_;
      if (soon_.empty() && !heap_pop_next(next)) {
        // With a crash adversary the wakes can legitimately run dry: the
        // remaining un-terminated robots all crashed (their entries were
        // dropped below), so nobody will ever act again.
        if (any_crash) break;
        throw SimError("engine deadlock: live robots but no wake deadline");
      }
      GATHER_INVARIANT(first_round || next > r);
      r = next;
    }
    first_round = false;
    if (r > config_.hard_cap) {
      result.hit_round_cap = true;
      break;
    }

    // ---- collect this round's active robots -----------------------------
    active_.clear();
    if (config_.naive_stepping) {
      if (prof_ != nullptr) prof_->wake_slot_visits += num_slots;
      for (std::uint32_t s = 0; s < num_slots; ++s) {
        if (terminated_[s] != 0) continue;
        if (filtered) {
          if (any_crash && r >= crash_at_[s]) continue;
          if (any_delay && r < release_[s]) continue;
          if (suppressing && !sched_->activates(r, s, ids_[s])) continue;
        }
        active_.push_back(s);
      }
    } else {
      // Take the bucket (due now unless emptied) and every live heap
      // entry due at r, then sort the small admitted set into slot
      // order — the order naive stepping's scan produces. Wakes pushed
      // from here on are for r+1 or later, so the new bucket is r+1's.
      if (suppressing) advance_ledger(r);
      due_.swap(soon_);
      soon_round_ = r + 1;
      std::size_t visited = due_.size();
      for (const std::uint32_t slot : due_) {
        // Stale when a duplicate was already deferred this round.
        if (terminated_[slot] == 0 && wake_[slot] == r) admit(slot);
      }
      due_.clear();
      for (Round next = 0; heap_pop_next(next) && next == r; ++visited) {
        const std::uint32_t slot = heap_.front().second;
        heap_pop();
        admit(slot);
      }
      if (prof_ != nullptr) {
        prof_->wake_slot_visits += visited;
        if (!active_.empty() &&
            std::is_sorted(active_.begin(), active_.end())) {
          ++prof_->presorted_rounds;
        }
      }
      std::sort(active_.begin(), active_.end());
    }
    if (active_.empty()) {
      // Only an adversary can empty a round (everyone dormant, suppressed,
      // or crashed); the round is not simulated, but robots that can still
      // act later keep the run alive.
      GATHER_INVARIANT(filtered);
      alive = count_alive(r);
      continue;
    }

    if (rec_ != nullptr) rec_->begin_round(r, active_);
    const std::size_t movers = simulate_round(r, result);

    // ---- post-round bookkeeping -----------------------------------------
    if (suppressing && config_.naive_stepping) {
      // In naive mode active_ is exactly the adversary-activated set, so
      // ticking it keeps every clock exact; skip mode reads the ledger.
      for (const std::uint32_t s : active_) local_[s] += 1;
    }
    m.rounds = r;
    ++m.simulated_rounds;
    alive = count_alive(r);
    if (prof_ != nullptr) ++prof_->simulated_rounds;
    if ((movers > 0 || m.simulated_rounds == 1) &&
        m.first_gathered == kNoRound && all_colocated()) {
      m.first_gathered = r;
    }
    if (config_.stop_when_gathered && m.first_gathered != kNoRound) {
      stopped_at = r;
      break;
    }
  }
  // gather-lint: hot-path-end(round-loop)

  if (follow_sleeps_) {
    Round end = kNoRound;
    if (result.hit_round_cap) end = support::sat_add(config_.hard_cap, 1);
    if (stopped_at != kNoRound) end = stopped_at + 1;
    settle_follow_sleeps(end, m);
  }

  result.all_terminated = true;
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    if (terminated_[s] == 0) result.all_terminated = false;
  }
  result.gathered_at_end = all_colocated();
  if (result.gathered_at_end) result.gather_node = pos_.front();
  result.detection_correct =
      result.all_terminated &&
      m.first_termination == m.last_termination &&
      result.gathered_at_end;
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    m.total_moves += move_count_[s];
    m.moves_per_robot[s] = move_count_[s];
  }
  if (rec_ != nullptr) rec_->finish(result, pos_);
  return result;
}

// View materialization, follow-chain resolution, the decision loops, and
// the move/termination application are the per-round critical path.
// gather-lint: hot-path-begin(round-simulation)
void Engine::build_view(NodeId node, Round r) {
  NodeRec* rec = nodes_.find(node);
  GATHER_INVARIANT(rec != nullptr);  // only nodes hosting robots are viewed
  if (rec->view_stamp == r) return;
  // Materialize the node's snapshot at the arena's write head. Capacity
  // is exact (each robot sits at one node), so no reallocation — spans
  // handed to robots stay valid for the whole round. The view's message
  // bits are summed here, once per node, not once per receiving robot.
  ViewRef ref{static_cast<std::uint32_t>(arena_used_), 0, 0};
  for (std::uint32_t occ = rec->head; occ != kNoSlot; occ = occ_next_[occ]) {
    GATHER_INVARIANT(arena_used_ < view_arena_.size());
    const RobotPublicState& state = robots_[occ]->public_state();
    view_arena_[arena_used_++] = state;
    ref.bits += message_bits(state);
  }
  ref.size = static_cast<std::uint32_t>(arena_used_) - ref.begin;
  views_[views_used_] = ref;
  rec->view = static_cast<std::uint32_t>(views_used_++);
  rec->view_stamp = r;
}

Engine::ViewRef Engine::view_cached(NodeId node, Round r) const {
  const NodeRec* rec = nodes_.find(node);
  GATHER_INVARIANT(rec != nullptr && rec->view_stamp == r);
  return views_[rec->view];
}

std::uint32_t Engine::leader_slot(std::uint32_t s, RobotId leader) {
  // A follower names the same leader round after round, so the memo
  // spares the binary search nearly always.
  std::uint32_t& memo = leader_slot_[s];
  if (memo == kNoSlot || ids_[memo] != leader) memo = find_slot(leader);
  return memo;
}

Action Engine::resolve_action(std::uint32_t s, Round r) {
  // Concrete (non-Follow) action for slot s this round; sleeping robots
  // implicitly Stay until their wake deadline. Iterative chain walk with
  // cycle detection via resolve_mark_.
  if (resolved_stamp_[s] == r) return resolved_[s];
  if (resolve_mark_[s] != 0)
    throw EngineInvariantError("follow cycle detected at round " +
                               std::to_string(r));
  resolve_mark_[s] = 1;
  Action out;
  if (decision_stamp_[s] != r) {
    // Sleeping robot: implied promise is Stay until its wake deadline
    // (already a global round — translated when it was decided).
    out = Action::stay_until_round(wake_[s]);
  } else if (decisions_[s].kind != ActionKind::Follow) {
    out = decisions_[s];
  } else {
    // The engine builds the views robots pick leaders from, so a Follow
    // naming an absent, non-co-located, or terminated robot means engine
    // state is inconsistent (or the robot invented a label): an
    // EngineInvariantError, never a recordable protocol outcome.
    const std::uint32_t leader = leader_slot(s, decisions_[s].leader);
    if (leader == kNoSlot)
      throw EngineInvariantError("robot follows unknown label");
    if (pos_[leader] != pos_[s])
      throw EngineInvariantError("robot follows non-co-located leader");
    if (terminated_[leader] != 0)
      throw EngineInvariantError("robot follows terminated leader");
    const Action leader_action =
        any_crash_ && r >= crash_at_[leader]
            // A crashed leader does nothing; the follower stays put and
            // re-decides next round. (Resolved here rather than through
            // the implicit-stay branch because a crashed slot's wake
            // deadline is meaningless and differs between stepping modes.)
            ? Action::stay_one(r)
            : resolve_action(leader, r);
    switch (leader_action.kind) {
      case ActionKind::Move:
        out = leader_action.take_followers
                  ? Action::move(leader_action.port, true)
                  : Action::stay_one(r);
        break;
      case ActionKind::Stay:
        out = leader_action;
        break;
      case ActionKind::Terminate:
        out = Action::terminate();
        break;
      case ActionKind::Follow:
        GATHER_INVARIANT(!"unreachable: resolve returns concrete actions");
        break;
    }
    if (suppressing_ && out.kind == ActionKind::Stay) {
      // Under suppression the follower sleeps until its leader's wake or
      // its own translated promise deadline (decide_all), whichever is
      // first; a follower of this one inherits that earlier wake.
      follow_wake_[s] = out.stay_until;
      out.stay_until = std::min(out.stay_until, decisions_[s].stay_until);
    }
  }
  resolve_mark_[s] = 0;
  resolved_[s] = out;
  resolved_stamp_[s] = r;
  return out;
}

// One decision loop per robot-clock kind. Global clock (no suppressing
// scheduler): local = r − τ, with τ the slot's release round — 0 for
// every slot in the paper's synchronous model — a bijection, so Stay
// deadlines translate back exactly. Ledger clock (any suppressing
// scheduler, delays included): local is the maintained activation-count
// clock, Stay deadlines translate to *conservative* global wakes (local
// advances at most one per round) that the collection loop re-checks,
// and the decision is recorded as the slot's standing order for the
// carry pass.
template <bool LedgerClock>
void Engine::decide_all(Round r, RunMetrics& m) {
  for (const std::uint32_t s : active_) {
    const Round local = LedgerClock ? local_[s] : r - release_[s];
    // Read-only lookup: the simulate_round pre-pass materialized every
    // active node's view.
    const ViewRef ref = view_cached(pos_[s], r);
    // The robot receives every entry but its own. Its public state still
    // equals its snapshot entry: only its own on_round (next) writes it.
    const RobotPublicState before = robots_[s]->public_state();
    const std::uint64_t bits = ref.bits - message_bits(before);
    m.total_message_bits += bits;
    ++m.decision_calls;
    decision_stamp_[s] = r;
    if constexpr (!LedgerClock) {
      // A standing promise answers the consult: while its view entries
      // are unchanged (void_changed_views clears the promise otherwise),
      // the robot would repeat this Follow and change no state.
      if (replays_ && promise_until_[s] > local) {
        if (prof_ != nullptr) ++prof_->replayed_follows;
        continue;
      }
    }
    RoundView view;
    view.round = local;
    view.degree = degree_at(pos_[s]);
    view.entry_port = entry_port_[s];
    view.colocated = {view_arena_.data() + ref.begin, ref.size};
    decisions_[s] = robots_[s]->on_round(view);
    Action& d = decisions_[s];
    const bool follow = d.kind == ActionKind::Follow;
    if constexpr (!LedgerClock) {
      if (d.kind == ActionKind::Stay) {
        d.stay_until = support::sat_add(d.stay_until, release_[s]);
      }
      if (replays_) {
        promise_until_[s] = follow && d.stay_until > local ? d.stay_until : 0;
      }
    } else {
      standing_follow_[s] = follow ? d.leader : 0;
      if (follow_sleeps_) {
        // Settle the polls skipped since the last Follow (each activation
        // in between would have been a consult with these same bits),
        // then open this decision's credit.
        if (credit_bits_[s] != 0) {
          const Round skipped = local - credit_base_[s];
          m.total_message_bits += skipped * credit_bits_[s];
          if (prof_ != nullptr) prof_->skipped_polls += skipped;
        }
        credit_base_[s] = local + 1;
        credit_bits_[s] = follow ? bits : 0;
      }
      if (d.kind == ActionKind::Stay || follow) {
        // Translate the local deadline to a conservative global wake. A
        // Follow's promise counts only where follows may sleep; without
        // one it wakes the follower for the next round.
        const Round until = follow && !follow_sleeps_ ? 0 : d.stay_until;
        decided_stay_local_[s] = until;
        d.stay_until =
            until > local ? support::sat_add(r, until - local) : r + 1;
      }
    }
    if (promises_) {
      // A changed tag or group id voids the promises at the robot's node
      // once the round's moves are done (void_changed_views).
      const RobotPublicState& after = robots_[s]->public_state();
      if (after.tag != before.tag || after.group_id != before.group_id) {
        changed_slots_.push_back(s);
      }
    }
  }
}

std::size_t Engine::simulate_round(Round r, RunResult& result) {
  auto& m = result.metrics;
  const bool suppressing = suppressing_;

  // ---- build communication views (per node hosting an active robot) ----
  // Views snapshot the public states as of the END of the previous round;
  // they are materialized before any on_round call so that decisions are
  // simultaneous. One arena pass; views_used_/arena_used_ reset here.
  views_used_ = 0;
  arena_used_ = 0;
  for (const std::uint32_t s : active_) build_view(pos_[s], r);

  // ---- decisions --------------------------------------------------------
  // Stamped out twice (one out-of-line instantiation per clock kind) so
  // the ledger clock's bookkeeping stays out of the global-clock loop.
  if (suppressing) {
    decide_all<true>(r, m);
  } else {
    decide_all<false>(r, m);
  }

  // ---- resolve follow chains ---------------------------------------------
  for (const std::uint32_t s : active_) (void)resolve_action(s, r);

  // Trace the round's Follow decisions (resolution above has already
  // validated every named leader and memoized its slot).
  if (rec_ != nullptr) {
    for (const std::uint32_t s : active_) {
      if (decisions_[s].kind == ActionKind::Follow) {
        rec_->record_follow(s, leader_slot(s, decisions_[s].leader));
      }
    }
  }

  // Standing-follow carry scan (suppression only): a suppressed follower
  // cannot re-issue Follow in the round its leader moves; its most
  // recent decision is a standing order that the leader's take-followers
  // move executes. Scanned against pre-move positions — identical in
  // skip and naive stepping. Under every non-suppressing scheduler an
  // un-terminated follower is re-activated each round and handled by
  // normal resolution, so this pass is unreachable there.
  if (suppressing) collect_carried(r);

  // ---- apply moves and terminations simultaneously ----------------------
  std::size_t movers = 0;
  bool terminated_this_round = false;
  touched_nodes_.clear();
  for (const std::uint32_t s : active_) {
    const Action action = resolved_[s];
    switch (action.kind) {
      case ActionKind::Move: {
        // A robot handing back an out-of-range port broke its own
        // contract — robot-side, so protocol-class (recordable).
        GATHER_PROTOCOL(action.port < degree_at(pos_[s]));
        const NodeId from = pos_[s];
        const graph::HalfEdge h = traverse_at(from, action.port);
        queue_arrival(s, from, h.to, r);
        pos_[s] = h.to;
        entry_port_[s] = h.to_port;
        ++move_count_[s];
        ++movers;
        hash_word(m.trace_hash, r);
        hash_word(m.trace_hash, ids_[s]);
        hash_word(m.trace_hash, (static_cast<std::uint64_t>(from) << 32) | h.to);
        if (rec_ != nullptr) rec_->record_move(s, h.to);
        if (!config_.naive_stepping) {
          heap_push(r + 1, s);
        } else if (suppressing) {
          // Suppression makes the implicit-stay resolution path reachable
          // in naive mode too (a follower may name a suppressed leader),
          // so the wake deadline must stay maintained without the heap.
          wake_[s] = r + 1;
        }
        break;
      }
      case ActionKind::Stay: {
        if (suppressing) {
          // The local deadline the wake machinery re-checks on admission
          // (conservative wake): the robot's own Stay{until}, or the
          // promise of a Follow that resolved to a stay, whose sleep also
          // ends at the leader's wake (follow_wake_, set by
          // resolve_action). A follower without a promise sleeps until
          // the next round and is consulted at every activated round.
          sleep_target_[s] = decided_stay_local_[s];
          if (decisions_[s].kind == ActionKind::Stay) {
            follow_wake_[s] = kNoRound;
          }
        }
        if (!config_.naive_stepping) {
          heap_push(std::max(action.stay_until, r + 1), s);
        } else if (suppressing) {
          wake_[s] = std::max(action.stay_until, r + 1);
        }
        break;
      }
      case ActionKind::Terminate: {
        terminated_[s] = 1;
        ++terminated_count_;
        robots_[s]->mark_terminated();
        if (m.first_termination == kNoRound) m.first_termination = r;
        m.last_termination = r;
        terminated_this_round = true;
        hash_word(m.trace_hash, ~r);
        hash_word(m.trace_hash, ids_[s]);
        if (rec_ != nullptr) rec_->record_terminate(s);
        if (promises_) changed_slots_.push_back(s);
        break;
      }
      case ActionKind::Follow:
        GATHER_INVARIANT(!"unreachable: actions were resolved");
        break;
    }
  }

  if (suppressing) movers += apply_carried(r, result);
  splice_arrivals(r);

  // A robot announcing termination claims gathering is complete; record
  // any announcement made while the full robot set (dormant and crashed
  // robots included — they are part of the ground truth) was not
  // co-located. The paper's detection guarantee is exactly that this
  // never happens under the synchronous adversary.
  if (terminated_this_round && !all_colocated()) {
    result.false_announcement = true;
  }

  // ---- occupancy-change wakeups ------------------------------------------
  // splice_arrivals left every touched node in touched_nodes_ but an
  // intact group's destination, whose occupants all moved (so are woken
  // already) and keep their promises. An occupancy change voids every
  // standing promise at the node. Each walked node is stamped so
  // void_changed_views skips it.
  if (!config_.naive_stepping) {
    for (const NodeId node : touched_nodes_) {
      NodeRec* rec = nodes_.find(node);
      if (rec == nullptr) continue;  // sparse mode: node emptied by a move
      rec->touch_stamp = r;
      for (std::uint32_t occ = rec->head; occ != kNoSlot;
           occ = occ_next_[occ]) {
        if (replays_) promise_until_[occ] = 0;
        if (terminated_[occ] != 0) continue;
        // Crashed and still-dormant occupants would only be dropped or
        // re-deferred by the collection filter next round — skip the
        // heap churn here (no behavior change, pinned by the skip-vs-
        // naive equivalence suite).
        if (any_crash_ && r + 1 >= crash_at_[occ]) continue;
        if (any_delay_ && release_[occ] > r + 1) continue;
        // An occupancy change voids the Stay promise whether or not the
        // heap entry moves: the occupant must be consulted, not re-slept
        // by the deadline re-check.
        if (suppressing) sleep_target_[occ] = kNoRound;
        if (wake_[occ] > r + 1) heap_push(r + 1, occ);
      }
    }
  }
  if (!changed_slots_.empty()) void_changed_views(r);

  return movers;
}

void Engine::void_changed_views(Round r) {
  // A Follow promise holds only while the follower's view entries are
  // unchanged, and a changed tag or group id (a termination included)
  // changes them from round r+1: void the promises at each listed slot's
  // post-move node, and wake its follow sleepers. Stay sleepers are left
  // asleep: their promise covers the occupancy only. Each node is walked
  // once — k robots changing state together at one node cost O(k).
  for (const std::uint32_t s : changed_slots_) {
    NodeRec* rec = nodes_.find(pos_[s]);
    GATHER_INVARIANT(rec != nullptr);  // the slot itself sits there
    if (rec->touch_stamp == r) continue;  // already walked this round
    rec->touch_stamp = r;
    for (std::uint32_t occ = rec->head; occ != kNoSlot; occ = occ_next_[occ]) {
      if (replays_) {
        promise_until_[occ] = 0;
        continue;
      }
      if (terminated_[occ] != 0 || sleep_target_[occ] == kNoRound ||
          follow_wake_[occ] == kNoRound || wake_[occ] <= r + 1) {
        continue;
      }
      if (any_crash_ && r + 1 >= crash_at_[occ]) continue;
      sleep_target_[occ] = kNoRound;
      heap_push(r + 1, occ);
    }
  }
  changed_slots_.clear();
}
// gather-lint: hot-path-end(round-simulation)

}  // namespace gather::sim
