// The round engine — the paper's execution model (§1.1) under a
// pluggable scheduling adversary (sim/scheduler.hpp).
//
// Each round: (1) co-located robots exchange public states and decide
// simultaneously from the previous round's snapshot; (2) moves execute.
// Which robots participate in a round is the scheduler's call: the
// default (no scheduler, or SynchronousScheduler) is the paper's model —
// everyone, every round, from round 0 — while adversarial schedulers may
// delay starts (robots then run in local time), suppress subsets of the
// pending robots, or crash robots permanently. The engine stays the
// mechanism; the adversary is policy. Three engine features matter for
// fidelity and scale:
//
//  * Follow-chain resolution. "Follow X" is the F2F message "do what I
//    do this round"; the engine resolves chains (helper → finder,
//    follower → leader → ...) within the round. Chains are acyclic by
//    construction of the algorithms (capture priority is strictly
//    monotone); cycles are reported as contract violations.
//
//  * Event-driven skipping. Robots sleeping via Stay{until} are not
//    polled; when no robot moves, the round counter jumps to the next
//    wake deadline. Any occupancy change of a node wakes its occupants
//    for the following round, preserving exact F2F semantics. The paper's
//    Õ(n^5)-round schedules are dominated by such quiet stretches, which
//    is what makes them simulable. `naive_stepping` disables all of this
//    for the equivalence tests. Scheduler policies compose with skipping
//    because they are pure per-robot functions (see scheduler.hpp):
//    skip-mode and naive-mode runs stay trace-identical under every
//    adversary, which tests/scheduler_test.cpp pins.
//
//  * Activation-count robot clocks. RoundView::round is the robot's
//    LOCAL time: the number of rounds the scheduler has activated it
//    since its release. Stay{until} deadlines are local too. For
//    non-suppressing schedulers local time is `global − release` and the
//    translation is two adds. Under suppression local time is a pure
//    function of the scheduler: the number of rounds in [release, r)
//    its activates() predicate accepts. Naive stepping counts it round
//    by round. The skipping engine keeps an *activation ledger* instead:
//    the activation bits of every live robot for the 64-round block
//    holding r (one Scheduler::activation_words() call per crossed
//    block), plus each robot's count before that block. A local clock
//    is that count plus a popcount, and an activation decision is a bit
//    test. Sleep deadlines become *conservative* global wakes (local
//    time advances at most one per round) that are re-checked on wake
//    and pushed out by the remaining deficit — so event-driven skipping
//    stays exact under suppression. A robot whose most recent decision
//    was Follow holds a *standing order*: if the scheduler suppresses it
//    in a round its leader moves with take_followers, the engine carries
//    it along (the F2F "come along" message does not require the
//    follower to be activated). Under every non-suppressing scheduler
//    followers are re-activated each round, so the carry path is
//    provably unreachable there and the synchronous instruction stream
//    is unchanged.
//
//  * Follow sleeps (skip mode under suppression). A Follow that resolves
//    to a stay sleeps until the earlier of its leader's wake (a global
//    round, where the follower is consulted if activated, since the
//    leader may move then) and the conservative global round of the
//    follower's own promise deadline (Action::follow's `until`, checked
//    like a Stay deadline). Occupancy changes, carries, and a consult or
//    termination that changes a public state at the node wake it early.
//    Every activated round it sleeps through is a *skipped poll*: its
//    promise says that consult would have repeated the Follow, so the
//    run credits the poll's message bits at the follower's next consult
//    (or its crash, or the end of the run, which also raises `rounds` to
//    its last skipped poll). The outputs are those of an engine that
//    polls every follower at every activated round; decision_calls and
//    simulated_rounds count only real consults. Naive stepping and a
//    run with a trace recorder (whose trace lists every poll) keep
//    polling.
//
//  * Standing promises (skip mode on the global clock, no trace
//    recorder). A consult that returns Follow{leader, until} with
//    `until` past the robot's local round leaves a promise: later
//    consults before `until` reuse that decision without calling
//    Robot::on_round. A *replayed* consult still adds its view's message
//    bits and counts in decision_calls, so every output is that of an
//    engine that calls the robot each time. The promise ends when the
//    robot's view entries change: at an occupancy change of its node
//    (the occupancy-wakeup walk), or at a consult or termination that
//    changes a tag or group id there (one walk per such node and round,
//    shared with the follow-sleep wakes). A helper group that moves as
//    one onto an empty node keeps its promises: its robots see the same
//    entries there, and a promise does not cover degree or entry port.
//
//  * Scheduler hooks off the hot path. Adversary features are gated by
//    booleans cached at add_robot time (any delay? any crash? does this
//    scheduler suppress?). Synchronous and delayed-start runs share one
//    global-clock decide loop: local = r − release, and the release
//    round is 0 for every slot when no start is delayed, so synchronous
//    traces stay bit-identical. A suppressing scheduler gets the second
//    loop, on the activation-ledger clock.
//
// Memory layout (see DESIGN.md "Memory layout"): per-robot state lives in
// flat structure-of-arrays buffers indexed by *slot* (the dense index
// assigned by add_robot, in insertion order); robot labels are looked up
// through a sorted slot array (binary search — no hash map anywhere),
// and a Follow's leader through a per-slot memo of the last leader's
// slot, checked against its label first. Node occupancy is an intrusive
// singly-linked list (per-node head + a per-slot next link, kept sorted
// by label). Moves are spliced in one batch per round: each source
// node's list is filtered once, then each arrival is inserted into its
// destination's list. When some node receives a group, the arrivals are
// first sorted by (node, label) and merged in one walk per node, so the
// group costs linear, not quadratic, time; otherwise nothing is sorted.
// An intact group move (every move leaves one node, empties it, and
// lands on one node that held no robot) skips both: the filtered-out
// movers are still chained in label order, so the destination takes
// the source's old head in O(1). The per-round
// communication views live in one contiguous arena stamped by round,
// each with its message-bit sum, so a robot's received bits are the sum
// minus its own entry.
//
// Wakes are split by deadline. A wake for the next round (every mover,
// every occupancy wakeup, Stay{r+1}, suppressed and carried slots) goes
// to a plain next-round bucket; only later deadlines enter the lazy
// min-heap. A skip-mode round drains the bucket and the heap entries
// due now, sorts the small admitted set into slot order, and keeps the
// alive count incrementally, so it costs O(active · log active) rather
// than a pass over every slot. After run() sizes the scratch buffers,
// the view, occupancy, decision, wake, and active-set machinery never
// allocates in the round loop. The heap holds at most one pending entry
// per (slot, deadline): a sleeper woken early by an occupancy change
// that goes back to sleep until the same deadline revives its queued
// entry instead of pushing a second one. It outgrows its reserve only
// if slots keep re-sleeping to ever new deadlines before the old ones
// are popped.
//
// Layer contract (umbrella for src/sim/): the execution model and the
// robot/oracle boundary. The engine holds the whole-graph view; robots
// implement sim::Robot and observe only the RoundView it hands them
// (n, own label, degree, entry port, co-located public states). May
// depend on src/{support,graph}; it knows nothing about the concrete
// algorithms it runs. See docs/ARCHITECTURE.md §1.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "graph/implicit.hpp"
#include "sim/metrics.hpp"
#include "sim/node_table.hpp"
#include "sim/robot.hpp"
#include "sim/scheduler.hpp"

namespace gather::sim {

class TraceRecorder;  // sim/trace.hpp — opt-in binary trace sink

/// Deterministic wake-phase work counters (EngineConfig::profile). Every
/// field is a pure function of the run, identical on any machine, so
/// tests can pin complexity bounds on them. run() adds to the counts
/// and raises heap_peak; they never enter fingerprints, CSV, or traces.
struct EngineProfile {
  /// Heap entries created: wakes past the next round, minus those that
  /// found their (slot, deadline) entry still queued.
  std::uint64_t heap_pushes = 0;
  std::uint64_t bucket_pushes = 0;  ///< wakes scheduled for the next round
  std::uint64_t heap_pops = 0;      ///< heap entries removed, stale ones included
  std::uint64_t heap_peak = 0;      ///< largest heap size seen
  /// Slot entries examined to collect the active sets and count the
  /// alive robots: bucket and due heap entries in skip mode, every slot
  /// per round in naive mode, every slot per alive recount under a
  /// crash adversary.
  std::uint64_t wake_slot_visits = 0;
  std::uint64_t simulated_rounds = 0;
  /// Activation ledger (suppressing schedulers, skip mode): words
  /// requested from Scheduler::activation_words(), one per live slot per
  /// block, and the 64-round blocks they were requested for.
  std::uint64_t activation_words = 0;
  std::uint64_t ledger_blocks = 0;
  /// Follow sleeps (suppressing schedulers, skip mode): activated rounds
  /// at which a sleeping follower was not consulted. Its promise says
  /// each such consult would have repeated its Follow, so the run
  /// credits their message bits; decision_calls + skipped_polls is the
  /// consult count of an engine that polls followers every activation.
  std::uint64_t skipped_polls = 0;
  /// Standing promises (global clock, skip mode, no trace recorder):
  /// consults answered by repeating the slot's Follow instead of calling
  /// Robot::on_round. Each still counts in decision_calls.
  std::uint64_t replayed_follows = 0;
  /// Rounds whose moves all left one node, emptied it, and landed on one
  /// node that held no robot: the occupant list was handed over whole.
  std::uint64_t group_handoffs = 0;
  /// Skip-mode rounds whose admitted set was already in slot order
  /// before the wake collection sorted it.
  std::uint64_t presorted_rounds = 0;
};

struct EngineConfig {
  /// Hard upper bound on the round counter; exceeding it ends the run
  /// with hit_round_cap set (callers treat that as failure).
  Round hard_cap = 0;
  /// Disable sleeping/skipping: poll every robot every round. Identical
  /// observable behaviour, used to validate the skip machinery.
  bool naive_stepping = false;
  /// End the run as soon as all robots are co-located (without requiring
  /// termination) — used by baselines that have no detection of their own.
  bool stop_when_gathered = false;
  /// Opt-in binary trace sink (sim/trace.hpp), non-owning; must outlive
  /// run(). Null (the default) costs the hot path one predicted-false
  /// branch per round and per move/termination — nothing else.
  TraceRecorder* trace_recorder = nullptr;
  /// Opt-in wake-phase work counters, non-owning; must outlive run().
  /// Null (the default) costs one predicted-false branch per heap
  /// operation and per round.
  EngineProfile* profile = nullptr;
  /// Scheduling adversary (see sim/scheduler.hpp). Null is the paper's
  /// synchronous model, bit-identical to SynchronousScheduler.
  std::shared_ptr<const Scheduler> scheduler;
  /// Dense per-node bookkeeping at or below this node count; above it the
  /// engine switches to the O(robots) sparse node table (sim/node_table.hpp).
  /// Exposed so tests can force sparse mode on small graphs.
  std::size_t dense_node_limit = NodeTable::kDefaultDenseLimit;
};

class Engine {
 public:
  /// Accepts any Topology; the concrete representation is resolved once
  /// here (CSR / implicit) so the round loop dispatches with a predicted
  /// branch instead of a virtual call per traversal.
  Engine(const graph::Topology& graph, EngineConfig config);

  /// Register a robot at its start node. All robots must be added before
  /// run(); labels must be unique (run() rejects a repeated one).
  void add_robot(std::unique_ptr<Robot> robot, NodeId start);

  /// Execute until every robot has terminated, the hard cap is reached,
  /// or no robot can ever act again (contract violation).
  [[nodiscard]] RunResult run();

  /// Adversary-view position of a robot (tests/oracles only; after run()).
  [[nodiscard]] NodeId position_of(RobotId id) const;

 private:
  /// Slot sentinel ("null" link / failed lookup).
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  const graph::Topology& graph_;
  /// Concrete-representation fast paths (exactly one is non-null for the
  /// shipped Topology implementations; both null falls back to virtual
  /// dispatch, which stays correct for exotic test doubles).
  const graph::Graph* csr_ = nullptr;
  const graph::ImplicitGraph* imp_ = nullptr;
  EngineConfig config_;

  [[nodiscard]] std::uint32_t degree_at(NodeId v) const {
    if (csr_ != nullptr) return csr_->degree(v);
    if (imp_ != nullptr) return imp_->degree(v);
    return graph_.degree(v);
  }
  [[nodiscard]] graph::HalfEdge traverse_at(NodeId v, graph::Port p) const {
    if (csr_ != nullptr) return csr_->traverse_unchecked(v, p);
    if (imp_ != nullptr) return imp_->traverse_unchecked(v, p);
    return graph_.traverse(v, p);
  }

  // ---- scheduler policy, cached off the hot path ------------------------
  // The per-slot release/crash rounds are sampled once in add_robot; the
  // three feature flags gate every scheduler branch in the round loop but
  // one: the global-clock decide loop reads each slot's release round,
  // which is 0 when no start is delayed.
  const Scheduler* sched_ = nullptr;  ///< non-owning view of config_.scheduler
  TraceRecorder* rec_ = nullptr;      ///< non-owning copy of the trace sink
  EngineProfile* prof_ = nullptr;     ///< non-owning copy of the profile sink
  bool any_delay_ = false;
  bool any_crash_ = false;
  bool suppressing_ = false;
  /// Follow promises may be acted on (promises_): skip mode with no
  /// trace recorder (a trace records every poll). A suppressing
  /// scheduler sleeps the follower on its promise (follow_sleeps_); the
  /// global clock replays the promised Follow at each consult instead
  /// (replays_).
  bool promises_ = false;
  bool follow_sleeps_ = false;
  bool replays_ = false;

  // ---- flat per-slot state (SoA), indexed by add_robot order -----------
  std::vector<std::unique_ptr<Robot>> robots_;  ///< cold: ownership + vtable
  std::vector<RobotId> ids_;                    ///< hot copy of the labels
  std::vector<NodeId> pos_;
  std::vector<Port> entry_port_;
  std::vector<Round> wake_;
  /// Deadline of the slot's queued heap entry (kNoRound = none queued):
  /// heap_push skips a second entry for the same deadline.
  std::vector<Round> pending_;
  std::vector<Round> active_stamp_;  ///< dedupe marker for the active set
  std::vector<std::uint64_t> move_count_;
  std::vector<std::uint8_t> terminated_;
  std::size_t terminated_count_ = 0;  ///< slots with terminated_ set
  std::vector<Round> release_;   ///< scheduler: per-slot start round
  std::vector<Round> crash_at_;  ///< scheduler: per-slot crash round

  // ---- activation-count local clocks (maintained only when the
  // ---- scheduler suppresses; see the file comment) ----------------------
  /// Activations experienced since release, as of the round being
  /// decided: ticked per round in naive mode, read from the ledger at
  /// admission in skip mode.
  std::vector<Round> local_;
  /// Pending sleep deadline in LOCAL time (kNoRound = none): a Stay's
  /// deadline, or the promise deadline of a Follow (0 = none). Any forced
  /// wake (occupancy change, carry, a follow sleeper's view change)
  /// clears it so the robot re-decides.
  std::vector<Round> sleep_target_;
  /// Follow sleep: the global wake of the leader, at which the sleeper is
  /// consulted whatever its own deadline (kNoRound for a Stay sleep).
  std::vector<Round> follow_wake_;
  /// Skipped-poll credit of the slot's last Follow: the local round of
  /// its first skippable consult and the message bits of each (0 = none
  /// pending). Settled at the slot's next consult or at the end of run().
  std::vector<Round> credit_base_;
  std::vector<std::uint64_t> credit_bits_;
  /// Leader named by the slot's most recent decision if that decision
  /// was Follow (0 = none) — the standing order the carry pass executes.
  std::vector<RobotId> standing_follow_;
  /// Standing promise of the slot's last consult (replays_ only): the
  /// local round its Follow promised to repeat until (0 = none). Voided
  /// when the slot's view entries change.
  std::vector<Round> promise_until_;
  /// Slot of the leader the slot last followed (kNoSlot = none yet),
  /// checked against ids_ before use; find_slot is the fallback.
  std::vector<std::uint32_t> leader_slot_;

  /// Slot indices sorted by label — the label→slot index (binary search;
  /// labels are sparse in [1, n^b], so no direct-indexed table). Built
  /// by run().
  std::vector<std::uint32_t> slots_by_id_;

  // ---- node occupancy: intrusive lists sorted by label ------------------
  // Heads (plus the view memo words) live in the dense-or-sparse node
  // table; occ_next_ stays a per-slot array.
  NodeTable nodes_;
  std::vector<std::uint32_t> occ_next_;  ///< per slot: next slot or kNoSlot

  /// Lazy min-heap of (wake_round, slot) for deadlines past the next
  /// round; entries may be stale, at most one per (slot, pending_).
  std::vector<std::pair<Round, std::uint32_t>> heap_;
  /// Next-round bucket: slots whose wake is soon_round_, in push order.
  /// A slot may appear twice (suppressed, then carried); admission
  /// deduplicates through active_stamp_.
  std::vector<std::uint32_t> soon_;
  Round soon_round_ = 0;
  /// The bucket of the round being collected (swapped with soon_).
  std::vector<std::uint32_t> due_;
  bool ran_ = false;

  // ---- per-round scratch, sized once in run() ---------------------------
  // The round loop runs millions of times, so it must not allocate. All
  // buffers are stamped by round; the view arena holds every materialized
  // snapshot of the round back to back (each robot appears in exactly one
  // node's view, so slot-count capacity is exact).
  std::vector<RobotPublicState> view_arena_;
  struct ViewRef {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint64_t bits = 0;  ///< message bits of all entries together
  };
  std::vector<ViewRef> views_;
  std::size_t views_used_ = 0;
  std::size_t arena_used_ = 0;

  std::vector<Action> decisions_;
  std::vector<Round> decision_stamp_;
  std::vector<Action> resolved_;
  std::vector<Round> resolved_stamp_;
  std::vector<std::uint8_t> resolve_mark_;
  std::vector<NodeId> touched_nodes_;
  /// This round's movers, queued for the batched occupancy splice as
  /// packed (destination << 32 | label rank) keys: sorting the integers
  /// orders the arrivals by (node, label).
  std::vector<std::uint64_t> arrivals_;
  /// Per slot: its label's position in label order (the inverse of
  /// slots_by_id_), so list order can be compared on 32-bit ranks.
  std::vector<std::uint32_t> label_rank_;
  std::vector<std::uint32_t> active_;
  /// Slots whose consult changed their tag or group id, or that
  /// terminated, this round (follow sleeps and replays only): after the
  /// moves, each one's node is walked once to void the promises there.
  std::vector<std::uint32_t> changed_slots_;

  // ---- suppression-only scratch (sized in run(), unused otherwise) ------
  // The activation ledger (skip mode): ledger_block_ is the 64-round
  // block it holds (kNoRound before the first), clock_word_ the slot's
  // activation bits in that block (none below its release), clock_base_
  // its activations in the blocks before.
  Round ledger_block_ = kNoRound;
  std::vector<Round> clock_base_;
  std::vector<std::uint64_t> clock_word_;
  /// One activation_words() request: the live slots, their labels, and
  /// the words returned.
  std::vector<std::uint32_t> ledger_slots_;
  std::vector<RobotId> ledger_ids_;
  std::vector<std::uint64_t> ledger_words_;
  std::vector<Round> decided_stay_local_;  ///< pre-translation Stay deadline
  std::vector<std::uint32_t> carried_;     ///< slots carried this round
  std::vector<Round> carry_stamp_;         ///< memo stamp for resolve_carry
  std::vector<std::uint8_t> carry_has_;
  std::vector<graph::HalfEdge> carry_edge_;

  /// Materialize node's round-r view (and its bit sum) unless memoized.
  void build_view(NodeId node, Round r);
  /// Read-only lookup of a view already materialized for round r by the
  /// simulate_round pre-pass — the decide phase's accessor (no memo
  /// writes).
  [[nodiscard]] ViewRef view_cached(NodeId node, Round r) const;
  Action resolve_action(std::uint32_t slot, Round r);
  /// Slot of `leader`, the label slot's decision names: the memo in
  /// leader_slot_ if it still holds that label, else find_slot (kNoSlot
  /// when no robot has it).
  std::uint32_t leader_slot(std::uint32_t slot, RobotId leader);

  /// Every active robot's decide step, on the global clock (local =
  /// r − release) or the activation-ledger clock (see engine.cpp).
  template <bool LedgerClock>
  void decide_all(Round r, RunMetrics& m);

  /// Move the activation ledger to round r's block, requesting each
  /// crossed block's words for every live slot (skip mode under a
  /// suppressing scheduler).
  void advance_ledger(Round r);
  /// Whether the inactive slot is carried by a take-followers move of
  /// its standing-follow chain this round; fills carry_edge_[slot].
  bool resolve_carry(std::uint32_t slot, Round r);
  /// The standing-follow carry pass (suppression only; out of line to
  /// keep simulate_round's hot body compact): collect the carried slots
  /// against pre-move positions / apply their moves after the active set.
  void collect_carried(Round r);
  std::size_t apply_carried(Round r, RunResult& result);
  /// End of run: credit every follow sleeper's activations before `end`
  /// (exclusive; kNoRound = the run ran out of live robots) or its crash,
  /// and raise rounds to the last of them.
  void settle_follow_sleeps(Round end, RunMetrics& m);

  /// Schedule slot's wake: the bucket if round is soon_round_, else the
  /// heap unless the slot's entry for that round is still queued.
  void heap_push(Round round, std::uint32_t slot);
  /// Drop stale heap entries; the earliest live deadline, if any.
  [[nodiscard]] bool heap_pop_next(Round& round);
  /// Remove the heap's top entry (and its pending_ mark).
  void heap_pop();

  /// Sort the slots by label into slots_by_id_ and label_rank_, reject a
  /// repeated label, and link every start node's label-sorted occupant
  /// list (run(), once).
  void index_robots();
  /// Record a round-r move for splice_arrivals (pos_ is updated by the
  /// caller) and list its source node in touched_nodes_ once.
  void queue_arrival(std::uint32_t slot, NodeId from, NodeId to, Round r);
  /// After all of a round's moves: unlink the movers from their sources
  /// and insert them into their destinations' label-sorted lists. Leaves
  /// every touched node in touched_nodes_ (a node both left and entered
  /// may appear twice), except the destination of an intact group move,
  /// whose list is the source's, handed over whole.
  void splice_arrivals(Round r);
  /// After the occupancy wakeups: walk the node of every slot in
  /// changed_slots_ once, voiding the standing promises and waking the
  /// follow sleepers there.
  void void_changed_views(Round r);

  /// Label lookup; kNoSlot when no robot has this label.
  [[nodiscard]] std::uint32_t find_slot(RobotId id) const;
  /// Label lookup; contract violation when no robot has this label.
  [[nodiscard]] std::uint32_t slot_of(RobotId id) const;
  [[nodiscard]] bool all_colocated() const;

  /// Execute one round over active_; returns the number of robots moved.
  std::size_t simulate_round(Round r, RunResult& result);
};

}  // namespace gather::sim
