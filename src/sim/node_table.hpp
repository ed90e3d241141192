// Per-node engine bookkeeping that scales with ROBOTS, not nodes.
//
// The engine keeps four words per occupied node: the head of the
// intrusive occupant list, the index of the round-stamped view memo,
// the round that memo is valid for, and the round the move splice last
// listed the node. Historically the first three were dense arrays sized
// num_nodes — O(n) memory that forbids implicit n >= 10^6 instances.
// NodeTable keeps the dense layout for small graphs (it is the fastest
// possible lookup) and switches to an open-addressing hash table above
// `dense_limit`, where only nodes currently hosting robots have records:
// O(k) resident memory on a graph of any size.
//
// Determinism: the table is NEVER iterated — every access is a keyed
// lookup driven by the (deterministic) simulation itself — so the
// probe layout cannot leak into results. The hash is a fixed
// multiplicative constant, identical on every platform.
//
// Rehashing only happens before the round loop: the engine reserves
// room for one record per robot when run() starts, and its batched
// move splice releases every emptied source record before it creates
// any destination record, so the records held never exceed the robot
// count and the table never grows mid-run — the round loop stays
// allocation-free in sparse mode too.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/types.hpp"
#include "support/assert.hpp"

namespace gather::sim {

/// One occupied node's engine-side record.
struct NodeRec {
  std::uint32_t head = static_cast<std::uint32_t>(-1);  ///< first slot/kNoSlot
  std::uint32_t view = 0;      ///< index into the engine's view table
  Round view_stamp = kNoRound; ///< round the memoized view is valid for
  /// Move-splice scratch: the round this node was last listed as touched
  /// (as a source until the departures are unlinked, then as a
  /// destination), so each is listed once without sorting; after the
  /// splice, the round its occupants were last walked for wakeups.
  Round touch_stamp = kNoRound;
};

class NodeTable {
 public:
  /// Dense/sparse crossover: dense costs 24 bytes per node, so the dense
  /// table stays within 6 MiB; above 2^18 nodes only occupied nodes
  /// have records.
  static constexpr std::size_t kDefaultDenseLimit = std::size_t{1} << 18;

  void init(std::size_t num_nodes, std::size_t dense_limit) {
    dense_mode_ = num_nodes <= dense_limit;
    if (dense_mode_) {
      dense_.assign(num_nodes, NodeRec{});
    } else {
      rehash(kMinCapacity);
    }
  }

  /// Sparse mode: grow now so that `records` records fit without a
  /// rehash (ref() rehashes at half load). A robot start on few nodes
  /// leaves the table small, and the robots spread out later.
  void reserve(std::size_t records) {
    if (dense_mode_) return;
    std::size_t capacity = keys_.size();
    while (capacity < 2 * records) capacity *= 2;
    if (capacity != keys_.size()) rehash(capacity);
  }

  [[nodiscard]] bool dense() const noexcept { return dense_mode_; }
  [[nodiscard]] std::size_t occupied() const noexcept { return size_; }

  /// Lookup; in sparse mode returns nullptr when the node has no record.
  /// In dense mode every node always has a (possibly empty) record.
  [[nodiscard]] NodeRec* find(graph::NodeId v) noexcept {
    if (dense_mode_) return &dense_[v];
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = slot_of(v, mask);; i = (i + 1) & mask) {
      if (keys_[i] == v) return &recs_[i];
      if (keys_[i] == kEmpty) return nullptr;
    }
  }
  [[nodiscard]] const NodeRec* find(graph::NodeId v) const noexcept {
    return const_cast<NodeTable*>(this)->find(v);
  }

  /// Lookup-or-create. May rehash (and invalidate NodeRec pointers) —
  /// only called from the engine's add/move paths, where no other
  /// record reference is live.
  [[nodiscard]] NodeRec& ref(graph::NodeId v) {
    if (dense_mode_) return dense_[v];
    if ((size_ + 1) * 2 > keys_.size()) rehash(keys_.size() * 2);
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = slot_of(v, mask);; i = (i + 1) & mask) {
      if (keys_[i] == v) return recs_[i];
      if (keys_[i] == kEmpty) {
        keys_[i] = v;
        recs_[i] = NodeRec{};
        ++size_;
        return recs_[i];
      }
    }
  }

  /// Drop v's record if it is empty (no occupants). Dense mode keeps the
  /// slot (the array IS the records); sparse mode releases it so resident
  /// size tracks the robot count, using backward-shift deletion to keep
  /// probe chains intact.
  void release_if_empty(graph::NodeId v) noexcept {
    if (dense_mode_) return;
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = slot_of(v, mask);
    for (;; i = (i + 1) & mask) {
      if (keys_[i] == v) break;
      if (keys_[i] == kEmpty) return;
    }
    if (recs_[i].head != static_cast<std::uint32_t>(-1)) return;
    --size_;
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask; keys_[j] != kEmpty;
         j = (j + 1) & mask) {
      const std::size_t ideal = slot_of(keys_[j], mask);
      // Move j into the hole iff the hole lies within j's probe chain.
      if (((j - ideal) & mask) >= ((j - hole) & mask)) {
        keys_[hole] = keys_[j];
        recs_[hole] = recs_[j];
        hole = j;
      }
    }
    keys_[hole] = kEmpty;
  }

 private:
  static constexpr graph::NodeId kEmpty = static_cast<graph::NodeId>(-1);
  static constexpr std::size_t kMinCapacity = 64;

  [[nodiscard]] static std::size_t slot_of(graph::NodeId v,
                                           std::size_t mask) noexcept {
    // Fixed multiplicative hash — platform-independent by construction.
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ULL) >> 32) &
           mask;
  }

  void rehash(std::size_t capacity) {
    std::vector<graph::NodeId> old_keys = std::move(keys_);
    std::vector<NodeRec> old_recs = std::move(recs_);
    keys_.assign(capacity, kEmpty);
    recs_.assign(capacity, NodeRec{});
    const std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      std::size_t j = slot_of(old_keys[i], mask);
      while (keys_[j] != kEmpty) j = (j + 1) & mask;
      keys_[j] = old_keys[i];
      recs_[j] = old_recs[i];
    }
  }

  bool dense_mode_ = true;
  std::vector<NodeRec> dense_;
  std::vector<graph::NodeId> keys_;
  std::vector<NodeRec> recs_;
  std::size_t size_ = 0;
};

}  // namespace gather::sim
