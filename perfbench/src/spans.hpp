// In-memory spans for the traced run, plus the counting Scheduler.
//
// A span records name, start, end, parent and request id. Spans are
// appended to one in-memory log when they end and written out only
// after the run; nothing is printed or flushed while work is timed.
// The parent of a span is the innermost open span on the same thread,
// or an explicit parent handed across threads (the sweep executor's
// points run on worker threads under the executor span).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = a request root
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// How many children may run at once (the executor's thread count);
  /// its self time subtracts child time divided by this width.
  unsigned width = 1;
};

/// Per-name totals over a span log.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;   ///< sum of durations minus child time
  std::int64_t child_ns = 0;  ///< sum of child durations
};

class SpanLog {
 public:
  std::int64_t open_id() { return next_id_.fetch_add(1); }
  void close(const SpanRecord& record);

  /// Spans sorted by id; call after every worker has joined.
  [[nodiscard]] std::vector<SpanRecord> records() const;

  [[nodiscard]] static std::map<std::string, SpanTotals> totals(
      const std::vector<SpanRecord>& records);

  /// Tab-separated dump: id, parent, request, name, start, end (ns).
  void write_tsv(const std::string& path) const;

 private:
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

/// RAII span. Nesting follows the thread's innermost open span unless
/// an explicit parent is given.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t request,
       unsigned width = 1);
  Span(SpanLog* log, const char* name, std::uint64_t request,
       std::int64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int64_t id() const { return record_.id; }

 private:
  SpanLog* log_;
  SpanRecord record_;
  std::int64_t saved_current_ = -1;
};

/// Forwards every Scheduler call to the scheduler it wraps and counts
/// activates() calls. A run's engine is single-threaded, and each run
/// gets its own decorator, so the counter is never contended.
class CountingScheduler final : public gather::sim::Scheduler {
 public:
  explicit CountingScheduler(std::shared_ptr<const gather::sim::Scheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] gather::sim::Round release_round(
      std::uint32_t slot, gather::sim::RobotId id) const override {
    return inner_->release_round(slot, id);
  }
  [[nodiscard]] gather::sim::Round crash_round(
      std::uint32_t slot, gather::sim::RobotId id) const override {
    return inner_->crash_round(slot, id);
  }
  [[nodiscard]] bool activates(gather::sim::Round r, std::uint32_t slot,
                               gather::sim::RobotId id) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->activates(r, slot, id);
  }
  [[nodiscard]] gather::sim::Round fairness_bound() const override {
    return inner_->fairness_bound();
  }
  [[nodiscard]] gather::sim::Round extend_cap(
      gather::sim::Round cap) const override {
    return inner_->extend_cap(cap);
  }
  [[nodiscard]] bool adversarial() const override {
    return inner_->adversarial();
  }

  [[nodiscard]] std::uint64_t activates_calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const gather::sim::Scheduler> inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

}  // namespace perfbench
