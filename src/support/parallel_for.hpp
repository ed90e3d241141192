// Work-stealing sweep executor for the benchmark and property-test harness.
//
// Every simulation run is an independent, deterministic, seeded task, so
// parameter sweeps are embarrassingly parallel — the classic explicit-
// parallelism pattern from the HPC guides (each worker owns its task;
// results land in pre-sized slots, so no synchronization is needed beyond
// the work queues). Results are identical to serial execution.
//
// Scheduling: the index range is split into contiguous chunks dealt to
// per-worker deques up front; a worker drains its own deque front-to-back
// (preserving locality over its slab) and, when empty, steals a chunk
// from the BACK of a victim's deque. This is what keeps a sweep that
// mixes cheap path-graph rows with expensive deep-ladder rows balanced:
// the old single shared index counter handed out indices in order, so a
// worker that drew a run of expensive rows finished long after the rest.
// Because every index is executed exactly once and each result lands in
// its own pre-sized slot, output is byte-identical across thread counts
// AND steal schedules by construction — the steal order can change which
// worker runs an index, never what the index computes.
//
// The callable is a template parameter: the per-index hot path makes a
// direct (usually inlined) call instead of going through a type-erased
// std::function — sweeps dispatch millions of cheap rows, and the
// indirection was measurable. gather_lint's hot-template rule pins this.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

namespace gather::support {

/// The most OS threads one parallel_for_index call starts, whatever
/// thread count a spec, a service config or GATHER_THREADS asks for.
inline constexpr unsigned kMaxWorkers = 256;

/// A GATHER_THREADS value: a plain decimal (digits only, no sign or
/// space), clamped to kMaxWorkers; nullopt for anything else.
[[nodiscard]] std::optional<unsigned> parse_thread_count(
    std::string_view text) noexcept;

/// Number of workers to use by default: hardware concurrency, overridable
/// with the GATHER_THREADS environment variable (0 or 1 = serial). A
/// malformed value (see parse_thread_count) counts as unset.
[[nodiscard]] unsigned default_thread_count();

/// Workers parallel_for_index starts for `count` indices when asked for
/// `threads`: min(threads, count, kMaxWorkers). At most 1 means it runs
/// serially on the calling thread.
[[nodiscard]] constexpr unsigned worker_count(std::size_t count,
                                              unsigned threads) noexcept {
  return static_cast<unsigned>(
      std::min({count, static_cast<std::size_t>(threads),
                static_cast<std::size_t>(kMaxWorkers)}));
}

namespace detail {

/// A contiguous slice of the index range; the stealing currency.
struct IndexChunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Per-worker chunk deque. A plain mutex per deque: pops are
/// uncontended except while a thief is probing, and each pop amortizes
/// over a whole chunk of (typically simulation-sized) tasks.
class ChunkDeque {
 public:
  void push_back(IndexChunk chunk) { chunks_.push_back(chunk); }

  /// Owner side: take the front chunk (in-order over the worker's slab).
  [[nodiscard]] bool pop_front(IndexChunk& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (chunks_.empty()) return false;
    out = chunks_.front();
    chunks_.pop_front();
    return true;
  }

  /// Thief side: take the back chunk (the far end of the victim's slab,
  /// minimizing interference with the owner's in-order scan).
  [[nodiscard]] bool steal_back(IndexChunk& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (chunks_.empty()) return false;
    out = chunks_.back();
    chunks_.pop_back();
    return true;
  }

 private:
  std::mutex mutex_;
  std::deque<IndexChunk> chunks_;
};

/// Chunk size heuristic: small enough that a skewed grid rebalances
/// (several chunks per worker), large enough to amortize a deque pop.
[[nodiscard]] constexpr std::size_t auto_chunk(std::size_t count,
                                               unsigned workers) {
  const std::size_t target = count / (static_cast<std::size_t>(workers) * 8);
  return target == 0 ? 1 : target;
}

}  // namespace detail

// gather-lint: hot-template-begin(parallel-executor)

/// Run fn(i) for i in [0, count) across worker_count(count, threads)
/// workers with work stealing. fn must be safe to call concurrently for
/// distinct i. Exceptions are captured and the first one is rethrown
/// after all workers join; once an error is captured, unclaimed indices
/// are abandoned so the pool drains promptly (an index already started
/// still runs to completion). If a worker thread cannot be started, the
/// workers already running stop the same way, are joined, and the spawn
/// error is rethrown. `steal_chunk` is the granularity of the stealing
/// currency (0 = auto); it affects scheduling only, never results.
template <typename Fn>
void parallel_for_index(std::size_t count, unsigned threads, Fn&& fn,
                        std::size_t steal_chunk = 0) {
  const unsigned workers = worker_count(count, threads);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const std::size_t chunk =
      steal_chunk == 0 ? detail::auto_chunk(count, workers) : steal_chunk;
  // Deal contiguous slabs, one per worker, pre-split into chunks. All
  // queues are fully populated before any worker starts, so an empty
  // sweep of every queue means the range is exhausted — work is never
  // re-enqueued, which is what makes the termination scan race-free.
  std::vector<detail::ChunkDeque> queues(workers);
  {
    const std::size_t per_worker = count / workers;
    const std::size_t remainder = count % workers;
    std::size_t begin = 0;
    for (unsigned w = 0; w < workers; ++w) {
      const std::size_t end = begin + per_worker + (w < remainder ? 1 : 0);
      for (std::size_t c = begin; c < end; c += chunk) {
        queues[w].push_back(
            detail::IndexChunk{c, std::min(end, c + chunk)});
      }
      begin = end;
    }
  }
  // Error propagation: the first captured exception wins (capture order,
  // serialized by the mutex); `stop` then keeps other workers from
  // claiming further chunks or indices, so the pool drains and joins
  // promptly instead of finishing the whole sweep after a failure. The
  // flag is advisory — an index already running completes — so a clean
  // run is bit-identical to serial execution.
  std::atomic<bool> stop{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&](unsigned w) {
    detail::IndexChunk chunk_run;
    for (;;) {
      // Own queue first (front: in-order over the slab), then probe
      // victims round-robin starting past self (back: far end).
      bool claimed = queues[w].pop_front(chunk_run);
      for (unsigned v = 1; !claimed && v < workers; ++v) {
        claimed = queues[(w + v) % workers].steal_back(chunk_run);
      }
      if (!claimed) return;  // every queue empty = range exhausted
      for (std::size_t i = chunk_run.begin; i < chunk_run.end; ++i) {
        if (stop.load(std::memory_order_relaxed)) return;
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          stop.store(true, std::memory_order_relaxed);
          return;
        }
      }
      if (stop.load(std::memory_order_relaxed)) return;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  } catch (...) {
    // A joinable std::thread must not be destroyed (std::terminate), so
    // drain and join the workers already started before rethrowing.
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : pool) t.join();
    throw;
  }
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Convenience: map fn over [0, count) and collect results in order.
/// Each result lands in its pre-sized slot, so the output vector is
/// independent of thread count and steal schedule.
template <typename Result, typename Fn>
std::vector<Result> parallel_map_index(std::size_t count, unsigned threads,
                                       Fn&& fn, std::size_t steal_chunk = 0) {
  std::vector<Result> results(count);
  parallel_for_index(
      count, threads, [&](std::size_t i) { results[i] = fn(i); }, steal_chunk);
  return results;
}

// gather-lint: hot-template-end(parallel-executor)

}  // namespace gather::support
