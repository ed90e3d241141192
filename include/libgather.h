/* libgather.h — the C-callable stable ABI over gather::Service.
 *
 * A gather_service is an opaque context object owning the graph cache,
 * the fingerprint result cache, and the sweep thread configuration.
 * Two services in one process are fully independent: independent
 * hit/miss counters, independent clear semantics, no shared state. A
 * long-lived embedding creates one service and reuses it so repeated
 * requests hit warm caches (observable via gather_cache_stats; see
 * examples/service_loop.c).
 *
 * Error contract: exceptions never cross this boundary. Every failure
 * inside the library maps to a gather_status code, with the
 * human-readable message retrievable via gather_last_error() (thread
 * local, valid until the calling thread's next libgather call):
 *
 *   GATHER_STATUS_OK         success
 *   GATHER_STATUS_VIOLATION  the run broke a robot protocol invariant
 *                            (gather::ProtocolViolation), or a replayed
 *                            trace ends in a violation record — a
 *                            reportable outcome under an adversarial
 *                            scheduler, an algorithm bug otherwise; the
 *                            ABI reports the class mechanically and
 *                            leaves that policy to the caller
 *   GATHER_STATUS_USAGE      bad spec text: unknown key, malformed
 *                            value, unknown registry name, infeasible
 *                            scenario (gather::scenario::ScenarioError)
 *   GATHER_STATUS_INTERNAL   engine/library invariant failure or any
 *                            unforeseen exception — a bug, please report
 *   GATHER_STATUS_TRACE      unreadable, corrupt, or truncated trace
 *                            file (gather::sim::TraceError)
 *   GATHER_STATUS_ARGUMENT   NULL argument to an ABI function
 *
 * gather_cli's exit codes are the 0..3 subset of these values, so a
 * shell caller and a C caller read the same taxonomy.
 *
 * Spec text (gather_run_json / gather_sweep_csv) is one key=value per
 * line, keys named after the scenario::ScenarioSpec fields ('#'
 * comments and blank lines skipped). Unset keys keep the library
 * defaults — the same defaults as gather_cli — and gather_sweep_csv
 * output is byte-identical to `gather_cli --sweep` for the same grid.
 * See DESIGN.md §3.13 for the full key list and the contract.
 *
 * All char** results are malloc'd NUL-terminated buffers owned by the
 * caller; release them with gather_free(). Out parameters are written
 * only on GATHER_STATUS_OK (plus GATHER_STATUS_VIOLATION for
 * gather_replay_trace, where the violation summary is the payload).
 *
 * Thread safety: one service may be used from many threads
 * concurrently (the caches are internally synchronized). Creation and
 * destruction of a service must not race its use.
 */
#ifndef GATHER_LIBGATHER_H
#define GATHER_LIBGATHER_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Semantic version of the library; gather_version() returns the same
 * values at runtime, so an embedder can detect a header/library skew. */
#define GATHER_VERSION_MAJOR 0
#define GATHER_VERSION_MINOR 3
#define GATHER_VERSION_PATCH 0
#define GATHER_VERSION_STRING "0.3.0"

#if defined(_WIN32)
#define GATHER_API
#else
#define GATHER_API __attribute__((visibility("default")))
#endif

typedef enum gather_status {
  GATHER_STATUS_OK = 0,
  GATHER_STATUS_VIOLATION = 1,
  GATHER_STATUS_USAGE = 2,
  GATHER_STATUS_INTERNAL = 3,
  GATHER_STATUS_TRACE = 4,
  GATHER_STATUS_ARGUMENT = 5
} gather_status;

/* Opaque context: owns the graph cache, the result cache, and the
 * sweep thread default. */
typedef struct gather_service gather_service;

/* Cache counter snapshot of ONE service (gather_cache_stats). */
typedef struct gather_cache_stats_s {
  uint64_t graph_hits;
  uint64_t graph_misses;
  uint64_t graph_evictions;
  uint64_t graph_entries;
  uint64_t graph_resident_bytes;
  uint64_t result_hits;
  uint64_t result_misses;
  uint64_t result_evictions;
  uint64_t result_entries;
  uint64_t result_resident_bytes;
} gather_cache_stats_s;

/* Create a service with default cache capacities and auto sweep
 * threads. NULL on allocation failure (gather_last_error set). */
GATHER_API gather_service* gather_service_new(void);

/* Create a service with explicit capacities (entries; 0 = default) and
 * a default sweep worker count (0 = auto). */
GATHER_API gather_service* gather_service_new_with(
    size_t graph_cache_capacity, size_t result_cache_capacity,
    unsigned sweep_threads);

/* Destroy a service. NULL is a no-op. */
GATHER_API void gather_service_free(gather_service* service);

/* Drop both caches' entries and counters — this service's only. */
GATHER_API gather_status gather_service_clear_caches(gather_service* service);

/* Run one scenario described by spec text; on OK, *out_json receives a
 * malloc'd JSON object (realized_n, min_pair_distance, gathered,
 * detection_correct, rounds, total_moves, message_bits, stage_hop,
 * peak_map_bits, trace_hash, cache_hit). Repeated specs are result
 * cache hits and skip the simulation ("cache_hit": true). */
GATHER_API gather_status gather_run_json(gather_service* service,
                                         const char* spec_text,
                                         char** out_json);

/* Run a cartesian sweep described by sweep spec text; on OK, *out_csv
 * receives the malloc'd CSV — byte-identical to `gather_cli --sweep`
 * for the same grid at any thread count. */
GATHER_API gather_status gather_sweep_csv(gather_service* service,
                                          const char* spec_text,
                                          char** out_csv);

/* Decode, re-execute, and cross-check a binary trace file. On OK *and*
 * on VIOLATION (a trace whose run was aborted by a recorded protocol
 * violation), *out_json receives a malloc'd replay summary. */
GATHER_API gather_status gather_replay_trace(const char* trace_path,
                                             char** out_json);

GATHER_API gather_status gather_cache_stats(const gather_service* service,
                                            gather_cache_stats_s* out);

/* Release a buffer returned through any char** out parameter. NULL is
 * a no-op. */
GATHER_API void gather_free(char* buffer);

/* Message for the calling thread's most recent failure ("" if none).
 * Valid until this thread's next libgather call. Never NULL. */
GATHER_API const char* gather_last_error(void);

/* Runtime library version, e.g. "0.3.0" (== GATHER_VERSION_STRING when
 * header and library match). */
GATHER_API const char* gather_version(void);
GATHER_API int gather_version_major(void);
GATHER_API int gather_version_minor(void);
GATHER_API int gather_version_patch(void);

/* Stable name of a status code ("ok", "violation", ...); "unknown" for
 * values outside the enum. */
GATHER_API const char* gather_status_name(gather_status status);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* GATHER_LIBGATHER_H */
