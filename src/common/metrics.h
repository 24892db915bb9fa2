// Instrumentation counters and latency histograms. The locking-matrix tests
// and the lock-count / concurrency benches read the counters to verify the
// paper's Figure 2 and its efficiency claims (number of locks acquired, pages
// accessed during redo / undo / normal processing, logical vs page-oriented
// undos); the histograms (PR 4) add the time dimension — where a commit,
// lock wait, page miss, fsync, latch wait, or online repair spends it.
// Every cell is striped per thread (common/histogram.h), so the engine's
// threads never share a metric's cache line. Per-counter semantics live in
// docs/METRICS.md.
//
// Every counter MUST be declared through ARIESIM_METRICS_COUNTERS and every
// histogram through ARIESIM_METRICS_HISTOGRAMS: the X-macros generate the
// members, the name tables, Reset() and Snapshot(), so every surface that
// renders a snapshot is exhaustive by construction. metrics_emission_test.cpp
// statically checks the struct layout so a member added outside the macros
// fails the build's observability suite rather than silently vanishing from
// the stats surface.
#pragma once

#include <cstdint>
#include <string>

#include "common/histogram.h"

namespace ariesim {

class JsonWriter;
struct MetricsSnapshot;

// Declaration order is emission order. Sections: lock manager, latches, I/O,
// group commit, B-tree, undo paths, recovery passes, self-healing.
#define ARIESIM_METRICS_COUNTERS(X)                                         \
  /* Lock manager */                                                        \
  X(lock_requests)           /* every Lock() call, blocking or not */       \
  X(locks_granted)           /* grants incl. mode conversions */            \
  X(lock_waits)              /* requests that had to enqueue */             \
  X(lock_conditional_denied) /* conditional requests denied, no wait */     \
  X(deadlocks)               /* victims picked by the waits-for detector */ \
  /* Latches */                                                             \
  X(page_latch_acquisitions)                                                \
  X(tree_latch_acquisitions)                                                \
  X(tree_latch_waits) /* contended X acquisitions of the tree latch */      \
  /* I/O */                                                                 \
  X(pages_read)                                                             \
  X(pages_written)                                                          \
  X(log_flushes)                                                            \
  X(log_records)                                                            \
  X(log_bytes)                                                              \
  X(io_retries) /* backoff sleeps re-driving a failed page read/write */    \
  /* Group commit (docs/METRICS.md derives the coalescing ratio) */         \
  X(group_commit_batches) /* group flushes that advanced flushed_lsn */     \
  X(group_commit_txns)    /* commits whose durability rode the group */     \
  /* B-tree */                                                              \
  X(smo_splits)                                                             \
  X(smo_page_deletes)                                                       \
  X(traversal_restarts)                                                     \
  X(smo_waits) /* traversals that waited out an SMO */                      \
  /* Retired optimistic read path: always 0, kept for perfbench's       \
     btree.olc_* metrics until the benchmark drops them. */                 \
  X(olc_descents)                                                           \
  X(olc_restarts)                                                           \
  X(olc_fallbacks)                                                          \
  /* Undo paths (paper §3 "Undo Processing") */                             \
  X(page_oriented_undos)                                                    \
  X(logical_undos)                                                          \
  X(smo_structural_undos) /* incomplete-SMO structural records inverted */  \
  /* Recovery passes */                                                     \
  X(redo_records_applied)                                                   \
  X(redo_records_skipped)                                                   \
  X(undo_records)                                                           \
  X(torn_pages_repaired)   /* CRC-failed pages rebuilt at restart */        \
  X(pages_repaired_online) /* pages rebuilt by the no-restart path */       \
  X(health_trips)          /* kHealthy -> kReadOnly -> kFailed moves */     \
  /* Instant restart (PR 8; docs/ARCHITECTURE.md "Instant restart") */      \
  X(pages_recovered_lazily)  /* pending pages redone on first fetch */      \
  X(lazy_chain_fallbacks)    /* lazy replays that fell back to a scan */    \
  X(instant_restart_open_us) /* gauge: last instant-open wall time, us */   \
  /* Concurrency forensics (PR 5; docs/OBSERVABILITY.md) */                 \
  X(deadlock_cycle_txns)   /* sum of cycle lengths over all postmortems */  \
  X(lock_watchdog_dumps)   /* blocked-waiter watchdog episode dumps */      \
  /* Flight recorder (PR 10; docs/OBSERVABILITY.md "Flight recorder") */    \
  X(blackbox_captures)     /* black-box snapshots written (any trigger) */  \
  X(blackbox_bytes)        /* total bytes written to the black-box file */  \
  X(btree_backoffs)        /* randomized restart-backoff sleeps taken */

// Latency histograms, all recording nanoseconds (reported as microseconds).
#define ARIESIM_METRICS_HISTOGRAMS(X)                                     \
  X(commit_latency)     /* TransactionManager::Commit, log append->ack */ \
  X(lock_wait_latency)  /* blocked LockManager::Lock wait time */         \
  X(latch_wait_latency) /* contended page/tree latch acquisitions */      \
  X(page_miss_latency)  /* BufferPool miss: evict + read + verify */      \
  X(log_flush_latency)  /* one WAL tail write + fsync */                  \
  X(repair_latency)     /* one online page rebuild from the log */        \
  X(lazy_replay_latency) /* one first-touch page redo (instant restart) */\
  X(deadlock_victim_wait)  /* victim's wait age when the cycle was cut */ \
  X(tree_latch_hold_latency) /* tree-latch X hold time (SMO serializer) */\
  X(read_descent_latency)  /* one read-path root->leaf descent */          \
  X(smo_latency)           /* one complete SMO: split or page delete */    \
  /* Flight recorder (PR 10): one black-box snapshot, build + atomic     \
     write + rename. */                                                   \
  X(blackbox_capture_latency)                                             \
  /* Commit critical-path attribution (PR 9). One entry per segment of    \
     ARIESIM_COMMIT_SEGMENTS (common/commit_breakdown.h) — mirrored by    \
     hand because nested X-macros don't rescan the inner X; the pairing   \
     is enforced by commit_breakdown_test.cpp. Recorded once per commit   \
     from the transaction's CommitBreakdown. */                           \
  X(commit_seg_lock_wait)                                                 \
  X(commit_seg_latch_wait)                                                \
  X(commit_seg_log_append)                                                \
  X(commit_seg_queue_wait)                                                \
  X(commit_seg_batch_write)                                               \
  X(commit_seg_fsync)                                                     \
  X(commit_seg_wakeup)

struct Metrics {
#define ARIESIM_DECLARE_COUNTER(name) StripedCounter name;
  ARIESIM_METRICS_COUNTERS(ARIESIM_DECLARE_COUNTER)
#undef ARIESIM_DECLARE_COUNTER

#define ARIESIM_DECLARE_HISTOGRAM(name) LatencyHistogram name;
  ARIESIM_METRICS_HISTOGRAMS(ARIESIM_DECLARE_HISTOGRAM)
#undef ARIESIM_DECLARE_HISTOGRAM

#define ARIESIM_COUNT_ONE(name) +1
  static constexpr size_t kCounterCount =
      0 ARIESIM_METRICS_COUNTERS(ARIESIM_COUNT_ONE);
  static constexpr size_t kHistogramCount =
      0 ARIESIM_METRICS_HISTOGRAMS(ARIESIM_COUNT_ONE);
#undef ARIESIM_COUNT_ONE

  /// Counter names, in declaration (= emission) order.
  static const char* const* CounterNames() {
#define ARIESIM_NAME_ONE(name) #name,
    static const char* const kNames[] = {
        ARIESIM_METRICS_COUNTERS(ARIESIM_NAME_ONE)};
#undef ARIESIM_NAME_ONE
    return kNames;
  }

  static const char* const* HistogramNames() {
#define ARIESIM_NAME_ONE(name) #name,
    static const char* const kNames[] = {
        ARIESIM_METRICS_HISTOGRAMS(ARIESIM_NAME_ONE)};
#undef ARIESIM_NAME_ONE
    return kNames;
  }

  void Reset() {
#define ARIESIM_RESET_COUNTER(name) name.store(0, std::memory_order_relaxed);
    ARIESIM_METRICS_COUNTERS(ARIESIM_RESET_COUNTER)
#undef ARIESIM_RESET_COUNTER
#define ARIESIM_RESET_HISTOGRAM(name) name.Reset();
    ARIESIM_METRICS_HISTOGRAMS(ARIESIM_RESET_HISTOGRAM)
#undef ARIESIM_RESET_HISTOGRAM
  }

  /// Every counter and histogram, read once. Defined in metrics.cpp.
  MetricsSnapshot Snapshot() const;

  /// {"counters":{...all...},"histograms":{...all...}} of one Snapshot().
  /// Histograms always emit (count 0 included) so consumers can rely on the
  /// key set. See docs/METRICS.md for the schema.
  std::string ToJson() const;

  /// Prometheus/OpenMetrics text exposition of every counter and histogram
  /// (defined in metrics.cpp; linted by tools/check_openmetrics.sh).
  std::string ToOpenMetrics() const;

  /// The `commit_breakdown` section of Database::Stats(), from one
  /// Snapshot(); see MetricsSnapshot::WriteCommitBreakdownJson.
  std::string CommitBreakdownJson() const;
};

/// One read of the whole registry: counters and histograms indexed in
/// declaration order (Metrics::CounterNames() / HistogramNames()). Every
/// metrics surface — Stats(), the sampler, ariesh .watch — renders one of
/// these, so the sections of one document describe the same instant.
struct MetricsSnapshot {
  uint64_t t_ns = 0;  ///< monotonic clock when taken
  uint64_t counters[Metrics::kCounterCount] = {};
  HistogramSnapshot hists[Metrics::kHistogramCount];

  /// Metrics::ToJson()'s document.
  void WriteJson(JsonWriter* w) const;
  /// Per-segment count/p50/p95/mean/sum plus share-of-total, and an
  /// `accounted` block comparing the commit-path segment sum against
  /// commit_latency (the >=90% attribution criterion).
  void WriteCommitBreakdownJson(JsonWriter* w) const;
};

}  // namespace ariesim
