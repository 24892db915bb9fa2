// Per-transaction commit critical-path attribution (PR 9).
//
// A commit's latency is the sum of a handful of mechanically distinct waits:
// lock acquisition, latch waits and restart backoff, the commit-record log
// append, the time spent queued behind the group-commit batch, the batch's
// write and fsync, and finally the wakeup handoff back to the waiter. ROADMAP
// item 1 (parallel WAL) needs those segments separated — "fsync-bound" vs
// "queue-bound" vs "lock-bound" are different engineering problems — so every
// Transaction carries a CommitBreakdown accumulator and the wait sites in
// src/lock/, src/buffer/, src/btree/ and src/wal/ add their nanoseconds to
// whichever transaction is bound to the current thread.
//
// Attribution model: segments are accumulated via a thread_local pointer to
// the running transaction's breakdown (BindCommitBreakdown). Database::Begin/
// Commit/Rollback bind it around engine calls; the commit path re-binds it
// explicitly so commit-side segments (log_append, queue_wait, batch_write,
// fsync, wakeup) always attribute to the committing transaction even when a
// thread interleaves several transactions. Operation-phase segments
// (lock_wait, latch_wait) are best-effort: they attribute to whichever
// transaction the thread had bound when the wait happened, which matches the
// common one-txn-per-thread usage exactly. See docs/OBSERVABILITY.md
// "Commit critical-path attribution".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/clock.h"

namespace ariesim {

// Segment declaration order is emission order everywhere (histogram registry,
// Stats() JSON, trace instants). The commit-path subset — everything from the
// commit-record append to the durability ack — is {log_append, queue_wait,
// batch_write, fsync, wakeup}; {lock_wait, latch_wait} accrue during the
// operation phase before Commit() is called.
//
// NOTE: the seven `X(commit_seg_*)` histogram entries in
// ARIESIM_METRICS_HISTOGRAMS (common/metrics.h) mirror this list by hand —
// nested X-macro expansion can't generate them — and
// commit_breakdown_test.cpp verifies the two stay in lockstep.
#define ARIESIM_COMMIT_SEGMENTS(X) \
  X(lock_wait)   /* blocked LockManager::Lock waits */                    \
  X(latch_wait)  /* contended page/tree latches + restart backoff */      \
  X(log_append)  /* serializing commit+end records into the WAL buffer */ \
  X(queue_wait)  /* enqueue -> the durable batch's write started */       \
  X(batch_write) /* the durable batch's pwrite of the WAL tail */         \
  X(fsync)       /* the durable batch's fdatasync */                      \
  X(wakeup)      /* batch durable -> waiter observed flushed_lsn */

enum class CommitSegment : int {
#define ARIESIM_SEGMENT_ENUM(name) name,
  ARIESIM_COMMIT_SEGMENTS(ARIESIM_SEGMENT_ENUM)
#undef ARIESIM_SEGMENT_ENUM
};

#define ARIESIM_COUNT_ONE(name) +1
inline constexpr size_t kCommitSegmentCount =
    0 ARIESIM_COMMIT_SEGMENTS(ARIESIM_COUNT_ONE);
#undef ARIESIM_COUNT_ONE

/// Plain per-transaction accumulator. Not thread-safe by itself: a breakdown
/// is only ever written through the owning thread's TLS binding, and read
/// after the transaction finished.
struct CommitBreakdown {
  uint64_t ns[kCommitSegmentCount] = {};

  void Add(CommitSegment seg, uint64_t delta_ns) {
    ns[static_cast<size_t>(seg)] += delta_ns;
  }
  uint64_t Get(CommitSegment seg) const {
    return ns[static_cast<size_t>(seg)];
  }
  uint64_t TotalNs() const {
    uint64_t total = 0;
    for (size_t i = 0; i < kCommitSegmentCount; i++) total += ns[i];
    return total;
  }
  void Reset() {
    for (size_t i = 0; i < kCommitSegmentCount; i++) ns[i] = 0;
  }

  /// Segment names, in declaration (= emission) order.
  static const char* const* SegmentNames() {
#define ARIESIM_SEGMENT_NAME(name) #name,
    static const char* const kNames[] = {
        ARIESIM_COMMIT_SEGMENTS(ARIESIM_SEGMENT_NAME)};
#undef ARIESIM_SEGMENT_NAME
    return kNames;
  }
};

namespace commit_breakdown_internal {
// The transaction currently accumulating segments on this thread, or nullptr
// (waits outside any bound transaction — background threads, recovery — are
// simply not attributed).
inline thread_local CommitBreakdown* tls_breakdown = nullptr;
}  // namespace commit_breakdown_internal

/// Bind `bd` (may be nullptr) as this thread's attribution target; returns
/// the previous binding so callers can restore it.
inline CommitBreakdown* BindCommitBreakdown(CommitBreakdown* bd) {
  CommitBreakdown* prev = commit_breakdown_internal::tls_breakdown;
  commit_breakdown_internal::tls_breakdown = bd;
  return prev;
}

inline CommitBreakdown* CurrentCommitBreakdown() {
  return commit_breakdown_internal::tls_breakdown;
}

/// Per-thread operation-phase scratch accumulator. Database::Begin resets it
/// and binds it; TransactionManager::Commit adopts its contents into the
/// committing transaction's own breakdown. Thread-lifetime storage, so a
/// persistent binding to it can never dangle (a Transaction's breakdown is
/// only ever bound inside commit's RAII scope).
inline CommitBreakdown& ThreadCommitBreakdown() {
  static thread_local CommitBreakdown bd;
  return bd;
}

/// Add `delta_ns` to the bound transaction's segment; no-op when unbound.
inline void AddCommitSegment(CommitSegment seg, uint64_t delta_ns) {
  CommitBreakdown* bd = commit_breakdown_internal::tls_breakdown;
  if (bd != nullptr) bd->Add(seg, delta_ns);
}

/// RAII save/rebind/restore, used by Database::Begin/Commit/Rollback and the
/// commit path so nested engine calls attribute to the right transaction.
class ScopedCommitBreakdownBinding {
 public:
  explicit ScopedCommitBreakdownBinding(CommitBreakdown* bd)
      : prev_(BindCommitBreakdown(bd)) {}
  ~ScopedCommitBreakdownBinding() { BindCommitBreakdown(prev_); }
  ScopedCommitBreakdownBinding(const ScopedCommitBreakdownBinding&) = delete;
  ScopedCommitBreakdownBinding& operator=(const ScopedCommitBreakdownBinding&) =
      delete;

 private:
  CommitBreakdown* prev_;
};

/// RAII elapsed-time recorder into the bound transaction's segment: the
/// attribution sibling of ScopedLatency. Resolves the TLS binding at
/// destruction time (not construction) so a wait that spans a rebinding still
/// lands somewhere sensible, and is free when no transaction is bound.
class ScopedCommitSegment {
 public:
  explicit ScopedCommitSegment(CommitSegment seg)
      : seg_(seg), start_ns_(MonotonicNowNs()) {}
  ~ScopedCommitSegment() {
    AddCommitSegment(seg_, MonotonicNowNs() - start_ns_);
  }
  ScopedCommitSegment(const ScopedCommitSegment&) = delete;
  ScopedCommitSegment& operator=(const ScopedCommitSegment&) = delete;

 private:
  CommitSegment seg_;
  uint64_t start_ns_;
};

}  // namespace ariesim
