// Append-only log manager with an in-memory tail buffer and a group-commit
// pipeline for the commit-path log force.
//
// WAL contracts enforced here and by callers:
//  - BufferPool forces FlushTo(page_LSN) before a dirty page is stolen.
//  - TransactionManager forces CommitFlush(commit record end) at commit.
//  - A simulated crash discards the tail buffer; restart recovery scans
//    from the master record's checkpoint.
//
// File layout: when flushes fsync, wal.log is zero-filled ahead of the
// append point, so a commit's fdatasync overwrites allocated blocks and
// changes no file size (no file-system journal commit). The durable end of
// the log is therefore found by LogFileReader's CRC walk — a zero header
// ends it — never from the file size. Open trims the walk's tail; Close
// trims the slack, so a cleanly closed log is exactly its records.
//
// Group commit (docs/ARCHITECTURE.md has the full design): every flush
// writes the whole tail, so one write covers every commit record appended
// before it. When flushes fsync, a dedicated flusher thread (StartFlusher)
// runs them: committers register the LSN they need durable and block until
// a batch covers it. When no flusher runs, the committer flushes inline
// under the log mutex. A flush failure is delivered to exactly the waiters
// the failed attempt covered, so an acknowledged Commit() is durable under
// every fault the injector can produce.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/health.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "util/fault_injector.h"
#include "wal/log_record.h"

namespace ariesim {

class LogManager {
 public:
  LogManager(std::string path, Metrics* metrics, bool fsync_on_flush = true,
             size_t buffer_capacity = 1 << 20);
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Open (creating if absent) and position the append cursor after the
  /// last valid durable record.
  Status Open();
  void Close();

  /// Append `rec` (assigning rec->lsn) and return the assigned LSN.
  Result<Lsn> Append(LogRecord* rec);

  /// Make the record starting at `lsn` (and everything before it) durable.
  ///
  /// Deliberately flushes the *entire* tail, not just the prefix up to
  /// `lsn`. This is intentional, not sloppiness:
  ///  - the tail is one contiguous buffer, so the extra bytes ride the same
  ///    pwrite and the same fdatasync — a boundary-exact flush would cost
  ///    the identical syscalls plus buffer-splitting bookkeeping;
  ///  - under WAL, durability claims only ever strengthen: flushing more
  ///    than asked can never violate a contract;
  ///  - under group commit the over-flush is the whole point — it is what
  ///    folds every concurrently appended commit record into this batch;
  ///  - the WAL rule caller (BufferPool::WriteFrame) passes the *start*
  ///    LSN of the page's last record, and the whole-tail policy is what
  ///    guarantees that record's tail end is durable too.
  /// flushed_lsn() therefore typically advances past `lsn`.
  Status FlushTo(Lsn lsn);
  Status FlushAll();

  // -- group commit -------------------------------------------------------

  /// Commit-path log force: make the log prefix [0, `lsn`) durable, where
  /// `lsn` is the byte just past the commit record. With the flusher
  /// running, hands the force to it and shares its batches with every
  /// concurrent committer; otherwise flushes inline like FlushTo. Blocks
  /// until the prefix is durable or the flush that covered it failed (the
  /// error is returned to every covered waiter — their commits are NOT
  /// acknowledged), and fails if DiscardUnflushed threw the record away.
  Status CommitFlush(Lsn lsn);

  /// Lazy-commit durability request: ask for [0, `lsn`) to become durable
  /// soon, without waiting. Nudges the flusher thread when one runs;
  /// otherwise the request rides the next flush (commit force, capacity
  /// spill, or Close). Used by TransactionManager::CommitAsync.
  void RequestFlush(Lsn lsn);

  /// Start the dedicated flusher thread. Database::Open does so iff
  /// wal_group_commit and fsync_log: only a flush that fsyncs costs more
  /// than the thread hand-off. With no flusher running, committers flush
  /// inline.
  void StartFlusher();
  /// Stop and join the flusher thread. Blocked committers fall through to
  /// the inline flush, so none is stranded. Safe to call repeatedly; Close
  /// and Database::SimulateCrash call it.
  void StopFlusher();
  bool flusher_running() const {
    return flusher_running_.load(std::memory_order_acquire);
  }

  /// Read the record whose LSN is `lsn` (from the tail buffer or, through
  /// LogFileReader, the file). NotFound past the end of the log.
  Status ReadRecord(Lsn lsn, LogRecord* out);

  /// Crash simulation: throw away the volatile tail.
  void DiscardUnflushed();

  Lsn next_lsn() const { return next_lsn_.load(std::memory_order_acquire); }
  Lsn flushed_lsn() const {
    return flushed_lsn_.load(std::memory_order_acquire);
  }
  /// LSN of the most recently appended record (kNullLsn if none).
  Lsn last_lsn() const { return last_lsn_.load(std::memory_order_acquire); }

  /// Install a fault-injection hook consulted before each tail flush. Pass
  /// nullptr to detach. The injector must outlive this LogManager.
  void SetFaultInjector(FaultInjector* fault) { fault_ = fault; }

  /// Wire the engine's health monitor: after `failure_threshold` consecutive
  /// tail-flush failures the engine trips kHealthy -> kReadOnly, and after
  /// twice that count kFailed. A successful flush resets the streak. The
  /// trip reaches blocked group-commit waiters through the normal per-batch
  /// error delivery. 0 disables the trip.
  void SetHealthMonitor(HealthMonitor* health, uint32_t failure_threshold) {
    health_ = health;
    flush_failure_threshold_ = failure_threshold;
  }

  /// Observer invoked on the FIRST tail-flush failure of a consecutive
  /// streak (later failures of the same streak stay silent; a success resets
  /// the streak). Runs under the log mutex on the flushing thread, so it
  /// must not call back into any LogManager method that takes mu_ — the
  /// lock-free accessors (next_lsn/flushed_lsn/last_lsn/LastBatchWindow)
  /// are safe. The flight recorder uses this to force-capture on the
  /// flush-failure path before the health monitor would trip.
  void SetFlushFailureObserver(std::function<void(const Status&)> obs) {
    std::lock_guard<std::mutex> lk(mu_);
    flush_failure_observer_ = std::move(obs);
  }

  /// Wall-clock phases (MonotonicNowNs) of the most recent successful tail
  /// flush: batch start, pwrite done, fdatasync done. All zero before the
  /// first flush. Lock-free.
  struct BatchWindow {
    uint64_t start_ns = 0;
    uint64_t write_done_ns = 0;
    uint64_t fsync_done_ns = 0;
  };
  BatchWindow LastBatchWindow() const {
    BatchWindow w;
    w.start_ns = last_batch_start_ns_.load(std::memory_order_relaxed);
    w.write_done_ns = last_batch_write_ns_.load(std::memory_order_relaxed);
    w.fsync_done_ns = last_batch_fsync_ns_.load(std::memory_order_relaxed);
    return w;
  }

  /// Observer invoked inside the append critical section with
  /// (page_id, lsn) for every redoable page record. The buffer pool uses it
  /// to register the page as dirty *atomically with the append*: callers
  /// apply the change to the latched page only after Append returns, and a
  /// fuzzy checkpoint that slips its begin record plus dirty-page-table
  /// collection into that gap would otherwise miss the page entirely —
  /// the record precedes the begin-checkpoint, so restart analysis can
  /// never rediscover it and redo skips it. The observer must not call
  /// back into this LogManager.
  void SetAppendObserver(std::function<void(PageId, Lsn)> obs) {
    append_observer_ = std::move(obs);
  }

  // -- master record (last checkpoint address) ---------------------------
  Status WriteMaster(Lsn checkpoint_lsn);
  Result<Lsn> ReadMaster();

  /// Sequential scanner over the durable log, for recovery passes.
  class Reader {
   public:
    Reader(LogManager* lm, Lsn start) : lm_(lm), pos_(start) {}
    /// Returns NotFound at clean end-of-log (including a torn tail); it
    /// returns no other error.
    Status Next(LogRecord* out);
    Lsn position() const { return pos_; }

   private:
    LogManager* lm_;
    Lsn pos_;
  };

 private:
  /// Flush the whole tail; caller holds mu_. Tracks the consecutive-failure
  /// streak and trips the health monitor past the threshold.
  Status FlushLocked();
  Status FlushLockedImpl();
  /// One commit flush, by the flusher or an inline committer: take mu_ and,
  /// unless [0, `lsn`) is already durable, flush the whole tail and count a
  /// batch. `*end_out` receives the boundary the attempt covered (the
  /// next_lsn at flush time) — waiters at or below it have their answer.
  Status CommitBatch(Lsn lsn, Lsn* end_out);
  /// Flusher side of CommitFlush: block until [0, `lsn`) is durable or the
  /// flusher stops (both OK), or until a covering attempt's failure is
  /// final or the record was discarded (the error).
  Status AwaitFlusher(Lsn lsn);
  void FlusherLoop();

  std::string path_;
  Metrics* metrics_;
  bool fsync_on_flush_;
  size_t buffer_capacity_;
  FaultInjector* fault_ = nullptr;
  HealthMonitor* health_ = nullptr;
  uint32_t flush_failure_threshold_ = 0;
  uint32_t consecutive_flush_failures_ = 0;  // under mu_
  std::function<void(const Status&)> flush_failure_observer_;  // under mu_
  std::function<void(PageId, Lsn)> append_observer_;
  int fd_ = -1;

  std::mutex mu_;
  std::string buffer_;     // unflushed tail: bytes [buffer_base_, next_lsn_)
  Lsn buffer_base_ = 0;    // LSN of buffer_[0]
  // Written under mu_; atomic so the lock-free accessors are race-free.
  std::atomic<Lsn> next_lsn_{0};
  std::atomic<Lsn> flushed_lsn_{0};  // records below this are durable
  std::atomic<Lsn> last_lsn_{kNullLsn};
  // Under mu_: the file is zero-filled up to here. 0 until the first flush
  // after Open or DiscardUnflushed has preallocated.
  Lsn prealloc_end_ = 0;

  // Wall-clock phases of the most recent successful tail flush (batch start,
  // pwrite done, fdatasync done), published relaxed *before* the flushed_lsn_
  // release store so a commit waiter that observes its LSN durable also sees
  // the timing of the batch that made it so. Feeds the commit-breakdown
  // queue_wait / batch_write / fsync / wakeup segments (PR 9;
  // common/commit_breakdown.h).
  std::atomic<uint64_t> last_batch_start_ns_{0};
  std::atomic<uint64_t> last_batch_write_ns_{0};
  std::atomic<uint64_t> last_batch_fsync_ns_{0};

  // -- group-commit coordination ------------------------------------------
  // gc_mu_ guards only the coordination state below; the flush itself runs
  // under mu_. Nobody ever waits for mu_ while holding gc_mu_ (the flusher
  // and inline committers drop gc_mu_ before taking mu_), so the two
  // mutexes cannot deadlock.
  std::mutex gc_mu_;
  std::condition_variable gc_cv_;       // committers await durability
  std::condition_variable flusher_cv_;  // flusher awaits work
  Lsn gc_requested_ = 0;   // highest durability boundary asked for
  Lsn gc_attempted_ = 0;   // boundary covered by the last flush attempt
  uint64_t gc_round_ = 0;  // completed flush attempts (ok or not)
  Status gc_status_;       // outcome of the last attempt
  bool flusher_run_ = false;  // flusher thread keep-running flag
  std::atomic<bool> flusher_running_{false};
  std::thread flusher_;
};

}  // namespace ariesim
