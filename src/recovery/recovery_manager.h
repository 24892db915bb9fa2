// ARIES restart recovery (paper §1.2) and fuzzy checkpoints:
//  - analysis: scan from the master checkpoint to the end of the log,
//    rebuilding the transaction table and dirty page table;
//  - redo: repeat history page-oriented from the minimum recLSN, including
//    updates of in-flight transactions;
//  - undo: roll back all losers in one backward sweep, writing CLRs (dummy
//    CLRs already written make completed SMOs and nested top actions
//    rollback-proof).
// Normal-processing rollback shares UndoStep with the restart undo pass, as
// in the paper.
#pragma once

#include <map>
#include <mutex>
#include <unordered_map>

#include "buffer/buffer_pool.h"
#include "common/context.h"
#include "common/status.h"
#include "recovery/page_index.h"
#include "recovery/resource_manager.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace ariesim {

struct RestartStats {
  uint64_t analysis_records = 0;
  uint64_t redo_records = 0;
  uint64_t redo_applied = 0;
  uint64_t undo_records = 0;
  uint64_t loser_txns = 0;
  uint64_t torn_pages_repaired = 0;  ///< CRC failures rebuilt from the log
  /// Instant restart only: DPT pages whose redo was deferred to first fetch
  /// (the classic redo pass reports redo_records/redo_applied instead).
  uint64_t lazy_pages_scheduled = 0;
  bool instant = false;  ///< this restart deferred redo to first fetch
  Lsn redo_start = kNullLsn;
  // Per-pass wall-clock durations (PR 4 observability). `total_us` also
  // covers the trailing checkpoint, so it can exceed the three passes' sum.
  uint64_t analysis_us = 0;
  uint64_t redo_us = 0;
  uint64_t undo_us = 0;
  uint64_t total_us = 0;

  std::string ToString() const {
    return std::string(instant ? "instant " : "") + "analysis=" +
           std::to_string(analysis_records) + " recs/" +
           std::to_string(analysis_us) + "us redo=" +
           std::to_string(redo_applied) + "/" + std::to_string(redo_records) +
           " applied/" + std::to_string(redo_us) + "us undo=" +
           std::to_string(undo_records) + " recs/" + std::to_string(undo_us) +
           "us losers=" + std::to_string(loser_txns) +
           " torn_repaired=" + std::to_string(torn_pages_repaired) +
           " lazy_scheduled=" + std::to_string(lazy_pages_scheduled) +
           " total=" + std::to_string(total_us) + "us";
  }
};

class RecoveryManager {
 public:
  explicit RecoveryManager(EngineContext* ctx) : ctx_(ctx) {}

  void RegisterRm(RmId id, ResourceManager* rm) {
    rms_[static_cast<int>(id)] = rm;
  }

  /// Full restart: analysis, redo, undo, then a checkpoint.
  Status Restart(RestartStats* stats = nullptr);

  /// Instant restart (on-demand per-page recovery): analysis rebuilds the
  /// transaction table, DPT and per-page LSN chains; every DPT page is
  /// marked pending-redo in the buffer pool (so its first fetch replays its
  /// chain via LazyRedoPage); losers are undone eagerly — their page fetches
  /// go through the same lazy path — and a checkpoint whose DPT includes the
  /// still-pending pages makes a crash *during* instant restart recoverable.
  /// Returns with the database ready for new transactions; the redo debt is
  /// drained by first-touch traffic and/or the Database-level sweeper.
  Status RestartInstant(RestartStats* stats = nullptr);

  /// On-demand single-page redo for instant restart: bring the just-read
  /// disk image in `buf` (page_size bytes, CRC already verified) up to date
  /// by replaying `page`'s LSN chain captured at restart, honoring the
  /// page_LSN idempotence check per entry. `rec_lsn` is the DPT recLSN the
  /// page was scheduled with; if the chain is missing or starts above it the
  /// replay falls back to a full log scan (counted by lazy_chain_fallbacks).
  /// `*first_applied` returns the first LSN actually applied (kNullLsn if
  /// the image was already current) so the caller can mark the frame dirty
  /// with the right recLSN. Thread-safe and buffer-pool-free; runs inside
  /// the fetch-miss quarantine like RebuildPageImage.
  Status LazyRedoPage(PageId page, char* buf, Lsn rec_lsn, Lsn* first_applied);

  /// Live per-page log index (maintained from the WAL append observer,
  /// persisted at checkpoints, reconstructed by analysis).
  PageLogIndex* page_index() { return &page_index_; }

  /// Fuzzy checkpoint: begin_chkpt, DPT + TT snapshot, end_chkpt, master.
  /// Checkpoints run one at a time (see checkpoint_mu_).
  Status TakeCheckpoint();

  /// Undo `txn`'s records with LSN > `stop_at` (kNullLsn = total rollback).
  /// Shared by normal rollback, savepoint rollback and the restart undo
  /// pass.
  Status UndoTransaction(Transaction* txn, Lsn stop_at);

  /// Media recovery (paper §5): after the page has been restored from an
  /// image copy (fuzzy dump), roll it forward by replaying the log from
  /// `from` — page-oriented, applying only records for `page` whose LSN is
  /// newer than the restored page_LSN.
  Status RollForwardPage(PageId page, Lsn from);

  /// Rebuild a page whose on-disk image failed its CRC (torn write): drop
  /// the corrupt copy, restore the pre-log base image (zeroed, or the
  /// formatted map page for space-map pages) and roll it forward from the
  /// start of the log. The redo pass invokes this automatically when a
  /// fetch reports kCorruption.
  Status RepairPage(PageId page);

  /// Core single-page media recovery, shared by restart-time RepairPage and
  /// the online fetch-time repair path: rebuild `page` into the caller's
  /// `buf` (page_size bytes) by replaying its full log history onto the
  /// blank base image, then persist the result (checksummed, WAL rule
  /// honored). Thread-safe and buffer-pool-free, so it can run while normal
  /// traffic continues on other pages; the caller must guarantee no new log
  /// records are appended for `page` for the duration (the buffer pool's
  /// fetch-miss quarantine does). Returns kCorruption if the log holds no
  /// history for the page (unrepairable).
  Status RebuildPageImage(PageId page, char* buf);

  /// Failure injection (tests only): abort the restart-undo pass with an
  /// injected error after `n` records — simulating a crash *during*
  /// recovery, to verify bounded logging via CLRs (paper §1.2). Negative
  /// disables; the hook is one-shot.
  void TestStopUndoAfter(int n) { test_stop_undo_after_ = n; }

 private:
  struct AnalysisResult {
    // txn -> (last_lsn, undo_next, saw_commit)
    struct TxnInfo {
      Lsn last_lsn = kNullLsn;
      Lsn undo_next = kNullLsn;
      bool committed = false;
    };
    std::unordered_map<TxnId, TxnInfo> txns;
    std::unordered_map<PageId, Lsn> dpt;  // page -> recLSN
    PageLsnChains chains;                 // page -> redoable-LSN chain
  };

  /// Restart and RestartInstant share all but the middle: the redo pass or
  /// pending-redo scheduling. The passes below take a non-null `stats`.
  Status RunRestart(bool instant, RestartStats* stats);
  Status Analyze(Lsn start, AnalysisResult* out, RestartStats* stats);
  Status RedoPass(const AnalysisResult& ar, RestartStats* stats);
  Status UndoPass(const AnalysisResult& ar, RestartStats* stats);

  /// The one redo step: unless `v`'s page_LSN covers `rec`, redo it through
  /// its RM and stamp its LSN. Returns whether it did.
  Result<bool> RedoStep(const LogRecord& rec, PageView v);
  /// RedoStep every record for `page` from `from` to the end of the log onto
  /// `v`; `*first_applied`, if still kNullLsn, gets the first LSN applied.
  Status ReplayPage(PageId page, Lsn from, PageView v, Lsn* first_applied);
  /// The one undo step, for rollback and restart undo: move `txn`'s
  /// UndoNxtLSN past one record, undoing it through its RM if an update.
  Status UndoStep(Transaction* txn);

  ResourceManager* Rm(RmId id) { return rms_[static_cast<int>(id)]; }

  EngineContext* ctx_;
  ResourceManager* rms_[8] = {nullptr};
  /// Held across TakeCheckpoint. Analysis starts at the master's
  /// begin-checkpoint and seeds its transaction table from the first
  /// end-checkpoint it reads; two interleaved checkpoints (begin A, begin B,
  /// end A, end B, master = B) would pair B's begin with A's older snapshot,
  /// whose stale LastLSNs make restart undo skip a loser's records logged
  /// between the two begins.
  std::mutex checkpoint_mu_;
  PageLogIndex page_index_;
  /// Chains frozen at the end of instant-restart analysis; immutable until
  /// the next restart, so LazyRedoPage can read them without locking while
  /// page_index_ keeps evolving under new traffic.
  PageLsnChains restart_chains_;
  int test_stop_undo_after_ = -1;
};

}  // namespace ariesim
