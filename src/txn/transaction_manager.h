// Transaction manager: transaction table, log-append bookkeeping, commit
// (log force + lock release), rollback (delegated to RecoveryManager so
// normal and restart undo share one code path), and nested top actions.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_cache.h"
#include "common/types.h"
#include "lock/lock_manager.h"
#include "txn/transaction.h"
#include "wal/log_manager.h"

namespace ariesim {

class RecoveryManager;

/// Snapshot entry for fuzzy checkpoints / analysis.
struct TxnTableEntry {
  TxnId id;
  TxnState state;
  Lsn last_lsn;
  Lsn undo_next_lsn;
};

class TransactionManager {
 public:
  TransactionManager(LogManager* log, LockManager* locks,
                     Metrics* metrics = nullptr)
      : log_(log), locks_(locks), metrics_(metrics) {}

  /// Late wiring (RecoveryManager also needs this object).
  void SetRecovery(RecoveryManager* r) { recovery_ = r; }

  /// Claims this thread's cached slot, or one from the registry when that
  /// slot is busy or missing; allocates only when every slot is in use.
  Transaction* Begin();
  /// Commit record + log force + lock release. A transaction that logged
  /// nothing writes no record and forces only a still-volatile lazy commit
  /// it may have read from (lazy_commit_end_). Commit, CommitAsync and
  /// Rollback return InvalidArgument for a transaction that has ended.
  Status Commit(Transaction* txn) { return CommitImpl(txn, /*lazy=*/false); }
  /// Lazy (asynchronous-durability) commit: append the commit record,
  /// request — but do not await — its group flush, and release locks
  /// immediately. A crash before the flush erases the transaction
  /// atomically; an explicit FlushAll (or any later synchronous commit)
  /// hardens it. Benchmark/opt-in path; Commit() is the ACID one.
  Status CommitAsync(Transaction* txn) {
    return CommitImpl(txn, /*lazy=*/true);
  }
  /// Total rollback, then end; a transaction that logged nothing just
  /// releases its locks.
  Status Rollback(Transaction* txn);
  /// Partial rollback to a savepoint previously captured via
  /// txn->Savepoint(). Locks acquired since the savepoint are retained (a
  /// correct, slightly conservative choice).
  Status RollbackToSavepoint(Transaction* txn, Lsn savepoint);

  /// Append a record on behalf of `txn`, maintaining PrevLSN / LastLSN /
  /// UndoNxtLSN chains. For CLRs the caller must have set undo_next_lsn.
  Result<Lsn> AppendTxnLog(Transaction* txn, LogRecord* rec);

  /// Append a record not tied to any transaction (checkpoints).
  Result<Lsn> AppendSystemLog(LogRecord* rec);

  // -- nested top actions -----------------------------------------------
  void BeginNta(Transaction* txn) { txn->BeginNta(); }
  /// Write the dummy CLR closing the innermost nested top action.
  Status EndNta(Transaction* txn);

  /// Recreate a transaction during restart (analysis pass).
  Transaction* AdoptRestored(TxnId id, Lsn last_lsn, Lsn undo_next_lsn);

  std::vector<TxnTableEntry> Snapshot();
  /// The running transaction `id`, or nullptr.
  Transaction* Find(TxnId id);
  /// Slots ever allocated (in use or free).
  size_t SlotCount();

  /// End-of-rollback / restart-undo bookkeeping: write the end record,
  /// release all locks and the slot. On OK `txn` has ended.
  Status EndTransaction(Transaction* txn, TxnState final_state);

  LockManager* locks() { return locks_; }
  LogManager* log() { return log_; }

 private:
  /// Commit/CommitAsync. On OK `txn` has ended.
  Status CommitImpl(Transaction* txn, bool lazy);
  /// A slot for transaction `id`: the cached one if it is free, else one
  /// claimed or allocated under registry_mu_.
  Transaction* Claim(TxnId id);
  /// End `txn`'s use of its slot.
  void Release(Transaction* txn);
  static bool TryClaim(Transaction* t) {
    bool free = false;
    return t->in_use_.compare_exchange_strong(free, true,
                                              std::memory_order_acquire);
  }
  static Status CheckRunning(const Transaction* txn) {
    return txn->in_use_.load(std::memory_order_relaxed)
               ? Status::OK()
               : Status::InvalidArgument("transaction has ended");
  }
  /// Publish `final_state`, write the end record if the transaction logged
  /// anything, and release its locks. `txn` stays in the table.
  Status WriteEndAndRelease(Transaction* txn, TxnState final_state);
  /// Record the transaction's CommitBreakdown into the commit_seg_*
  /// histograms and emit the per-segment trace instants (PR 9). Called after
  /// a successful Commit/CommitAsync; zero segments are recorded too so
  /// every segment histogram counts every commit.
  void HarvestBreakdown(const Transaction* txn);

  LogManager* log_;
  LockManager* locks_;
  Metrics* metrics_ = nullptr;
  RecoveryManager* recovery_ = nullptr;

  /// Byte just past the highest lazy commit record (an atomic max).
  std::atomic<Lsn> lazy_commit_end_{kNullLsn};

  std::atomic<TxnId> next_id_{1};
  /// The transaction table: every slot, in use or free, freed only with the
  /// manager (so a cached or ended pointer is live memory). Grows and is
  /// walked under registry_mu_; a slot changes hands by CAS on `in_use_`.
  std::mutex registry_mu_;
  std::vector<std::unique_ptr<Transaction>> slots_;
  /// The slot this thread last claimed.
  ThreadCache<TransactionManager, Transaction*> cache_;
};

}  // namespace ariesim
