// Transaction manager: transaction table, log-append bookkeeping, commit
// (log force + lock release), rollback (delegated to RecoveryManager so
// normal and restart undo share one code path), and nested top actions.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
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

  Transaction* Begin();
  /// Commit record + log force + lock release. A transaction that logged
  /// nothing writes no record and forces only a still-volatile lazy commit
  /// it may have read from (lazy_commit_end_).
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
  /// Remove an ended transaction from the table and free it.
  void Forget(TxnId id);

  std::vector<TxnTableEntry> Snapshot();
  Transaction* Find(TxnId id);

  /// End-of-rollback / restart-undo bookkeeping: write the end record,
  /// release all locks and Forget the transaction. On OK `txn` is freed.
  Status EndTransaction(Transaction* txn, TxnState final_state);

  LockManager* locks() { return locks_; }
  LogManager* log() { return log_; }

 private:
  /// Commit/CommitAsync. On OK `txn` is freed.
  Status CommitImpl(Transaction* txn, bool lazy);
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

  /// The transaction table, split by id. A transaction's shard also makes
  /// its {log append, LastLSN update} pair atomic against Snapshot(), which
  /// holds every shard.
  struct alignas(64) Shard {
    std::mutex mu;
    std::unordered_map<TxnId, std::unique_ptr<Transaction>> table;
  };
  static constexpr size_t kShards = 16;
  Shard& ShardFor(TxnId id) { return shards_[id % kShards]; }
  /// Adds `txn` to its shard; returns it.
  Transaction* Insert(std::unique_ptr<Transaction> txn);

  std::atomic<TxnId> next_id_{1};
  std::array<Shard, kShards> shards_;
};

}  // namespace ariesim
