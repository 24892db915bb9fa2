#include "txn/transaction_manager.h"

#include "common/clock.h"
#include "common/commit_breakdown.h"
#include "common/histogram.h"
#include "common/trace.h"
#include "recovery/recovery_manager.h"

namespace ariesim {

Transaction* TransactionManager::Begin() {
  return Insert(std::make_unique<Transaction>(
      next_id_.fetch_add(1, std::memory_order_relaxed)));
}

Transaction* TransactionManager::Insert(std::unique_ptr<Transaction> txn) {
  Transaction* raw = txn.get();
  Shard& sh = ShardFor(raw->id());
  std::lock_guard<std::mutex> lk(sh.mu);
  sh.table[raw->id()] = std::move(txn);
  return raw;
}

Result<Lsn> TransactionManager::AppendTxnLog(Transaction* txn, LogRecord* rec) {
  // The shard mutex makes the {log append, LastLSN/UndoNxtLSN update} pair
  // atomic with respect to Snapshot(). Without it a fuzzy checkpoint can
  // capture a LastLSN that lags the log: the snapshot then claims a
  // transaction's final record is an update even though its commit record
  // already sits before the begin-checkpoint, and restart analysis — which
  // can only see records at or after the begin-checkpoint — would adopt the
  // committed transaction as a loser and roll it back. Appends are already
  // serialized by the log's own mutex, so this adds no meaningful contention.
  std::lock_guard<std::mutex> lk(ShardFor(txn->id()).mu);
  rec->txn_id = txn->id();
  rec->prev_lsn = txn->last_lsn();
  ARIES_ASSIGN_OR_RETURN(Lsn lsn, log_->Append(rec));
  txn->set_last_lsn(lsn);
  if (rec->IsClr()) {
    txn->set_undo_next_lsn(rec->undo_next_lsn);
  } else if (rec->type == LogType::kUpdate) {
    txn->set_undo_next_lsn(lsn);
  }
  return lsn;
}

Result<Lsn> TransactionManager::AppendSystemLog(LogRecord* rec) {
  rec->txn_id = kInvalidTxnId;
  rec->prev_lsn = kNullLsn;
  return log_->Append(rec);
}

Status TransactionManager::EndNta(Transaction* txn) {
  Lsn anchor = txn->PopNta();
  LogRecord dummy;
  dummy.type = LogType::kCompensation;
  dummy.rm = RmId::kNone;
  dummy.undo_next_lsn = anchor;
  ARIES_RETURN_NOT_OK(AppendTxnLog(txn, &dummy).status());
  return Status::OK();
}

Status TransactionManager::CommitImpl(Transaction* txn, bool lazy) {
  // Commit latency = append + durability wait + lock release, i.e. what the
  // caller of Database::Commit experiences. Lazy commits record their
  // (short) append+enqueue window: that is still what the caller observes.
  ScopedLatency timer(metrics_ != nullptr ? &metrics_->commit_latency
                                          : nullptr);
  ARIES_TRACE_SPAN(span, lazy ? "txn.commit_async" : "txn.commit",
                   TraceCat::kTxn, txn->id());
  const TxnId id = txn->id();
  {
    // Adopt the thread's operation-phase wait accumulation (best-effort: it is
    // exact for the common one-transaction-per-thread pattern), then rebind
    // the attribution TLS to the committing transaction so the commit-path
    // segments land on this breakdown exactly (common/commit_breakdown.h).
    if (CommitBreakdown* scratch = CurrentCommitBreakdown()) {
      if (scratch != &txn->breakdown()) {
        txn->breakdown() = *scratch;
        scratch->Reset();
      }
    }
    ScopedCommitBreakdownBinding bind(&txn->breakdown());
    if (txn->last_lsn() != kNullLsn) {
      LogRecord commit;
      commit.type = LogType::kCommit;
      const uint64_t append_start_ns = MonotonicNowNs();
      Result<Lsn> lsn_res = AppendTxnLog(txn, &commit);
      AddCommitSegment(CommitSegment::log_append,
                       MonotonicNowNs() - append_start_ns);
      ARIES_RETURN_NOT_OK(lsn_res.status());
      const Lsn end = lsn_res.value() + commit.SerializedSize();
      if (lazy) {
        // Enqueue the durability request and release locks without waiting
        // for the flush. Trades the D of ACID at crash time — a crash before
        // the next group flush forgets this transaction (atomically, via
        // restart undo) — for commit latency. Reads-from ordering stays safe:
        // a later updater that saw our writes has a larger commit LSN, so it
        // can only be durable if we are; a later read-only one forces up to
        // lazy_commit_end_, published here before our locks are released.
        log_->RequestFlush(end);
        Lsn prev = lazy_commit_end_.load(std::memory_order_relaxed);
        while (prev < end && !lazy_commit_end_.compare_exchange_weak(
                                 prev, end, std::memory_order_release)) {
        }
      } else {
        // Commit rule: force the log up to and including the commit record.
        // CommitFlush coalesces with concurrent committers when group commit
        // is on; a returned error means the commit record is NOT durable and
        // the transaction must not be acknowledged (locks stay held — after a
        // crash the transaction either survives whole or is rolled back by
        // restart).
        ARIES_RETURN_NOT_OK(log_->CommitFlush(end));
      }
    } else if (!lazy) {
      // Read-only: nothing to harden, so commit is lock release — unless a
      // lazy commit whose writes we may have read is still volatile.
      Lsn lazy_end = lazy_commit_end_.load(std::memory_order_acquire);
      if (log_->flushed_lsn() < lazy_end) {
        ARIES_RETURN_NOT_OK(log_->CommitFlush(lazy_end));
      }
    }
    ARIES_RETURN_NOT_OK(WriteEndAndRelease(txn, TxnState::kCommitted));
    HarvestBreakdown(txn);
  }  // unbinds the breakdown before Forget frees `txn`
  Forget(id);
  return Status::OK();
}

void TransactionManager::HarvestBreakdown(const Transaction* txn) {
  const CommitBreakdown& bd = txn->breakdown();
  if (metrics_ != nullptr) {
    // One Record per segment per commit, zeros included: every commit_seg_*
    // histogram then has commit-count observations and per-commit means.
    // The histogram names mirror ARIESIM_COMMIT_SEGMENTS by hand (see
    // common/metrics.h); commit_breakdown_test.cpp enforces the pairing.
#define ARIESIM_RECORD_SEG(name) \
  metrics_->commit_seg_##name.Record(bd.Get(CommitSegment::name));
    ARIESIM_COMMIT_SEGMENTS(ARIESIM_RECORD_SEG)
#undef ARIESIM_RECORD_SEG
  }
  // Opt-in per-transaction breakdown in the trace stream: one instant per
  // segment, value = accumulated nanoseconds. Compiled out with the rest of
  // the tracer under -DARIESIM_TRACE=OFF.
#define ARIESIM_TRACE_SEG(name)                          \
  ARIES_TRACE_INSTANT("commit.seg." #name, TraceCat::kTxn, \
                      bd.Get(CommitSegment::name));
  ARIESIM_COMMIT_SEGMENTS(ARIESIM_TRACE_SEG)
#undef ARIESIM_TRACE_SEG
}

Status TransactionManager::EndTransaction(Transaction* txn,
                                          TxnState final_state) {
  ARIES_RETURN_NOT_OK(WriteEndAndRelease(txn, final_state));
  Forget(txn->id());
  return Status::OK();
}

Status TransactionManager::WriteEndAndRelease(Transaction* txn,
                                              TxnState final_state) {
  // Publish the outcome before the end record hits the log: a fuzzy
  // checkpoint snapshotting this entry between the end-record append and
  // Forget() must not see a stale kActive for a resolved transaction.
  txn->set_state(final_state);
  // A transaction that logged nothing is invisible to analysis: no end
  // record, and Snapshot() leaves it out of checkpoints.
  if (txn->last_lsn() != kNullLsn) {
    LogRecord end;
    end.type = LogType::kEnd;
    const uint64_t append_start_ns = MonotonicNowNs();
    Status append_status = AppendTxnLog(txn, &end).status();
    AddCommitSegment(CommitSegment::log_append,
                     MonotonicNowNs() - append_start_ns);
    ARIES_RETURN_NOT_OK(append_status);
  }
  locks_->ReleaseAll(txn->id());
  return Status::OK();
}

Status TransactionManager::Rollback(Transaction* txn) {
  ARIES_TRACE_SPAN(span, "txn.rollback", TraceCat::kTxn, txn->id());
  txn->set_state(TxnState::kRollingBack);
  if (txn->last_lsn() != kNullLsn) {
    LogRecord abort;
    abort.type = LogType::kAbort;
    ARIES_RETURN_NOT_OK(AppendTxnLog(txn, &abort).status());
    ARIES_RETURN_NOT_OK(recovery_->UndoTransaction(txn, kNullLsn));
  }
  return EndTransaction(txn, TxnState::kAborted);
}

Status TransactionManager::RollbackToSavepoint(Transaction* txn, Lsn savepoint) {
  return recovery_->UndoTransaction(txn, savepoint);
}

Transaction* TransactionManager::AdoptRestored(TxnId id, Lsn last_lsn,
                                               Lsn undo_next_lsn) {
  auto txn = std::make_unique<Transaction>(id);
  txn->set_last_lsn(last_lsn);
  txn->set_undo_next_lsn(undo_next_lsn);
  txn->set_state(TxnState::kRollingBack);
  Transaction* raw = Insert(std::move(txn));
  TxnId next = next_id_.load(std::memory_order_relaxed);
  while (next <= id && !next_id_.compare_exchange_weak(next, id + 1)) {
  }
  return raw;
}

void TransactionManager::Forget(TxnId id) {
  Shard& sh = ShardFor(id);
  decltype(sh.table)::node_type ended;  // freed after the mutex is released
  std::lock_guard<std::mutex> lk(sh.mu);
  ended = sh.table.extract(id);
}

std::vector<TxnTableEntry> TransactionManager::Snapshot() {
  std::array<std::unique_lock<std::mutex>, kShards> locks;
  for (size_t i = 0; i < kShards; ++i) {
    locks[i] = std::unique_lock<std::mutex>(shards_[i].mu);
  }
  std::vector<TxnTableEntry> out;
  for (Shard& sh : shards_) {
    for (auto& [id, txn] : sh.table) {
      // Logged nothing yet: under its shard, any first record it appends
      // lands after the begin-checkpoint, where analysis will find it.
      if (txn->last_lsn() == kNullLsn) continue;
      out.push_back(TxnTableEntry{id, txn->state(), txn->last_lsn(),
                                  txn->undo_next_lsn()});
    }
  }
  return out;
}

Transaction* TransactionManager::Find(TxnId id) {
  Shard& sh = ShardFor(id);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.table.find(id);
  return it == sh.table.end() ? nullptr : it->second.get();
}

}  // namespace ariesim
