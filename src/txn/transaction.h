// Transaction object: log-chain anchors (LastLSN / UndoNxtLSN), state,
// savepoints, and nested-top-action bracketing (paper §1.2). Objects are
// slots that TransactionManager recycles from one transaction to the next.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/commit_breakdown.h"
#include "common/types.h"

namespace ariesim {

enum class TxnState : uint8_t {
  kActive = 0,
  kRollingBack = 1,
  kCommitted = 2,
  kAborted = 3,
};

class alignas(64) Transaction {
 public:
  TxnId id() const { return id_.load(std::memory_order_relaxed); }
  // Id, state and chain anchors are relaxed atomics: only the owning thread
  // mutates them, but fuzzy checkpoints (TransactionManager::Snapshot) read
  // them concurrently. Analysis tolerates a stale value by re-checking the
  // log record a snapshotted LastLSN points at.
  TxnState state() const { return state_.load(std::memory_order_relaxed); }
  void set_state(TxnState s) { state_.store(s, std::memory_order_relaxed); }

  /// LSN of the most recent log record written by this transaction.
  Lsn last_lsn() const { return last_lsn_.load(std::memory_order_relaxed); }
  void set_last_lsn(Lsn lsn) {
    last_lsn_.store(lsn, std::memory_order_relaxed);
  }

  /// LSN of the next record to process during rollback (skips over
  /// already-compensated suffixes and completed nested top actions).
  Lsn undo_next_lsn() const {
    return undo_next_lsn_.load(std::memory_order_relaxed);
  }
  void set_undo_next_lsn(Lsn lsn) {
    undo_next_lsn_.store(lsn, std::memory_order_relaxed);
  }

  /// Establish a savepoint: rollback-to returns the transaction to the
  /// state as of this point.
  Lsn Savepoint() const { return last_lsn(); }

  // -- nested top actions -----------------------------------------------
  /// Remember the LSN the eventual dummy CLR must point at (paper Fig 8:
  /// "Remember LSN of last log record of transaction").
  void BeginNta() { nta_stack_.push_back(last_lsn()); }
  /// Anchor the NTA at an explicit LSN. Needed when an SMO runs during
  /// rollback *before* the CLR of the record being undone is written (e.g.
  /// a page split making room for the undo of a key delete): if a failure
  /// hits after the dummy CLR but before that CLR, restart undo must resume
  /// at the record being undone, not skip it.
  void BeginNtaAt(Lsn anchor) { nta_stack_.push_back(anchor); }
  Lsn PopNta() {
    Lsn lsn = nta_stack_.back();
    nta_stack_.pop_back();
    return lsn;
  }
  bool InNta() const { return !nta_stack_.empty(); }

  /// Commit critical-path attribution accumulator (PR 9). Written through
  /// the owning thread's TLS binding (common/commit_breakdown.h) while the
  /// transaction runs; harvested into the commit_seg_* histograms by
  /// TransactionManager::Commit. Only mutated by the owning thread.
  CommitBreakdown& breakdown() { return breakdown_; }
  const CommitBreakdown& breakdown() const { return breakdown_; }

 private:
  friend class TransactionManager;
  /// Ready a claimed slot for transaction `id`.
  void Reset(TxnId id) {
    id_.store(id, std::memory_order_relaxed);
    set_state(TxnState::kActive);
    set_last_lsn(kNullLsn);
    set_undo_next_lsn(kNullLsn);
    nta_stack_.clear();
    breakdown_.Reset();
  }

  /// Set while a transaction runs in this slot; claimed by CAS.
  std::atomic<bool> in_use_{false};
  /// Makes the {log append, LastLSN update} pair atomic against Snapshot().
  std::mutex mu_;
  std::atomic<TxnId> id_{kInvalidTxnId};
  std::atomic<TxnState> state_{TxnState::kActive};
  std::atomic<Lsn> last_lsn_{kNullLsn};
  std::atomic<Lsn> undo_next_lsn_{kNullLsn};
  std::vector<Lsn> nta_stack_;
  CommitBreakdown breakdown_;
};

}  // namespace ariesim
