// Heap file: a chain of slotted data pages holding a table's records.
// Records are addressed by stable RIDs. Slot reuse is guarded by the
// data-only locking discipline: a tombstoned slot may be reclaimed only
// after the would-be inserter wins a conditional X lock on its RID, which
// proves the old delete committed (paper §2.1 — the key lock *is* the
// record lock, so a still-rollback-able delete keeps its RID locked).
#pragma once

#include <mutex>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/context.h"
#include "common/status.h"
#include "lock/lock_manager.h"
#include "storage/space_manager.h"
#include "txn/transaction_manager.h"

namespace ariesim {

class HeapFile {
 public:
  /// `first_page` must already exist (Create) or be the page to adopt. A
  /// `fresh` heap (created this incarnation) has its tail at `first_page`.
  HeapFile(EngineContext* ctx, ObjectId table_id, PageId first_page,
           bool fresh = false)
      : ctx_(ctx), table_id_(table_id), first_page_(first_page),
        insert_hint_(first_page), hint_warmed_(fresh) {}

  /// Allocate and format the first page of a new heap (logged under `txn`).
  static Result<PageId> Create(EngineContext* ctx, ObjectId table_id,
                               Transaction* txn);

  ObjectId table_id() const { return table_id_; }
  PageId first_page() const { return first_page_; }

  /// Insert a record; acquires the commit-duration X lock on the chosen RID
  /// (under the page latch, conditionally — a denial just means the slot
  /// cannot be reused yet and another slot/page is chosen).
  Result<Rid> Insert(Transaction* txn, std::string_view record);

  /// Delete the record at `rid`. The caller must already hold the X lock.
  Status Delete(Transaction* txn, Rid rid);

  /// Read the record at `rid`. Does not lock (locking is the caller's
  /// responsibility per the data-only protocol).
  Result<std::string> Fetch(Rid rid);

  /// Replace the record at `rid` (same-size-class; may fail kNoSpace).
  Status Update(Transaction* txn, Rid rid, std::string_view record);

  /// Scan every live record (test / verification helper).
  Status ScanAll(std::vector<std::pair<Rid, std::string>>* out);

 private:
  Result<Rid> TryInsertOnPage(Transaction* txn, PageId pid,
                              std::string_view record, bool* page_full);
  Result<PageId> ExtendChain(Transaction* txn, PageId last);
  PageId FindChainTail();

  EngineContext* ctx_;
  ObjectId table_id_;
  PageId first_page_;
  std::mutex hint_mu_;
  PageId insert_hint_;
  bool hint_warmed_;  ///< guarded by hint_mu_; set after tail probe
};

}  // namespace ariesim
