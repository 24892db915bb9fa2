#include "record/heap_file.h"

#include "record/heap_page.h"
#include "util/coding.h"

namespace ariesim {

namespace {

Result<Lsn> LogHeap(EngineContext* ctx, Transaction* txn, uint8_t op,
                    PageId page, std::string payload,
                    Lsn clr_undo_next = kNullLsn, bool is_clr = false) {
  LogRecord rec;
  rec.type = is_clr ? LogType::kCompensation : LogType::kUpdate;
  rec.rm = RmId::kHeap;
  rec.op = op;
  rec.page_id = page;
  rec.payload = std::move(payload);
  rec.undo_next_lsn = clr_undo_next;
  return ctx->txns->AppendTxnLog(txn, &rec);
}

}  // namespace

Result<PageId> HeapFile::Create(EngineContext* ctx, ObjectId table_id,
                                Transaction* txn) {
  ARIES_ASSIGN_OR_RETURN(PageId pid, ctx->space->AllocatePage(txn));
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx->pool->FetchPage(pid, LatchMode::kExclusive));
  ARIES_ASSIGN_OR_RETURN(
      Lsn lsn, LogHeap(ctx, txn, heap::kOpFormat, pid, heap::EncodeFormat(table_id)));
  ARIES_RETURN_NOT_OK(heap::Apply(heap::kOpFormat, heap::EncodeFormat(table_id),
                                  page.view()));
  page.MarkDirty(lsn);
  return pid;
}

Result<Rid> HeapFile::TryInsertOnPage(Transaction* txn, PageId pid,
                                      std::string_view record, bool* page_full) {
  *page_full = false;
  // At page/table granularity the data lock is coarse and may be contended:
  // take it unconditionally *before* latching (never wait for a lock under
  // a latch). At record granularity fresh-RID locks are uncontended and the
  // per-slot conditional requests below suffice.
  if (ctx_->options.lock_granularity != LockGranularity::kRecord) {
    ARIES_RETURN_NOT_OK(ctx_->locks->Lock(
        txn->id(),
        DataLockName(ctx_->options.lock_granularity, table_id_, Rid{pid, 0}),
        LockMode::kX, LockDuration::kCommit, /*conditional=*/false));
  }
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx_->pool->FetchPage(pid, LatchMode::kExclusive));
  PageView v = page.view();
  if (v.type() != PageType::kHeap || v.owner_id() != table_id_) {
    return Status::Corruption("heap chain page " + std::to_string(pid) +
                              " has wrong type/owner");
  }
  // Prefer reclaiming a committed tombstone: conditional X lock on the RID
  // proves the deleter is gone.
  uint16_t slot = v.slot_count();
  bool reuse = false;
  for (uint16_t i = 0; i < v.slot_count(); ++i) {
    if (!v.SlotTombstoned(i)) continue;
    Rid cand{pid, i};
    LockName name = DataLockName(ctx_->options.lock_granularity, table_id_, cand);
    // If WE already hold the X lock, the tombstone is (or may be) our own
    // uncommitted delete: reclaiming it would purge the old record's bytes
    // and make the delete impossible to undo. Skip it.
    if (ctx_->locks->Holds(txn->id(), name, LockMode::kX)) continue;
    // Otherwise a granted conditional X lock proves the deleter committed.
    Status ls = ctx_->locks->Lock(txn->id(), name, LockMode::kX,
                                  LockDuration::kCommit, /*conditional=*/true);
    if (ls.ok()) {
      slot = i;
      reuse = true;
      break;
    }
    if (!ls.IsBusy()) return ls;
  }
  if (!reuse) {
    // Fresh slot: space check. Tombstone reclamation freed nothing here.
    if (v.FreeSpaceForNewCell() < record.size() || v.slot_count() >= 0x7FFE) {
      *page_full = true;
      return Status::NoSpace();
    }
    Rid rid{pid, slot};
    // Lock the fresh RID. Nobody can contend (slot does not exist yet), but
    // the lock must exist before the insert becomes visible.
    Status ls = ctx_->locks->Lock(
        txn->id(), DataLockName(ctx_->options.lock_granularity, table_id_, rid),
        LockMode::kX, LockDuration::kCommit, /*conditional=*/true);
    if (!ls.ok()) return ls;
  } else {
    // Reused slot: after purge the old cell's bytes come back and no new
    // slot entry is needed, so the record must fit in raw free bytes plus
    // the reclaimed cell. FreeSpaceForNewCell() is wrong here: its zero
    // floor hides a deficit smaller than kSlotSize and would let us log an
    // insert that Apply() cannot place — an orphan record that poisons redo.
    size_t reclaim = v.SlotLen(slot);
    if (v.ContiguousFree() + v.FragmentedFree() + reclaim < record.size()) {
      *page_full = true;
      return Status::NoSpace();
    }
  }
  Rid rid{pid, slot};
  std::string payload = heap::EncodeInsert(slot, record);
  ARIES_ASSIGN_OR_RETURN(Lsn lsn, LogHeap(ctx_, txn, heap::kOpInsert, pid, payload));
  Status as = heap::Apply(heap::kOpInsert, payload, v);
  if (!as.ok()) return as;
  page.MarkDirty(lsn);
  return rid;
}

Result<PageId> HeapFile::ExtendChain(Transaction* txn, PageId last) {
  // The chain extension is a nested top action: once the new page is linked
  // in, other transactions may insert into it, so a rollback of *this*
  // transaction must not unlink it (paper §1.2 nested top actions). The X
  // latches on `last` and on the new page are held until the dummy CLR that
  // closes the NTA is appended: the link is what makes the page reachable,
  // so every record another transaction writes there follows the dummy CLR
  // in the log. Otherwise a crash between an inserter's durable commit and
  // the dummy CLR would leave the NTA incomplete, and restart undo would
  // unlink and unformat the page under the committed record.
  ARIES_ASSIGN_OR_RETURN(PageGuard tail,
                         ctx_->pool->FetchPage(last, LatchMode::kExclusive));
  // Another inserter extended the chain while we waited for the latch.
  if (tail.view().next_page() != kInvalidPageId) return tail.view().next_page();
  txn->BeginNta();
  PageGuard page;
  auto body = [&]() -> Result<PageId> {
    ARIES_ASSIGN_OR_RETURN(PageId fresh, ctx_->space->AllocatePage(txn));
    ARIES_ASSIGN_OR_RETURN(page,
                           ctx_->pool->FetchPage(fresh, LatchMode::kExclusive));
    std::string payload = heap::EncodeFormat(table_id_);
    ARIES_ASSIGN_OR_RETURN(Lsn lsn,
                           LogHeap(ctx_, txn, heap::kOpFormat, fresh, payload));
    ARIES_RETURN_NOT_OK(heap::Apply(heap::kOpFormat, payload, page.view()));
    page.MarkDirty(lsn);
    payload = heap::EncodeSetNext(kInvalidPageId, fresh);
    ARIES_ASSIGN_OR_RETURN(lsn,
                           LogHeap(ctx_, txn, heap::kOpSetNext, last, payload));
    ARIES_RETURN_NOT_OK(heap::Apply(heap::kOpSetNext, payload, tail.view()));
    tail.MarkDirty(lsn);
    return fresh;
  };
  auto res = body();
  ARIES_RETURN_NOT_OK(ctx_->txns->EndNta(txn));
  return res;
}

// Locate the last page of the chain without walking it front-to-back:
// probe backward from the highest allocated page for a heap page of this
// table with no successor. The chain tail is almost always among the most
// recently allocated pages, so a cold start touches O(1) pages instead of
// fetching (and, under instant restart, lazily replaying) every page in
// the chain. The IsAllocated check rejects stale images of freed pages;
// finding nothing just means the caller walks the chain as before.
PageId HeapFile::FindChainTail() {
  auto highest = ctx_->space->HighestAllocated();
  if (!highest.ok()) return kInvalidPageId;
  for (PageId pid = highest.value() + 1; pid-- > kSpaceMapPages;) {
    auto alloc = ctx_->space->IsAllocated(pid);
    if (!alloc.ok() || !alloc.value()) continue;
    auto page = ctx_->pool->FetchPage(pid, LatchMode::kShared);
    if (!page.ok()) continue;
    PageView v = page.value().view();
    if (v.type() == PageType::kHeap && v.owner_id() == table_id_ &&
        v.next_page() == kInvalidPageId) {
      return pid;
    }
  }
  return kInvalidPageId;
}

Result<Rid> HeapFile::Insert(Transaction* txn, std::string_view record) {
  if (record.size() > ctx_->options.page_size / 2) {
    return Status::InvalidArgument("record larger than half a page");
  }
  PageId pid;
  bool warmed;
  {
    std::lock_guard<std::mutex> lk(hint_mu_);
    pid = insert_hint_;
    warmed = hint_warmed_;
  }
  if (!warmed) {
    // Cold hint (fresh open): jump to the chain tail. The warm hint never
    // moves backward either, so this does not change the reuse policy —
    // it only skips the one-time full-chain walk after a restart.
    PageId tail = FindChainTail();
    std::lock_guard<std::mutex> lk(hint_mu_);
    hint_warmed_ = true;
    if (tail != kInvalidPageId) insert_hint_ = tail;
    pid = insert_hint_;
  }
  PageId prev = kInvalidPageId;
  for (int hops = 0; hops < 1 << 20; ++hops) {
    bool page_full = false;
    auto res = TryInsertOnPage(txn, pid, record, &page_full);
    if (res.ok()) {
      std::lock_guard<std::mutex> lk(hint_mu_);
      insert_hint_ = pid;
      return res;
    }
    if (!res.status().IsNoSpace()) return res;
    // Walk the chain; extend at the end.
    PageId next;
    {
      ARIES_ASSIGN_OR_RETURN(PageGuard page,
                             ctx_->pool->FetchPage(pid, LatchMode::kShared));
      next = page.view().next_page();
    }
    prev = pid;
    if (next == kInvalidPageId) {
      ARIES_ASSIGN_OR_RETURN(next, ExtendChain(txn, prev));
    }
    pid = next;
  }
  return Status::Corruption("heap chain walk did not terminate");
}

Status HeapFile::Delete(Transaction* txn, Rid rid) {
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx_->pool->FetchPage(rid.page_id, LatchMode::kExclusive));
  PageView v = page.view();
  if (v.type() != PageType::kHeap || rid.slot >= v.slot_count() ||
      v.SlotDead(rid.slot) || v.SlotTombstoned(rid.slot)) {
    return Status::NotFound("no record at " + rid.ToString());
  }
  std::string payload = heap::EncodeDelete(rid.slot, v.Cell(rid.slot));
  ARIES_ASSIGN_OR_RETURN(Lsn lsn,
                         LogHeap(ctx_, txn, heap::kOpDelete, rid.page_id, payload));
  ARIES_RETURN_NOT_OK(heap::Apply(heap::kOpDelete, payload, v));
  page.MarkDirty(lsn);
  return Status::OK();
}

Result<std::string> HeapFile::Fetch(Rid rid) {
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx_->pool->FetchPage(rid.page_id, LatchMode::kShared));
  PageView v = page.view();
  if (v.type() != PageType::kHeap || rid.slot >= v.slot_count() ||
      v.SlotDead(rid.slot) || v.SlotTombstoned(rid.slot)) {
    return Status::NotFound("no record at " + rid.ToString());
  }
  return std::string(v.Cell(rid.slot));
}

Status HeapFile::Update(Transaction* txn, Rid rid, std::string_view record) {
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx_->pool->FetchPage(rid.page_id, LatchMode::kExclusive));
  PageView v = page.view();
  if (v.type() != PageType::kHeap || rid.slot >= v.slot_count() ||
      v.SlotDead(rid.slot) || v.SlotTombstoned(rid.slot)) {
    return Status::NotFound("no record at " + rid.ToString());
  }
  // A growing update frees the old cell and reallocates; make sure the new
  // record fits *before* logging, so the logged update is always applicable.
  if (record.size() > v.SlotLen(rid.slot) &&
      v.ContiguousFree() + v.FragmentedFree() + v.SlotLen(rid.slot) <
          record.size()) {
    return Status::NoSpace();
  }
  std::string payload = heap::EncodeUpdate(rid.slot, v.Cell(rid.slot), record);
  ARIES_ASSIGN_OR_RETURN(Lsn lsn,
                         LogHeap(ctx_, txn, heap::kOpUpdate, rid.page_id, payload));
  ARIES_RETURN_NOT_OK(heap::Apply(heap::kOpUpdate, payload, v));
  page.MarkDirty(lsn);
  return Status::OK();
}

Status HeapFile::ScanAll(std::vector<std::pair<Rid, std::string>>* out) {
  PageId pid = first_page_;
  while (pid != kInvalidPageId) {
    ARIES_ASSIGN_OR_RETURN(PageGuard page,
                           ctx_->pool->FetchPage(pid, LatchMode::kShared));
    PageView v = page.view();
    for (uint16_t i = 0; i < v.slot_count(); ++i) {
      if (v.SlotDead(i) || v.SlotTombstoned(i)) continue;
      out->emplace_back(Rid{pid, i}, std::string(v.Cell(i)));
    }
    pid = v.next_page();
  }
  return Status::OK();
}

}  // namespace ariesim
