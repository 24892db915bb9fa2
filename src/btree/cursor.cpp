// Range scans: Fetch (open) + Fetch Next (paper §2.2, §2.3).
//
// The cursor remembers the leaf holding the current key and that leaf's
// page LSN. Fetch Next latches the remembered leaf and, if its LSN is
// unchanged since the last positioning, advances in place from the
// remembered slot (no search of the leaf); otherwise it
// repositions with a fresh traversal (the current key may have been deleted
// by this very transaction, or the leaf may have split). Repositioning goes
// through TraverseToLeafRead, the latch-coupled read descent. The located
// next key is locked S for commit duration before the stopping condition is
// evaluated.
#include "btree/btree.h"
#include "btree/search_internal.h"

namespace ariesim {

using btinternal::NextSearch;
using btinternal::SearchForward;

Status BTree::OpenScan(Transaction* txn, std::string_view value, FetchCond cond,
                       ScanCursor* cursor, FetchResult* first) {
  *cursor = ScanCursor();
  ARIES_RETURN_NOT_OK(Fetch(txn, value, cond, first));
  cursor->open = true;
  if (first->eof || (!first->found && cond == FetchCond::kEq)) {
    // Positioned at EOF or at a non-matching key: for kEq the scan is
    // complete; for ranges an EOF means an empty result.
    if (first->eof) {
      cursor->at_eof = true;
      return Status::OK();
    }
  }
  if (!first->eof) {
    cursor->last_value = first->value;
    cursor->last_rid = first->rid;
  }
  return Status::OK();
}

Status BTree::SetStop(ScanCursor* cursor, std::string_view stop_value,
                      bool inclusive) {
  cursor->has_stop = true;
  cursor->stop_value.assign(stop_value);
  cursor->stop_inclusive = inclusive;
  return Status::OK();
}

namespace {
bool PastStop(const ScanCursor& c, std::string_view value) {
  if (!c.has_stop) return false;
  int cmp = value.compare(c.stop_value);
  return c.stop_inclusive ? cmp > 0 : cmp >= 0;
}
}  // namespace

Status BTree::FetchNext(Transaction* txn, ScanCursor* cursor, FetchResult* out) {
  if (!cursor->open) return Status::InvalidArgument("cursor not open");
  out->found = false;
  out->eof = false;
  if (cursor->at_eof) {
    out->eof = true;
    return Status::OK();
  }
  // §2.3 shortcut: "If the current cursor position already satisfies the
  // stopping key specification (unique index and a stopping condition of
  // =), then Fetch Next returns right away … with a not found status" — no
  // latch, no lock.
  if (unique_ && cursor->has_stop && cursor->stop_inclusive &&
      cursor->last_value == cursor->stop_value) {
    cursor->at_eof = true;
    return Status::OK();
  }
  for (int attempt = 0; attempt < 10000; ++attempt) {
    // Latch the leaf the cursor is positioned on; the remembered LSN tells
    // us whether in-place advancement is safe (paper §2.3).
    PageGuard leaf;
    bool have_leaf = false;
    if (cursor->leaf != kInvalidPageId) {
      auto res = ctx_->pool->FetchPage(cursor->leaf, LatchMode::kShared);
      if (res.ok()) {
        leaf = std::move(res).value();
        PageView v = leaf.view();
        if (v.owner_id() == index_id_ && v.type() == PageType::kBtreeLeaf &&
            v.page_lsn() == cursor->leaf_lsn) {
          have_leaf = true;
        } else {
          leaf.Release();
        }
      }
    }
    if (!have_leaf) {
      ARIES_RETURN_NOT_OK(
          TraverseToLeafRead(cursor->last_value, cursor->last_rid, &leaf));
    }
    // On the unchanged leaf the cursor's key is still at `pos`.
    NextSearch next;
    Status s = SearchForward(ctx_, index_id_, leaf, cursor->last_value,
                             cursor->last_rid, /*exclusive=*/true, &next,
                             have_leaf ? cursor->pos + 1 : -1);
    if (s.IsRetry()) {
      leaf.Release();
      WaitForSmo();
      continue;
    }
    ARIES_RETURN_NOT_OK(s);

    IndexKeyRef key = next.eof ? IndexKeyRef::Eof()
                               : IndexKeyRef::Of(next.value, next.rid);
    Status ls = proto_->LockFetchCurrent(txn, key, /*conditional=*/true);
    if (ls.IsBusy()) {
      PageGuard& holder = next.chain_guard.valid() ? next.chain_guard : leaf;
      Lsn noted = holder.view().page_lsn();
      PageId holder_id = holder.page_id();
      next.chain_guard.Release();
      leaf.Release();
      ARIES_RETURN_NOT_OK(
          proto_->LockFetchCurrent(txn, key, /*conditional=*/false));
      ARIES_ASSIGN_OR_RETURN(
          PageGuard check, ctx_->pool->FetchPage(holder_id, LatchMode::kShared));
      bool unchanged = check.view().page_lsn() == noted;
      check.Release();
      if (!unchanged) continue;  // reposition; retained lock is harmless
      if (next.eof) {
        cursor->at_eof = true;
        out->eof = true;
        return Status::OK();
      }
      if (PastStop(*cursor, next.value)) {
        cursor->at_eof = true;
        return Status::OK();  // found=false: range exhausted
      }
      cursor->last_value = next.value;
      cursor->last_rid = next.rid;
      cursor->leaf = holder_id;
      cursor->leaf_lsn = noted;
      cursor->pos = next.pos;
      out->found = true;
      out->value = std::move(next.value);
      out->rid = next.rid;
      return Status::OK();
    }
    ARIES_RETURN_NOT_OK(ls);
    if (next.eof) {
      cursor->at_eof = true;
      out->eof = true;
      return Status::OK();
    }
    if (PastStop(*cursor, next.value)) {
      cursor->at_eof = true;
      return Status::OK();
    }
    PageGuard& holder = next.chain_guard.valid() ? next.chain_guard : leaf;
    cursor->leaf = holder.page_id();
    cursor->leaf_lsn = holder.view().page_lsn();
    cursor->pos = next.pos;
    cursor->last_value = next.value;
    cursor->last_rid = next.rid;
    out->found = true;
    out->value = std::move(next.value);
    out->rid = next.rid;
    return Status::OK();
  }
  return Status::Corruption("fetch next did not settle");
}

}  // namespace ariesim
