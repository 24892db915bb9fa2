#include "btree/btree.h"

#include <chrono>
#include <optional>
#include <thread>

#include "btree/search_internal.h"
#include "common/clock.h"
#include "common/commit_breakdown.h"
#include "common/trace.h"

namespace ariesim {

namespace {
constexpr int kMaxRestarts = 10000;

// Attempt count past which a restart loop starts backing off.
constexpr int kBackoffAfterAttempts = 8;

/// Bounded randomized backoff between traversal restarts.
///
/// Repeated conditional-lock denials can livelock: N transactions inserting
/// around the same hot key each fail the conditional next-key lock because
/// the *other* transactions' unconditional instant-duration waiters sit in
/// the queue, then enqueue their own unconditional request (keeping the
/// queue non-empty for everyone else), get granted, restart, and fail the
/// conditional probe again. The queue never drains long enough for any
/// thread's conditional request to succeed (see docs/OBSERVABILITY.md,
/// "Case study"). Desynchronizing the restarts with a short randomized
/// sleep breaks the convoy. Never called while holding the tree latch.
void RestartBackoff(int attempt, Metrics* metrics) {
  if (attempt < kBackoffAfterAttempts) return;
  static thread_local uint64_t rng =
      0x9e3779b97f4a7c15ull ^
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  int shift = attempt - kBackoffAfterAttempts;
  if (shift > 7) shift = 7;
  uint64_t cap_us = 4ull << shift;  // 4us doubling to a 512us ceiling
  if (metrics != nullptr) {
    metrics->btree_backoffs.fetch_add(1, std::memory_order_relaxed);
  }
  // The backoff sleep is restart wait from the transaction's point of
  // view: charge it to the latch_wait commit-breakdown segment.
  ScopedCommitSegment seg(CommitSegment::latch_wait);
  std::this_thread::sleep_for(std::chrono::microseconds(1 + rng % cap_us));
}

}  // namespace

Result<PageId> BTree::CreateRoot(EngineContext* ctx, Transaction* txn,
                                 ObjectId index_id) {
  ARIES_ASSIGN_OR_RETURN(PageId root, ctx->space->AllocatePage(txn));
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx->pool->FetchPage(root, LatchMode::kExclusive));
  std::string payload = bt::EncodeFormat(index_id, PageType::kBtreeLeaf,
                                         /*level=*/0, /*sm=*/false,
                                         kInvalidPageId, kInvalidPageId, {});
  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.rm = RmId::kBtree;
  rec.op = bt::kOpFormat;
  rec.page_id = root;
  rec.payload = payload;
  ARIES_ASSIGN_OR_RETURN(Lsn lsn, ctx->txns->AppendTxnLog(txn, &rec));
  ARIES_RETURN_NOT_OK(bt::Apply(bt::kOpFormat, payload, page.view()));
  page.MarkDirty(lsn);
  return root;
}

Result<Lsn> BTree::LogKeyOp(Transaction* txn, uint8_t op, PageId page,
                            std::string_view value, Rid rid,
                            bool set_delete_bit, bool clr, Lsn undo_next) {
  LogRecord rec;
  rec.type = clr ? LogType::kCompensation : LogType::kUpdate;
  rec.rm = RmId::kBtree;
  rec.op = op;
  rec.page_id = page;
  rec.payload = bt::EncodeKeyOp(index_id_, value, rid, set_delete_bit);
  rec.undo_next_lsn = undo_next;
  return ctx_->txns->AppendTxnLog(txn, &rec);
}

void BTree::WaitForSmo() {
  if (ctx_->metrics != nullptr) {
    ctx_->metrics->smo_waits.fetch_add(1, std::memory_order_relaxed);
    ctx_->metrics->tree_latch_acquisitions.fetch_add(1, std::memory_order_relaxed);
  }
  ARIES_TRACE_SPAN(span, "bt.smo_wait", TraceCat::kBtree, index_id_);
  tree_latch_.LockInstant(LatchMode::kShared);
}

void BTree::LockTreeExclusiveCounted() {
  bool waited = !tree_latch_.TryLockExclusive();
  if (waited) {
    // Contended path only: the uncontended TryLock above stays clock-free.
    const uint64_t wait_start_ns = MonotonicNowNs();
    ARIES_TRACE_SPAN(span, "bt.tree_latch_wait", TraceCat::kBtree, index_id_);
    tree_latch_.LockExclusive();
    const uint64_t waited_ns = MonotonicNowNs() - wait_start_ns;
    if (ctx_->metrics != nullptr) {
      ctx_->metrics->latch_wait_latency.Record(waited_ns);
    }
    AddCommitSegment(CommitSegment::latch_wait, waited_ns);
  }
  if (ctx_->metrics != nullptr) {
    if (waited) {
      ctx_->metrics->tree_latch_waits.fetch_add(1, std::memory_order_relaxed);
    }
    ctx_->metrics->tree_latch_acquisitions.fetch_add(1,
                                                     std::memory_order_relaxed);
  }
  tree_x_acquired_ns_.store(MonotonicNowNs(), std::memory_order_relaxed);
}

void BTree::UnlockTreeExclusiveCounted() {
  if (ctx_->metrics != nullptr) {
    uint64_t start = tree_x_acquired_ns_.load(std::memory_order_relaxed);
    if (start != 0) {
      ctx_->metrics->tree_latch_hold_latency.Record(MonotonicNowNs() - start);
    }
  }
  tree_latch_.UnlockExclusive();
}

Status BTree::TraverseToLeaf(std::string_view value, Rid rid, bool for_modify,
                             PageGuard* leaf, bool tree_latch_held) {
  ARIES_TRACE_SPAN(span, "bt.traverse", TraceCat::kBtree, index_id_);
  for (int restart = 0; restart < kMaxRestarts; ++restart) {
    if (restart > 0 && ctx_->metrics != nullptr) {
      ctx_->metrics->traversal_restarts.fetch_add(1, std::memory_order_relaxed);
    }
    ARIES_ASSIGN_OR_RETURN(PageGuard cur,
                           ctx_->pool->FetchPage(root_, LatchMode::kShared));
    bool descend_failed = false;
    while (true) {
      PageView v = cur.view();
      if (v.owner_id() != index_id_ ||
          (v.type() != PageType::kBtreeLeaf &&
           v.type() != PageType::kBtreeInternal)) {
        // Mid-SMO state (e.g. the page was freed and reused): wait + restart.
        if (tree_latch_held) {
          return Status::Corruption("invalid page reachable under tree latch");
        }
        cur.Release();
        WaitForSmo();
        descend_failed = true;
        break;
      }
      if (v.type() == PageType::kBtreeInternal) {
        // Figure 4: "nonempty child & ((input key <= highest key in child)
        // OR ((input key > highest key in child) & SM_Bit='0'))".
        // With the tree latch held X by this thread, any SM_Bit is a stale
        // leftover of a completed SMO and is ignored.
        bool ambiguous =
            v.slot_count() == 0 ||
            (!tree_latch_held && v.sm_bit() &&
             !bt::KeyWithinHighest(v, value, rid));
        if (ambiguous) {
          if (tree_latch_held) {
            return Status::Corruption("empty internal page under tree latch");
          }
          bool stale_bit = v.sm_bit();
          PageId id = cur.page_id();
          cur.Release();
          bool cleared = false;
          if (stale_bit) {
            // The bit may be a stale leftover (the optional reset lost in a
            // crash). Verify under the page's X latch: with it held, a
            // successful conditional tree-latch probe proves no SMO is in
            // progress AND none can touch this page before the clear — the
            // same ordering EnsureNoSmo relies on (Figures 6/7). Probing
            // before latching the page would race a just-started SMO
            // setting the bit.
            auto xres = ctx_->pool->FetchPage(id, LatchMode::kExclusive);
            if (xres.ok()) {
              PageGuard xg = std::move(xres).value();
              if (xg.view().owner_id() == index_id_ && xg.view().sm_bit() &&
                  tree_latch_.TryLockShared()) {
                tree_latch_.UnlockShared();
                xg.view().set_sm_bit(false);
                cleared = true;
              }
            }
          }
          if (!cleared) WaitForSmo();
          descend_failed = true;
          break;
        }
        uint16_t ci = bt::InternalChildIndex(v, value, rid);
        if (ci >= v.slot_count()) {
          cur.Release();
          WaitForSmo();
          descend_failed = true;
          break;
        }
        bt::InternalEntry e = bt::DecodeInternalCell(v.Cell(ci));
        uint8_t expected_level = static_cast<uint8_t>(v.level() - 1);
        LatchMode child_mode =
            (expected_level == 0 && for_modify) ? LatchMode::kExclusive
                                                : LatchMode::kShared;
        auto child_res = ctx_->pool->FetchPage(e.child, child_mode);
        if (!child_res.ok()) return child_res.status();
        PageGuard child = std::move(child_res).value();
        cur.Release();  // latch coupling: parent released after child latched
        PageView cv = child.view();
        if (cv.owner_id() != index_id_ || cv.level() != expected_level ||
            (expected_level == 0 && cv.type() != PageType::kBtreeLeaf) ||
            (expected_level != 0 && cv.type() != PageType::kBtreeInternal)) {
          if (tree_latch_held) {
            return Status::Corruption("stale child reachable under tree latch");
          }
          child.Release();
          WaitForSmo();
          descend_failed = true;
          break;
        }
        cur = std::move(child);
        continue;
      }
      // Leaf.
      if (for_modify && cur.mode() == LatchMode::kShared) {
        // root == leaf arrived under S; upgrade by re-latching and re-running
        // the validation loop.
        PageId id = cur.page_id();
        cur.Release();
        ARIES_ASSIGN_OR_RETURN(cur,
                               ctx_->pool->FetchPage(id, LatchMode::kExclusive));
        continue;
      }
      *leaf = std::move(cur);
      return Status::OK();
    }
    if (descend_failed) continue;
  }
  return Status::Corruption("btree traversal did not settle (index " +
                            std::to_string(index_id_) + ")");
}

Status BTree::TraverseToLeafRead(std::string_view value, Rid rid,
                                 PageGuard* leaf) {
  const uint64_t start_ns = MonotonicNowNs();
  Status s = TraverseToLeaf(value, rid, /*for_modify=*/false, leaf);
  if (ctx_->metrics != nullptr) {
    ctx_->metrics->read_descent_latency.Record(MonotonicNowNs() - start_ns);
  }
  return s;
}

Status BTree::TraversePath(std::string_view value, Rid rid,
                           std::vector<PageId>* path) {
  // Only called with the tree latch held X: the structure cannot change.
  path->clear();
  PageId cur = root_;
  while (true) {
    ARIES_ASSIGN_OR_RETURN(PageGuard page,
                           ctx_->pool->FetchPage(cur, LatchMode::kShared));
    PageView v = page.view();
    if (v.owner_id() != index_id_) {
      return Status::Corruption("TraversePath: wrong owner on page " +
                                std::to_string(cur));
    }
    path->push_back(cur);
    if (v.type() == PageType::kBtreeLeaf) return Status::OK();
    if (v.slot_count() == 0) {
      return Status::Corruption("TraversePath: empty internal page " +
                                std::to_string(cur));
    }
    uint16_t ci = bt::InternalChildIndex(v, value, rid);
    if (ci >= v.slot_count()) {
      return Status::Corruption("TraversePath: no routing entry");
    }
    cur = bt::DecodeInternalCell(v.Cell(ci)).child;
  }
}

Status BTree::EnsureNoSmo(PageGuard& leaf, bool clear_delete_bit,
                          bool tree_latch_held) {
  PageView v = leaf.view();
  bool blocked = v.sm_bit() || (clear_delete_bit && v.delete_bit());
  if (!blocked) return Status::OK();
  if (!tree_latch_held) {
    // Conditional instant S on the tree latch under the held leaf X latch
    // (Figures 6/7). Success proves no SMO is in progress anywhere in this
    // tree, establishing a POSC; the bits can then be reset.
    if (!tree_latch_.TryLockShared()) {
      leaf.Release();
      WaitForSmo();
      return Status::Retry("ensure-no-smo");
    }
    tree_latch_.UnlockShared();
    if (ctx_->metrics != nullptr) {
      ctx_->metrics->tree_latch_acquisitions.fetch_add(1,
                                                       std::memory_order_relaxed);
    }
  }
  // Bits are advisory once the SMO that set them completed; clearing is
  // unlogged (stale bits reappear after a crash and self-heal the same way).
  v.set_sm_bit(false);
  if (clear_delete_bit) v.set_delete_bit(false);
  return Status::OK();
}

namespace btinternal {

Status SearchForward(EngineContext* ctx, ObjectId index_id, PageGuard& leaf,
                     std::string_view value, Rid rid, bool exclusive,
                     NextSearch* out, int from) {
  constexpr int kMaxRestarts = 10000;
  PageView v = leaf.view();
  bool exact = false;
  uint16_t pos = from >= 0 ? static_cast<uint16_t>(from)
                           : bt::LeafLowerBound(v, value, rid, &exact);
  if (exact && exclusive) ++pos;
  if (pos < v.slot_count()) {
    bt::LeafEntry e = bt::DecodeLeafCell(v.Cell(pos));
    out->eof = false;
    out->value.assign(e.value);
    out->rid = e.rid;
    out->pos = pos;
    out->chain_guard = PageGuard();
    return Status::OK();
  }
  PageId next = v.next_page();
  PageGuard chain;
  for (int hops = 0; hops < kMaxRestarts; ++hops) {
    if (next == kInvalidPageId) {
      out->eof = true;
      out->chain_guard = PageGuard();
      return Status::OK();
    }
    // At most two latches: the operation's leaf plus one chain page — the
    // previous chain page is released before the next one is latched.
    chain.Release();
    auto res = ctx->pool->FetchPage(next, LatchMode::kShared);
    if (!res.ok()) return res.status();
    chain = std::move(res).value();
    PageView cv = chain.view();
    if (cv.owner_id() != index_id || cv.type() != PageType::kBtreeLeaf) {
      return Status::Retry("chain page mid-SMO");
    }
    bool cexact = false;
    uint16_t cpos = bt::LeafLowerBound(cv, value, rid, &cexact);
    if (cexact && exclusive) ++cpos;
    if (cpos < cv.slot_count()) {
      bt::LeafEntry e = bt::DecodeLeafCell(cv.Cell(cpos));
      out->eof = false;
      out->value.assign(e.value);
      out->rid = e.rid;
      out->pos = cpos;
      out->chain_guard = std::move(chain);
      return Status::OK();
    }
    next = cv.next_page();
  }
  return Status::Corruption("leaf chain walk did not terminate");
}

}  // namespace btinternal

using btinternal::NextSearch;
using btinternal::SearchForward;

// ---------------------------------------------------------------------------
// Fetch (Figure 5)
// ---------------------------------------------------------------------------

Status BTree::Fetch(Transaction* txn, std::string_view value, FetchCond cond,
                    FetchResult* out) {
  if (value.size() > MaxValueLen()) {
    return Status::InvalidArgument("key value too long");
  }
  std::optional<LatchGuard> blocker;
  if (ctx_->options.block_traversal_during_smo) {
    blocker.emplace(&tree_latch_, LatchMode::kShared);
  }
  Rid srid = (cond == FetchCond::kGt) ? bt::kMaxRid : Rid{0, 0};
  bool exclusive = (cond == FetchCond::kGt);
  for (int attempt = 0; attempt < kMaxRestarts; ++attempt) {
    if (!blocker.has_value()) RestartBackoff(attempt, ctx_->metrics);
    PageGuard leaf;
    ARIES_RETURN_NOT_OK(TraverseToLeafRead(value, srid, &leaf));
    NextSearch found;
    Status s = SearchForward(ctx_, index_id_, leaf, value, srid, exclusive,
                             &found);
    if (s.IsRetry()) {
      leaf.Release();
      WaitForSmo();
      continue;
    }
    ARIES_RETURN_NOT_OK(s);
    IndexKeyRef key = found.eof ? IndexKeyRef::Eof()
                                : IndexKeyRef::Of(found.value, found.rid);
    // Conditional S lock while holding the latch(es) (Figure 5).
    Status ls = proto_->LockFetchCurrent(txn, key, /*conditional=*/true);
    if (ls.IsBusy()) {
      // Note the LSN of the page holding the found key, release, wait.
      PageGuard& holder = found.chain_guard.valid() ? found.chain_guard : leaf;
      Lsn noted = holder.view().page_lsn();
      PageId holder_id = holder.page_id();
      found.chain_guard.Release();
      leaf.Release();
      ARIES_RETURN_NOT_OK(
          proto_->LockFetchCurrent(txn, key, /*conditional=*/false));
      // Revalidate: if the page did not change, the inference stands.
      ARIES_ASSIGN_OR_RETURN(
          PageGuard check, ctx_->pool->FetchPage(holder_id, LatchMode::kShared));
      bool unchanged = check.view().page_lsn() == noted;
      check.Release();
      if (unchanged) {
        out->eof = found.eof;
        out->found =
            !found.eof &&
            (cond == FetchCond::kEq ? found.value == value
             : cond == FetchCond::kPrefix
                 ? found.value.compare(0, value.size(), value) == 0
                 : true);
        out->value = std::move(found.value);
        out->rid = found.rid;
        return Status::OK();
      }
      continue;  // re-traverse; the retained lock is harmless
    }
    ARIES_RETURN_NOT_OK(ls);
    out->eof = found.eof;
    out->found =
        !found.eof &&
        (cond == FetchCond::kEq ? found.value == value
         : cond == FetchCond::kPrefix
             ? found.value.compare(0, value.size(), value) == 0
             : true);
    out->value = std::move(found.value);
    out->rid = found.rid;
    return Status::OK();
  }
  return Status::Corruption("fetch did not settle");
}

// ---------------------------------------------------------------------------
// Insert (Figure 6)
// ---------------------------------------------------------------------------

Status BTree::Insert(Transaction* txn, std::string_view value, Rid rid) {
  if (value.size() > MaxValueLen()) {
    return Status::InvalidArgument("key value too long");
  }
  std::optional<LatchGuard> blocker;
  bool baseline_x = false;
  if (ctx_->options.block_traversal_during_smo) {
    blocker.emplace(&tree_latch_, LatchMode::kExclusive);
    baseline_x = true;
  }
  for (int attempt = 0; attempt < kMaxRestarts; ++attempt) {
    if (!baseline_x) RestartBackoff(attempt, ctx_->metrics);
    PageGuard leaf;
    ARIES_RETURN_NOT_OK(
        TraverseToLeaf(value, rid, /*for_modify=*/true, &leaf, baseline_x));
    Status s = InsertAtLeaf(txn, std::move(leaf), value, rid, baseline_x);
    if (s.IsRetry()) continue;
    if (s.IsNoSpace()) {
      s = SplitSmoAndInsert(txn, value, rid);
      if (s.IsRetry()) continue;
    }
    return s;
  }
  return Status::Corruption("insert did not settle");
}

Status BTree::InsertAtLeaf(Transaction* txn, PageGuard leaf,
                           std::string_view value, Rid rid,
                           bool tree_latch_held, bool* tree_latch_released) {
  // Release the tree latch (if this thread owns it X) before any
  // unconditional lock wait: locks are never awaited under the tree latch.
  auto drop_tree_latch = [&]() {
    if (tree_latch_held && tree_latch_released != nullptr &&
        !*tree_latch_released) {
      UnlockTreeExclusiveCounted();
      *tree_latch_released = true;
    }
  };
  // SM_Bit / Delete_Bit handling (Figures 6, 11): an insert consumes space,
  // so a POSC must exist before it proceeds.
  Status bs = EnsureNoSmo(leaf, /*clear_delete_bit=*/true, tree_latch_held);
  if (!bs.ok()) return bs;  // kRetry: latches already released

  PageView v = leaf.view();
  bool exact = false;
  bt::LeafLowerBound(v, value, rid, &exact);
  if (exact) {
    return Status::Duplicate("key (value, rid) already present");
  }

  if (unique_) {
    // Position at an equal key value, maybe on a following page (§2.4).
    NextSearch eq;
    Status s =
        SearchForward(ctx_, index_id_, leaf, value, Rid{0, 0}, false, &eq);
    if (s.IsRetry()) {
      leaf.Release();
      if (tree_latch_held) {
        drop_tree_latch();  // never wait on the tree latch we hold
      } else {
        WaitForSmo();
      }
      return Status::Retry("uniq-search");
    }
    ARIES_RETURN_NOT_OK(s);
    if (!eq.eof && eq.value == value) {
      IndexKeyRef existing = IndexKeyRef::Of(eq.value, eq.rid);
      Status ls = proto_->LockUniqueCheck(txn, existing, /*conditional=*/true);
      if (ls.ok()) {
        // Granted under the latch: the key value is committed (or ours) and
        // still present — repeatable unique-violation.
        return Status::Duplicate("unique key violation: value exists");
      }
      if (!ls.IsBusy()) return ls;
      eq.chain_guard.Release();
      leaf.Release();
      drop_tree_latch();
      ARIES_RETURN_NOT_OK(
          proto_->LockUniqueCheck(txn, existing, /*conditional=*/false));
      return Status::Retry("uniq-lock");  // revalidate from the top
    }
  }

  // Find and instant-X-lock the next key (Figure 6).
  NextSearch next;
  Status s = SearchForward(ctx_, index_id_, leaf, value, rid, false, &next);
  if (s.IsRetry()) {
    leaf.Release();
    if (tree_latch_held) {
      drop_tree_latch();
    } else {
      WaitForSmo();
    }
    return Status::Retry("next-search");
  }
  ARIES_RETURN_NOT_OK(s);
  IndexKeyRef next_key =
      next.eof ? IndexKeyRef::Eof() : IndexKeyRef::Of(next.value, next.rid);
  Status ls = proto_->LockInsertNext(txn, next_key, value, /*conditional=*/true);
  if (ls.IsBusy()) {
    next.chain_guard.Release();
    leaf.Release();
    drop_tree_latch();
    ARIES_RETURN_NOT_OK(
        proto_->LockInsertNext(txn, next_key, value, /*conditional=*/false));
    return Status::Retry("next-lock");
  }
  ARIES_RETURN_NOT_OK(ls);
  next.chain_guard.Release();  // next-page latch released after the lock

  // Space check: a full leaf triggers the split SMO (Figure 8).
  std::string cell = bt::EncodeLeafCell(value, rid);
  if (v.FreeSpaceForNewCell() < cell.size()) {
    return Status::NoSpace();
  }

  // Current-key lock (index-specific / KVL protocols only).
  ls = proto_->LockInsertCurrent(txn, value, rid, /*conditional=*/true);
  if (ls.IsBusy()) {
    leaf.Release();
    drop_tree_latch();
    ARIES_RETURN_NOT_OK(
        proto_->LockInsertCurrent(txn, value, rid, /*conditional=*/false));
    return Status::Retry("cur-lock");
  }
  ARIES_RETURN_NOT_OK(ls);

  // Log, apply, stamp (Figure 6: "Insert key, log and update page_LSN").
  ARIES_ASSIGN_OR_RETURN(Lsn lsn, LogKeyOp(txn, bt::kOpInsertKey, leaf.page_id(),
                                           value, rid, /*set_delete_bit=*/false,
                                           /*clr=*/false, kNullLsn));
  ARIES_RETURN_NOT_OK(bt::Apply(bt::kOpInsertKey,
                                bt::EncodeKeyOp(index_id_, value, rid, false),
                                v));
  leaf.MarkDirty(lsn);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Delete (Figure 7)
// ---------------------------------------------------------------------------

Status BTree::Delete(Transaction* txn, std::string_view value, Rid rid) {
  if (value.size() > MaxValueLen()) {
    return Status::InvalidArgument("key value too long");
  }
  std::optional<LatchGuard> blocker;
  bool baseline_x = false;
  if (ctx_->options.block_traversal_during_smo) {
    blocker.emplace(&tree_latch_, LatchMode::kExclusive);
    baseline_x = true;
  }
  bool have_tree_x = false;
  Status result;
  for (int attempt = 0; attempt < kMaxRestarts; ++attempt) {
    if (!have_tree_x && !baseline_x) RestartBackoff(attempt, ctx_->metrics);
    PageGuard leaf;
    Status ts = TraverseToLeaf(value, rid, /*for_modify=*/true, &leaf,
                               have_tree_x || baseline_x);
    if (!ts.ok()) {
      result = ts;
      break;
    }
    bool needs_page_delete = false;
    bool needs_tree_x = false;
    bool tree_x_released = false;
    Status s = DeleteAtLeaf(txn, std::move(leaf), value, rid,
                            have_tree_x || baseline_x, &needs_page_delete,
                            &needs_tree_x,
                            (have_tree_x && !baseline_x) ? &tree_x_released
                                                         : nullptr);
    if (tree_x_released) have_tree_x = false;
    if (s.IsRetry()) {
      if (needs_tree_x && !have_tree_x && !baseline_x) {
        LockTreeExclusiveCounted();
        have_tree_x = true;
      }
      continue;
    }
    result = s;
    break;
  }
  if (have_tree_x) UnlockTreeExclusiveCounted();
  return result;
}

Status BTree::DeleteAtLeaf(Transaction* txn, PageGuard leaf,
                           std::string_view value, Rid rid,
                           bool tree_latch_x_held, bool* needs_page_delete,
                           bool* needs_tree_x, bool* tree_latch_released) {
  *needs_page_delete = false;
  *needs_tree_x = false;
  auto drop_tree_latch = [&]() {
    if (tree_latch_x_held && tree_latch_released != nullptr &&
        !*tree_latch_released) {
      UnlockTreeExclusiveCounted();
      *tree_latch_released = true;
    }
  };
  Status bs = EnsureNoSmo(leaf, /*clear_delete_bit=*/false, tree_latch_x_held);
  if (!bs.ok()) return bs;

  PageView v = leaf.view();
  bool exact = false;
  uint16_t pos = bt::LeafLowerBound(v, value, rid, &exact);
  if (!exact) {
    return Status::NotFound("key not in index");
  }

  // Commit-duration X lock on the next key (Figure 7): the trace other
  // transactions trip on to see the uncommitted delete (§2.6).
  NextSearch next;
  Status s = SearchForward(ctx_, index_id_, leaf, value, rid,
                           /*exclusive=*/true, &next);
  if (s.IsRetry()) {
    leaf.Release();
    if (tree_latch_x_held) {
      drop_tree_latch();
    } else {
      WaitForSmo();
    }
    return Status::Retry("next-search");
  }
  ARIES_RETURN_NOT_OK(s);
  IndexKeyRef next_key =
      next.eof ? IndexKeyRef::Eof() : IndexKeyRef::Of(next.value, next.rid);
  Status ls = proto_->LockDeleteNext(txn, next_key, value, /*conditional=*/true);
  if (ls.IsBusy()) {
    next.chain_guard.Release();
    leaf.Release();
    drop_tree_latch();
    ARIES_RETURN_NOT_OK(
        proto_->LockDeleteNext(txn, next_key, value, /*conditional=*/false));
    return Status::Retry("next-lock");
  }
  ARIES_RETURN_NOT_OK(ls);
  next.chain_guard.Release();

  bool only_key = v.slot_count() == 1;
  bool boundary = (pos == 0 || pos + 1 == v.slot_count());

  if (only_key && !tree_latch_x_held) {
    // Page-delete SMO needed: release the leaf; the caller retries with
    // the tree latch held X.
    leaf.Release();
    *needs_tree_x = true;
    return Status::Retry("need-tree-x");
  }

  // Boundary-key delete: establish a POSC and hold it until the delete is
  // logged (§3 reason 3 — the key to be put back might not be bound).
  bool tree_s_held = false;
  if (boundary && !only_key && !tree_latch_x_held) {
    if (!tree_latch_.TryLockShared()) {
      leaf.Release();
      if (ctx_->metrics != nullptr) {
        ctx_->metrics->smo_waits.fetch_add(1, std::memory_order_relaxed);
      }
      tree_latch_.LockInstant(LatchMode::kShared);
      return Status::Retry("boundary-posc");
    }
    tree_s_held = true;
    if (ctx_->metrics != nullptr) {
      ctx_->metrics->tree_latch_acquisitions.fetch_add(1,
                                                       std::memory_order_relaxed);
    }
  }

  // Current-key lock (index-specific / KVL protocols only).
  ls = proto_->LockDeleteCurrent(txn, value, rid, /*conditional=*/true);
  if (ls.IsBusy()) {
    if (tree_s_held) tree_latch_.UnlockShared();
    leaf.Release();
    drop_tree_latch();
    ARIES_RETURN_NOT_OK(
        proto_->LockDeleteCurrent(txn, value, rid, /*conditional=*/false));
    return Status::Retry("cur-lock");
  }
  if (!ls.ok()) {
    if (tree_s_held) tree_latch_.UnlockShared();
    return ls;
  }

  // Log + apply; the Delete_Bit is set with the delete (Figure 7).
  auto lsn_res = LogKeyOp(txn, bt::kOpDeleteKey, leaf.page_id(), value, rid,
                          /*set_delete_bit=*/true, /*clr=*/false, kNullLsn);
  if (!lsn_res.ok()) {
    if (tree_s_held) tree_latch_.UnlockShared();
    return lsn_res.status();
  }
  Status as = bt::Apply(bt::kOpDeleteKey,
                        bt::EncodeKeyOp(index_id_, value, rid, true), v);
  if (!as.ok()) {
    if (tree_s_held) tree_latch_.UnlockShared();
    return as;
  }
  leaf.MarkDirty(lsn_res.value());
  if (tree_s_held) tree_latch_.UnlockShared();

  if (only_key) {
    // The page is now empty; delete it (Figures 8, 10). The caller holds
    // the tree latch X.
    return PageDeleteSmo(txn, std::move(leaf), value, rid);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Validation / collection (test support)
// ---------------------------------------------------------------------------

Status BTree::CollectAll(std::vector<std::pair<std::string, Rid>>* out) {
  // Find the leftmost leaf by following child[0] pointers.
  PageId cur = root_;
  while (true) {
    ARIES_ASSIGN_OR_RETURN(PageGuard page,
                           ctx_->pool->FetchPage(cur, LatchMode::kShared));
    PageView v = page.view();
    if (v.type() == PageType::kBtreeLeaf) break;
    if (v.slot_count() == 0) {
      return Status::Corruption("empty internal page in CollectAll");
    }
    cur = bt::DecodeInternalCell(v.Cell(0)).child;
  }
  while (cur != kInvalidPageId) {
    ARIES_ASSIGN_OR_RETURN(PageGuard page,
                           ctx_->pool->FetchPage(cur, LatchMode::kShared));
    PageView v = page.view();
    for (uint16_t i = 0; i < v.slot_count(); ++i) {
      bt::LeafEntry e = bt::DecodeLeafCell(v.Cell(i));
      out->emplace_back(std::string(e.value), e.rid);
    }
    cur = v.next_page();
  }
  return Status::OK();
}

Status BTree::ValidateSubtree(PageId id, uint8_t expected_level, bool is_root,
                              const std::string* low, const Rid* low_rid,
                              bool has_low, const std::string* high,
                              const Rid* high_rid, bool has_high,
                              size_t* key_count, PageId* leftmost_leaf) {
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx_->pool->FetchPage(id, LatchMode::kShared));
  PageView v = page.view();
  if (v.owner_id() != index_id_) {
    return Status::Corruption("validate: wrong owner on page " +
                              std::to_string(id));
  }
  if (v.level() != expected_level) {
    return Status::Corruption("validate: level mismatch on page " +
                              std::to_string(id));
  }
  if (v.type() == PageType::kBtreeLeaf) {
    if (expected_level != 0) {
      return Status::Corruption("validate: leaf at nonzero level");
    }
    if (v.slot_count() == 0 && !is_root && !v.sm_bit()) {
      return Status::Corruption(
          "validate: reachable empty leaf without pending SMO (page " +
          std::to_string(id) + ")");
    }
    if (leftmost_leaf != nullptr && *leftmost_leaf == kInvalidPageId) {
      *leftmost_leaf = id;
    }
    std::string prev_v;
    Rid prev_r;
    bool have_prev = false;
    for (uint16_t i = 0; i < v.slot_count(); ++i) {
      bt::LeafEntry e = bt::DecodeLeafCell(v.Cell(i));
      if (have_prev &&
          bt::CompareKey(prev_v, prev_r, e.value, e.rid) >= 0) {
        return Status::Corruption("validate: leaf keys out of order");
      }
      if (has_low && bt::CompareKey(e.value, e.rid, *low, *low_rid) < 0) {
        return Status::Corruption("validate: leaf key below subtree bound");
      }
      if (has_high && bt::CompareKey(e.value, e.rid, *high, *high_rid) >= 0) {
        return Status::Corruption(
            "validate: leaf key not below the parent high key: page " +
            std::to_string(id) + " key '" + std::string(e.value) + "' rid " +
            e.rid.ToString() + " high '" + *high + "'");
      }
      prev_v.assign(e.value);
      prev_r = e.rid;
      have_prev = true;
      if (key_count != nullptr) ++*key_count;
    }
    return Status::OK();
  }
  if (v.type() != PageType::kBtreeInternal) {
    return Status::Corruption("validate: unexpected page type");
  }
  if (v.slot_count() == 0) {
    return Status::Corruption("validate: empty internal page");
  }
  // Separators must be strictly increasing; only the last entry may be inf.
  std::string lo_v = has_low ? *low : std::string();
  Rid lo_r = has_low ? *low_rid : Rid{0, 0};
  bool lo_set = has_low;
  for (uint16_t i = 0; i < v.slot_count(); ++i) {
    bt::InternalEntry e = bt::DecodeInternalCell(v.Cell(i));
    bool last = (i + 1 == v.slot_count());
    if (e.inf && !last) {
      return Status::Corruption("validate: inf separator not rightmost");
    }
    if (!last && bt::DecodeInternalCell(v.Cell(i + 1)).inf == false) {
      bt::InternalEntry n = bt::DecodeInternalCell(v.Cell(i + 1));
      if (!e.inf &&
          bt::CompareKey(e.value, e.rid, n.value, n.rid) >= 0) {
        return Status::Corruption("validate: separators out of order");
      }
    }
    std::string child_hi = e.inf ? std::string() : std::string(e.value);
    Rid child_hi_rid = e.rid;
    bool child_has_hi = !e.inf;
    // The child's high bound is this separator; the high bound of the last
    // (inf) entry is the parent's high bound.
    const std::string* hi_ptr = child_has_hi ? &child_hi : (has_high ? high : nullptr);
    const Rid* hi_rid_ptr = child_has_hi ? &child_hi_rid : (has_high ? high_rid : nullptr);
    bool has_hi = child_has_hi || (has_high && e.inf);
    ARIES_RETURN_NOT_OK(ValidateSubtree(
        e.child, static_cast<uint8_t>(expected_level - 1), /*is_root=*/false,
        lo_set ? &lo_v : nullptr, lo_set ? &lo_r : nullptr, lo_set, hi_ptr,
        hi_rid_ptr, has_hi, key_count, leftmost_leaf));
    if (!e.inf) {
      lo_v.assign(e.value);
      lo_r = e.rid;
      lo_set = true;
    }
  }
  return Status::OK();
}

Status BTree::Validate(size_t* key_count) {
  ARIES_ASSIGN_OR_RETURN(PageGuard page,
                         ctx_->pool->FetchPage(root_, LatchMode::kShared));
  uint8_t root_level = page.view().level();
  page.Release();
  size_t count = 0;
  PageId leftmost = kInvalidPageId;
  ARIES_RETURN_NOT_OK(ValidateSubtree(root_, root_level, /*is_root=*/true,
                                      nullptr, nullptr, false, nullptr, nullptr,
                                      false, &count, &leftmost));
  // Leaf-chain cross-check: chained key count equals subtree key count and
  // the chain is strictly ordered with consistent back pointers.
  std::vector<std::pair<std::string, Rid>> chained;
  ARIES_RETURN_NOT_OK(CollectAll(&chained));
  if (chained.size() != count) {
    return Status::Corruption("validate: leaf chain count " +
                              std::to_string(chained.size()) +
                              " != subtree count " + std::to_string(count));
  }
  for (size_t i = 1; i < chained.size(); ++i) {
    if (bt::CompareKey(chained[i - 1].first, chained[i - 1].second,
                       chained[i].first, chained[i].second) >= 0) {
      return Status::Corruption("validate: leaf chain out of order");
    }
  }
  if (key_count != nullptr) *key_count = count;
  return Status::OK();
}

}  // namespace ariesim
