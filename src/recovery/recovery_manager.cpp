#include "recovery/recovery_manager.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/clock.h"
#include "common/trace.h"
#include "storage/disk_manager.h"
#include "storage/space_manager.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace ariesim {

Status RecoveryManager::TakeCheckpoint() {
  std::lock_guard<std::mutex> lk(checkpoint_mu_);
  LogRecord begin;
  begin.type = LogType::kBeginCheckpoint;
  ARIES_ASSIGN_OR_RETURN(Lsn begin_lsn, ctx_->txns->AppendSystemLog(&begin));

  // Fuzzy snapshot: neither table needs to be transactionally consistent;
  // analysis corrects both from the log records that follow.
  auto dpt = ctx_->pool->DirtyPageTable();
  auto tt = ctx_->txns->Snapshot();

  // Persist the per-page log index between the checkpoint markers — only in
  // instant-restart mode, so classic-mode logs keep their pre-index byte
  // cadence (and auto-checkpoint phase) exactly. Prune first: clean pages'
  // chains are embodied by their on-disk images, dirty pages only need
  // entries >= their recLSN. Entries Noted between the prune and the
  // serialization have LSN > begin_lsn, so the analysis tail scan (which
  // starts at begin_lsn) re-derives them even if they miss the chunk.
  page_index_.Prune(dpt);
  if (ctx_->options.instant_restart) {
    for (std::string& chunk :
         page_index_.SerializeChunks(kPageIndexChunkBytes)) {
      LogRecord idx;
      idx.type = LogType::kPageIndex;
      idx.payload = std::move(chunk);
      ARIES_ASSIGN_OR_RETURN(Lsn idx_lsn, ctx_->txns->AppendSystemLog(&idx));
      (void)idx_lsn;
    }
  }

  LogRecord end;
  end.type = LogType::kEndCheckpoint;
  PutFixed32(&end.payload, static_cast<uint32_t>(dpt.size()));
  for (auto& [page, rec_lsn] : dpt) {
    PutFixed32(&end.payload, page);
    PutFixed64(&end.payload, rec_lsn);
  }
  PutFixed32(&end.payload, static_cast<uint32_t>(tt.size()));
  for (auto& e : tt) {
    PutFixed64(&end.payload, e.id);
    end.payload.push_back(static_cast<char>(e.state));
    PutFixed64(&end.payload, e.last_lsn);
    PutFixed64(&end.payload, e.undo_next_lsn);
  }
  ARIES_ASSIGN_OR_RETURN(Lsn end_lsn, ctx_->txns->AppendSystemLog(&end));
  ARIES_RETURN_NOT_OK(ctx_->log->FlushTo(end_lsn + end.SerializedSize()));
  return ctx_->log->WriteMaster(begin_lsn);
}

Status RecoveryManager::Analyze(Lsn start, AnalysisResult* out,
                                RestartStats* stats) {
  LogManager::Reader reader(ctx_->log, start);
  LogRecord rec;
  // Txns whose end record the scan has already consumed. The end-checkpoint
  // snapshot was taken before those ends were logged, so its entries for
  // them are stale and must not be re-seeded (a resurrected committed txn
  // would be undone as a loser).
  std::unordered_set<TxnId> ended;
  while (reader.Next(&rec).ok()) {
    stats->analysis_records++;
    switch (rec.type) {
      case LogType::kEndCheckpoint: {
        BufferReader r(rec.payload);
        uint32_t ndpt = r.GetFixed32();
        for (uint32_t i = 0; i < ndpt; ++i) {
          PageId page = r.GetFixed32();
          Lsn rec_lsn = r.GetFixed64();
          // Keep the OLDEST recLSN. A concurrent update can land between the
          // begin- and end-checkpoint records; the scan sees it first and
          // would otherwise pin the page's recLSN at that update, making
          // redo skip everything between the true recLSN and it.
          auto [it, inserted] = out->dpt.emplace(page, rec_lsn);
          if (!inserted && rec_lsn < it->second) it->second = rec_lsn;
        }
        uint32_t ntxn = r.GetFixed32();
        for (uint32_t i = 0; i < ntxn; ++i) {
          TxnId id = r.GetFixed64();
          uint8_t state_byte = static_cast<uint8_t>(r.GetFixed8());
          Lsn last = r.GetFixed64();
          Lsn undo_next = r.GetFixed64();
          // Merge: records after the checkpoint override these values, so
          // only seed txns not yet seen — and never ones whose end record
          // the scan already passed (they finished inside the checkpoint
          // window; the snapshot predates that).
          if (ended.count(id) != 0 ||
              out->txns.find(id) != out->txns.end()) {
            continue;
          }
          // A transaction seeded only from the snapshot has no record at or
          // after the begin-checkpoint (the scan would have built its entry
          // otherwise), so the snapshotted LastLSN is its true final record.
          // The snapshot itself is fuzzy: EndTransaction may have appended
          // the commit/end record already while the table entry still read
          // kActive. Re-check the log before adopting it as a loser —
          // undoing a committed transaction corrupts the database.
          TxnState state = static_cast<TxnState>(state_byte);
          bool committed = state == TxnState::kCommitted;
          if (last != kNullLsn) {
            LogRecord final_rec;
            if (ctx_->log->ReadRecord(last, &final_rec).ok() &&
                final_rec.txn_id == id) {
              if (final_rec.type == LogType::kEnd) continue;  // fully resolved
              if (final_rec.type == LogType::kCommit) committed = true;
            }
          }
          auto& info = out->txns[id];
          info.last_lsn = last;
          info.undo_next = undo_next;
          info.committed = committed;
        }
        break;
      }
      case LogType::kUpdate:
      case LogType::kCompensation: {
        auto& info = out->txns[rec.txn_id];
        info.last_lsn = rec.lsn;
        info.undo_next =
            rec.IsClr() ? rec.undo_next_lsn : rec.lsn;
        if (rec.IsRedoable() && rec.page_id != kInvalidPageId) {
          out->dpt.emplace(rec.page_id, rec.lsn);
          PageLogIndex::AppendToChain(&out->chains, rec.page_id, rec.lsn);
        }
        break;
      }
      case LogType::kPageIndex: {
        // Merge a persisted chunk into the chains being reconstructed. The
        // union of the chunks (entries >= checkpoint-time recLSN) and the
        // scan-appended tail covers [recLSN, end-of-log] for every DPT page.
        ARIES_RETURN_NOT_OK(
            PageLogIndex::ParseChunk(rec.payload, &out->chains));
        break;
      }
      case LogType::kCommit: {
        out->txns[rec.txn_id].committed = true;
        out->txns[rec.txn_id].last_lsn = rec.lsn;
        break;
      }
      case LogType::kAbort: {
        auto& info = out->txns[rec.txn_id];
        info.last_lsn = rec.lsn;
        if (info.undo_next == kNullLsn) info.undo_next = rec.prev_lsn;
        break;
      }
      case LogType::kEnd: {
        out->txns.erase(rec.txn_id);
        ended.insert(rec.txn_id);
        break;
      }
      default:
        break;
    }
  }
  return Status::OK();
}

Status RecoveryManager::RedoPass(const AnalysisResult& ar, RestartStats* stats) {
  if (ar.dpt.empty()) return Status::OK();
  LogManager::Reader reader(ctx_->log, stats->redo_start);
  LogRecord rec;
  while (reader.Next(&rec).ok()) {
    if (!rec.IsRedoable() || rec.page_id == kInvalidPageId) continue;
    stats->redo_records++;
    auto it = ar.dpt.find(rec.page_id);
    bool applied = false;
    if (it != ar.dpt.end() && rec.lsn >= it->second) {
      auto fetched = ctx_->pool->FetchPage(rec.page_id, LatchMode::kExclusive);
      if (!fetched.ok()) {
        if (fetched.status().code() != Code::kCorruption) {
          return fetched.status();
        }
        // Torn on-disk image: rebuild the page from the log. RepairPage rolls
        // it fully forward, so this record and every later one for the page
        // is already covered — move on.
        ARIES_RETURN_NOT_OK(RepairPage(rec.page_id));
        stats->torn_pages_repaired++;
        continue;
      }
      PageGuard page = std::move(fetched).value();
      ARIES_ASSIGN_OR_RETURN(applied, RedoStep(rec, page.view()));
      if (applied) page.MarkDirty(rec.lsn);
    }
    if (applied) stats->redo_applied++;
    if (ctx_->metrics != nullptr) {
      (applied ? ctx_->metrics->redo_records_applied
               : ctx_->metrics->redo_records_skipped)
          .fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Result<bool> RecoveryManager::RedoStep(const LogRecord& rec, PageView v) {
  if (v.page_lsn() >= rec.lsn) return false;  // effect already on the page
  ResourceManager* rm = Rm(rec.rm);
  if (rm == nullptr) {
    return Status::Corruption("no RM registered for redo: " + rec.ToString());
  }
  ARIES_RETURN_NOT_OK(rm->Redo(rec, v));
  v.set_page_lsn(rec.lsn);
  return true;
}

Status RecoveryManager::ReplayPage(PageId page, Lsn from, PageView v,
                                   Lsn* first_applied) {
  LogManager::Reader reader(ctx_->log, from);
  LogRecord rec;
  while (reader.Next(&rec).ok()) {
    if (!rec.IsRedoable() || rec.page_id != page) continue;
    ARIES_ASSIGN_OR_RETURN(bool applied, RedoStep(rec, v));
    if (applied && *first_applied == kNullLsn) *first_applied = rec.lsn;
  }
  return Status::OK();
}

Status RecoveryManager::UndoStep(Transaction* txn) {
  LogRecord rec;
  ARIES_RETURN_NOT_OK(ctx_->log->ReadRecord(txn->undo_next_lsn(), &rec));
  if (rec.IsClr()) {
    txn->set_undo_next_lsn(rec.undo_next_lsn);
  } else if (rec.type == LogType::kUpdate) {
    ResourceManager* rm = Rm(rec.rm);
    if (rm == nullptr) {
      return Status::Corruption("no RM registered for undo: " + rec.ToString());
    }
    if (ctx_->metrics != nullptr) {
      ctx_->metrics->undo_records.fetch_add(1, std::memory_order_relaxed);
    }
    ARIES_RETURN_NOT_OK(rm->Undo(txn, rec));
    // The CLR written by the RM already advanced undo_next to rec.prev_lsn
    // via AppendTxnLog; assert-equivalent safety net:
    if (txn->undo_next_lsn() >= rec.lsn) {
      txn->set_undo_next_lsn(rec.prev_lsn);
    }
  } else {
    // abort / commit markers: follow the chain.
    txn->set_undo_next_lsn(rec.prev_lsn);
  }
  return Status::OK();
}

Status RecoveryManager::UndoTransaction(Transaction* txn, Lsn stop_at) {
  while (txn->undo_next_lsn() != kNullLsn && txn->undo_next_lsn() > stop_at) {
    ARIES_RETURN_NOT_OK(UndoStep(txn));
  }
  return Status::OK();
}

Status RecoveryManager::UndoPass(const AnalysisResult& ar, RestartStats* stats) {
  // Adopt losers into the transaction table.
  std::vector<Transaction*> losers;
  for (auto& [id, info] : ar.txns) {
    if (info.committed) continue;  // winner missing only its end record
    Transaction* txn = ctx_->txns->AdoptRestored(id, info.last_lsn, info.undo_next);
    losers.push_back(txn);
  }
  stats->loser_txns = losers.size();

  // Single backward sweep: repeatedly undo the record with the largest LSN
  // across all losers (reverse chronological order, paper §1.2).
  while (true) {
    Transaction* next = nullptr;
    for (Transaction* t : losers) {
      if (t->undo_next_lsn() == kNullLsn) continue;
      if (next == nullptr || t->undo_next_lsn() > next->undo_next_lsn()) {
        next = t;
      }
    }
    if (next == nullptr) break;
    if (test_stop_undo_after_ >= 0) {
      if (test_stop_undo_after_ == 0) {
        test_stop_undo_after_ = -1;
        return Status::IOError("injected crash during restart undo");
      }
      --test_stop_undo_after_;
    }
    ARIES_RETURN_NOT_OK(UndoStep(next));
    stats->undo_records++;
  }
  for (Transaction* t : losers) {
    ARIES_RETURN_NOT_OK(ctx_->txns->EndTransaction(t, TxnState::kAborted));
  }
  return Status::OK();
}

Status RecoveryManager::RollForwardPage(PageId page, Lsn from) {
  ARIES_RETURN_NOT_OK(ctx_->log->FlushAll());
  ARIES_ASSIGN_OR_RETURN(PageGuard guard,
                         ctx_->pool->FetchPage(page, LatchMode::kExclusive));
  Lsn first = kNullLsn;
  ARIES_RETURN_NOT_OK(ReplayPage(page, from, guard.view(), &first));
  if (first != kNullLsn) {
    const Lsn last = guard.view().page_lsn();
    guard.MarkDirty(first);  // recLSN: the first record replayed
    guard.MarkDirty(last);
  }
  return Status::OK();
}

Status RecoveryManager::RebuildPageImage(PageId page, char* buf) {
  ARIES_TRACE_SPAN(span, "recovery.rebuild_page", TraceCat::kRecovery, page);
  if (ctx_->disk == nullptr) {
    return Status::Corruption("page " + std::to_string(page) +
                              " checksum mismatch (no disk for repair)");
  }
  const size_t ps = ctx_->disk->page_size();
  std::memset(buf, 0, ps);
  PageView v(buf, ps);
  if (page < kSpaceMapPages) {
    // Map pages were formatted before logging existed; recreate that base
    // image so the logged bit flips replay on top of it.
    SpaceManager::FormatMapPage(v, page);
  } else {
    // Everything else rebuilds from a zeroed page via its format record —
    // which reads the page id from the page itself, so stamp it.
    v.set_page_id(page);
  }
  // Replay the page's full history. Page-LSN idempotence makes this safe to
  // run concurrently with normal traffic on *other* pages: every redo below
  // touches only this private buffer, and the caller guarantees no new
  // records can be appended for this page while it is quarantined.
  Lsn first = kNullLsn;
  ARIES_RETURN_NOT_OK(ReplayPage(page, kLogFilePrologue, v, &first));
  if (page >= kSpaceMapPages && v.type() == PageType::kInvalid) {
    // The corrupt on-disk image was non-blank, yet the log holds no format
    // record for the page: its history is gone (truncated log). Refusing
    // here is what keeps repair from silently serving an empty page.
    return Status::Corruption("page " + std::to_string(page) +
                              " unrepairable: log holds no history");
  }
  // WAL rule: the rebuilt image must not reach disk ahead of the log records
  // it embodies.
  ARIES_RETURN_NOT_OK(ctx_->log->FlushTo(v.page_lsn()));
  uint32_t crc = crc32c::Value(buf + 4, ps - 4);
  v.set_checksum(crc32c::Mask(crc));
  return ctx_->disk->WritePage(page, buf);
}

Status RecoveryManager::RepairPage(PageId page) {
  // Drop any cached corrupt copy so the rebuilt image is what readers see.
  ARIES_RETURN_NOT_OK(ctx_->pool->DiscardPage(page));
  std::string buf(ctx_->pool->page_size(), '\0');
  ARIES_RETURN_NOT_OK(RebuildPageImage(page, buf.data()));
  if (ctx_->metrics != nullptr) {
    ctx_->metrics->torn_pages_repaired.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status RecoveryManager::Restart(RestartStats* stats) {
  return RunRestart(/*instant=*/false, stats);
}

Status RecoveryManager::RestartInstant(RestartStats* stats) {
  return RunRestart(/*instant=*/true, stats);
}

Status RecoveryManager::RunRestart(bool instant, RestartStats* stats) {
  // Always have a stats object so pass timing needs no null checks; copy out
  // to the caller's on every exit (including mid-restart failures).
  RestartStats local;
  if (stats == nullptr) stats = &local;
  stats->instant = instant;
  const uint64_t t_start = MonotonicNowNs();
  ARIES_TRACE_SPAN(restart_span, "recovery.restart", TraceCat::kRecovery, 0);
  // One timed, traced restart pass (name and arg feed only the span).
  auto timed = []([[maybe_unused]] const char* name,
                  [[maybe_unused]] uint64_t arg, uint64_t* us, auto pass) {
    ARIES_TRACE_SPAN(span, name, TraceCat::kRecovery, arg);
    const uint64_t t0 = MonotonicNowNs();
    Status s = pass();
    *us = (MonotonicNowNs() - t0) / 1000;
    return s;
  };

  Lsn start = kLogFilePrologue;
  auto master = ctx_->log->ReadMaster();
  if (master.ok()) start = master.value();

  AnalysisResult ar;
  ARIES_RETURN_NOT_OK(timed("recovery.analysis", start, &stats->analysis_us,
                            [&] { return Analyze(start, &ar, stats); }));
  for (auto& [page, rec_lsn] : ar.dpt) {
    if (stats->redo_start == kNullLsn || rec_lsn < stats->redo_start) {
      stats->redo_start = rec_lsn;
    }
  }
  // Seed the live page-log index with the reconstructed chains so the
  // trailing checkpoint (and every later one) persists a correct index;
  // undo's CLR appends extend it via the WAL append observer. Instant
  // restart also freezes them for LazyRedoPage — immutable until the next
  // restart, so lazy replays read them without locking.
  if (instant) restart_chains_ = ar.chains;
  page_index_.Adopt(std::move(ar.chains));
  if (instant) {
    // Instead of the sequential redo pass, schedule every DPT page for
    // first-touch replay. From here on any FetchPage miss on one of these
    // pages runs LazyRedoPage inside the fetch quarantine.
    ctx_->pool->MarkPendingRedo(ar.dpt);
    stats->lazy_pages_scheduled = ar.dpt.size();
  } else {
    ARIES_RETURN_NOT_OK(timed("recovery.redo", 0, &stats->redo_us,
                              [&] { return RedoPass(ar, stats); }));
  }
  // Instant restart undoes losers eagerly too — bounded by loser activity,
  // not log length. Its page fetches go through the lazy-redo path, so each
  // touched page is rolled forward on demand before the undo applies on
  // top, exactly the state the classic redo pass would have produced.
  ARIES_RETURN_NOT_OK(timed("recovery.undo", 0, &stats->undo_us,
                            [&] { return UndoPass(ar, stats); }));
  // In instant mode the checkpoint's DPT snapshot includes the still-pending
  // pages (the pool reports them with their scheduled recLSN), so a crash
  // *during* instant restart re-marks them on the next open — nested crashes
  // converge to the same state as a classic restart.
  Status s = TakeCheckpoint();
  stats->total_us = (MonotonicNowNs() - t_start) / 1000;
  return s;
}

Status RecoveryManager::LazyRedoPage(PageId page, char* buf, Lsn rec_lsn,
                                     Lsn* first_applied) {
  ARIES_TRACE_SPAN(span, "recovery.lazy_replay", TraceCat::kRecovery, page);
  *first_applied = kNullLsn;
  PageView v(buf, ctx_->pool->page_size());
  if (v.type() == PageType::kInvalid && page < kSpaceMapPages) {
    // A map page that never reached disk: recreate the pre-log base image so
    // the logged bit flips replay on top of it (as RebuildPageImage does).
    // Other blank pages replay as-is — classic redo also formats them from
    // the zeroed image, and lazy replay must stay byte-identical to it (so
    // no set_page_id here, unlike the repair path).
    std::memset(buf, 0, ctx_->pool->page_size());
    SpaceManager::FormatMapPage(v, page);
  }
  auto it = restart_chains_.find(page);
  // The chain must cover [rec_lsn, crash]: its first entry is the record
  // that dirtied the page. Anything else means the index is untrustworthy
  // for this page — fall back to the (slow, always-correct) full scan.
  bool use_chain = it != restart_chains_.end() && !it->second.empty() &&
                   it->second.front() <= rec_lsn;
  if (use_chain) {
    for (Lsn lsn : it->second) {
      if (v.page_lsn() >= lsn) continue;  // effect already on the image
      LogRecord rec;
      Status s = ctx_->log->ReadRecord(lsn, &rec);
      if (!s.ok() || !rec.IsRedoable() || rec.page_id != page) {
        use_chain = false;  // stale / corrupt chain entry
        break;
      }
      ARIES_RETURN_NOT_OK(RedoStep(rec, v).status());
      if (*first_applied == kNullLsn) *first_applied = lsn;
    }
  }
  if (!use_chain) {
    if (ctx_->metrics != nullptr) {
      ctx_->metrics->lazy_chain_fallbacks.fetch_add(1,
                                                    std::memory_order_relaxed);
    }
    // Page-LSN idempotence makes re-applying records the chain path already
    // replayed a no-op, so resuming with a scan mid-way is safe.
    Lsn from = rec_lsn == kNullLsn ? kLogFilePrologue : rec_lsn;
    ARIES_RETURN_NOT_OK(ReplayPage(page, from, v, first_applied));
  }
  return Status::OK();
}

}  // namespace ariesim
