#include "buffer/buffer_pool.h"

#include <atomic>
#include <cstring>

#include "common/clock.h"
#include "common/commit_breakdown.h"
#include "common/trace.h"
#include "util/crc32c.h"

// ThreadSanitizer detection: the optimistic snapshot copy below races with
// in-place page writes *by protocol* (the seqlock validation discards torn
// copies before anything parses them), so under TSan the copy is excluded
// from instrumentation and bracketed with ignore-reads annotations. See
// docs/CONCURRENCY.md, "Memory model and TSan".
#if defined(__SANITIZE_THREAD__)
#define ARIESIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ARIESIM_TSAN 1
#endif
#endif
#ifndef ARIESIM_TSAN
#define ARIESIM_TSAN 0
#endif

#if ARIESIM_TSAN
extern "C" void AnnotateIgnoreReadsBegin(const char* file, int line);
extern "C" void AnnotateIgnoreReadsEnd(const char* file, int line);
#endif

namespace ariesim {

namespace {

/// The latch-free page copy. Intentionally races with the X holder's plain
/// writes; the surrounding version checks reject any copy a writer
/// overlapped, so torn bytes are never parsed. The fast (non-TSan) build
/// uses __builtin_memcpy — it vectorizes, and a 4 KiB copy is ~4x cheaper
/// than a word-wise atomic loop, which is the difference between the
/// optimistic descent beating the mutex path and losing to it. Under TSan
/// the loop switches to relaxed single-copy-atomic 8-byte loads (page
/// buffers are new[]-allocated, 16-byte aligned, page_size a power of two
/// >= 256, so the stride is exact) and the function is excluded from
/// instrumentation (not libc memcpy, whose interceptor would still
/// report); noinline so the attribute is not lost by inlining into an
/// instrumented caller.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((no_sanitize("thread"), noinline))
#endif
void RacyCopyPage(char* dst, const char* src, size_t n) {
#if ARIESIM_TSAN
  const uint64_t* s = reinterpret_cast<const uint64_t*>(src);
  uint64_t* d = reinterpret_cast<uint64_t*>(dst);
  for (size_t i = 0; i < n / sizeof(uint64_t); ++i) {
    d[i] = __atomic_load_n(s + i, __ATOMIC_RELAXED);
  }
#else
  __builtin_memcpy(dst, src, n);
#endif
}

}  // namespace

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    mode_ = o.mode_;
    o.frame_ = nullptr;
  }
  return *this;
}

PageView PageGuard::view() const {
  return PageView(frame_->data.get(), pool_->page_size());
}

PageId PageGuard::page_id() const { return frame_->page_id; }

void PageGuard::MarkDirty(Lsn lsn) {
  view().set_page_lsn(lsn);
  pool_->NoteDirty(frame_, lsn);
  pool_->ParanoidObserve(frame_->page_id, lsn);
}

void PageGuard::Release() {
  if (frame_ != nullptr) {
    frame_->latch.Unlock(mode_);
    pool_->Unpin(frame_);
    frame_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, LogManager* log, size_t frames,
                       Metrics* metrics, bool verify_checksums)
    : disk_(disk),
      log_(log),
      metrics_(metrics),
      page_size_(disk->page_size()),
      verify_checksums_(verify_checksums) {
  frames_.reserve(frames);
  for (size_t i = 0; i < frames; ++i) {
    auto f = std::make_unique<Frame>();
    f->data = std::make_unique<char[]>(page_size_);
    free_frames_.push_back(f.get());
    frames_.push_back(std::move(f));
  }
}

Result<Frame*> BufferPool::FetchFrame(PageId id) {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    auto it = page_table_.find(id);
    if (it != page_table_.end()) {
      Frame* f = it->second;
      if (++f->pin_count == 1) {
        auto pos = lru_pos_.find(f);
        if (pos != lru_pos_.end()) {
          lru_.erase(pos->second);
          lru_pos_.erase(pos);
        }
      }
      return f;
    }
    // Wait while someone else is loading this page OR while an evicted
    // dirty copy of it is still being written back — re-reading the page
    // from disk before the write-back lands would resurrect a stale
    // version and silently lose committed updates.
    if (io_in_progress_.count(id) != 0 || writing_back_.count(id) != 0) {
      io_cv_.wait(lk);
      continue;  // re-check the table
    }
    // Miss: claim a frame.
    Frame* victim = nullptr;
    if (!free_frames_.empty()) {
      victim = free_frames_.back();
      free_frames_.pop_back();
    } else if (!lru_.empty()) {
      victim = lru_.front();
      lru_.pop_front();
      lru_pos_.erase(victim);
      page_table_.erase(victim->page_id);
    } else {
      return Status::Busy("buffer pool exhausted (all frames pinned)");
    }
    victim->pin_count = 1;
    io_in_progress_.insert(id);
    bool victim_dirty = victim->dirty;
    PageId victim_old_id = victim->page_id;
    if (victim_dirty) writing_back_.emplace(victim_old_id, victim->rec_lsn);
    // Instant restart: capture the pending-redo schedule before dropping the
    // mutex; the quarantine keeps it stable until this fetch resolves it.
    bool pending = false;
    Lsn pending_rec_lsn = kNullLsn;
    if (auto pit = pending_redo_.find(id); pit != pending_redo_.end()) {
      pending = true;
      pending_rec_lsn = pit->second;
    }
    lk.unlock();

    // Miss latency: everything between releasing the pool mutex and the
    // page being usable — evict write-back, disk read, checksum verify and
    // (worst case) online repair.
    const uint64_t miss_start_ns = MonotonicNowNs();
    ARIES_TRACE_SPAN(miss_span, "bp.miss", TraceCat::kBuffer, id);
    Status s;
    bool victim_persisted = true;
    if (victim_dirty) {
      ARIES_TRACE_SPAN(evict_span, "bp.evict_write", TraceCat::kBuffer,
                       victim_old_id);
      s = WriteFrame(victim);
      victim_persisted = s.ok();
    }
    if (s.ok()) {
      s = disk_->ReadPage(id, victim->data.get());
      if (s.ok() && verify_checksums_) {
        char* data = victim->data.get();
        PageView v(data, page_size_);
        if (v.type() != PageType::kInvalid) {
          uint32_t crc = crc32c::Value(data + 4, page_size_ - 4);
          if (v.checksum() != crc32c::Mask(crc)) {
            s = Status::Corruption("page " + std::to_string(id) +
                                   " checksum mismatch");
          }
        } else {
          // A genuinely never-written page is all zero. Anything else is
          // rot hiding behind a cleared type byte — a zero "checksum" must
          // not buy a free pass (the old `checksum() != 0` escape did).
          for (size_t i = 0; i < page_size_; i++) {
            if (data[i] != 0) {
              s = Status::Corruption("page " + std::to_string(id) +
                                     " unformatted but not blank");
              break;
            }
          }
        }
      }
    }
    bool repaired = false;
    if (!s.ok() && victim_persisted && repair_ &&
        (s.code() == Code::kCorruption || s.code() == Code::kIOError)) {
      // Online quarantine + repair: `id` still sits in io_in_progress_, so
      // no guard on this page exists anywhere and no new log records for it
      // can be appended while the handler replays its history into the
      // claimed frame. Other pages keep flowing normally.
      ARIES_TRACE_SPAN(repair_span, "bp.repair", TraceCat::kBuffer, id);
      Status rs = repair_(id, victim->data.get());
      if (rs.ok()) {
        s = Status::OK();
        repaired = true;  // full rebuild: the image is already current
      }
    }
    Lsn lazy_first_applied = kNullLsn;
    if (s.ok() && pending && !repaired) {
      // On-demand redo inside the same quarantine the repair path uses: the
      // page is invisible until its LSN chain has been replayed onto the
      // just-read image, so no reader can ever observe the stale version.
      if (lazy_redo_) {
        ARIES_TRACE_SPAN(lazy_span, "bp.lazy_redo", TraceCat::kBuffer, id);
        const uint64_t lazy_start_ns = MonotonicNowNs();
        s = lazy_redo_(id, victim->data.get(), pending_rec_lsn,
                       &lazy_first_applied);
        if (metrics_ != nullptr) {
          metrics_->lazy_replay_latency.Record(MonotonicNowNs() -
                                               lazy_start_ns);
        }
      } else {
        // Serving the page without its redo debt would silently lose
        // committed updates; fail the fetch instead.
        s = Status::Corruption("page " + std::to_string(id) +
                               " pending redo but no lazy-redo handler");
      }
    }

    if (s.ok()) {
      PageView lv(victim->data.get(), page_size_);
      Status ps = ParanoidCheckLoad(id, lv.page_lsn());
      if (!ps.ok()) s = ps;
    }
    if (metrics_ != nullptr) {
      metrics_->page_miss_latency.Record(MonotonicNowNs() - miss_start_ns);
    }
    lk.lock();
    io_in_progress_.erase(id);
    if (victim_dirty) writing_back_.erase(victim_old_id);
    if (!s.ok()) {
      victim->pin_count = 0;
      if (!victim_persisted) {
        // The dirty victim never reached disk, so this frame still holds the
        // only current copy of the page. Put it back in the table instead of
        // freeing the frame — freeing it would silently discard committed
        // updates whose log prefix may not even be durable yet. No other
        // thread can have reloaded the page meanwhile: its id sat in
        // writing_back_ until this same critical section.
        victim->page_id = victim_old_id;
        page_table_[victim_old_id] = victim;
        lru_.push_back(victim);
        lru_pos_[victim] = std::prev(lru_.end());
      } else {
        victim->page_id = kInvalidPageId;
        victim->dirty = false;
        victim->rec_lsn = kNullLsn;
        free_frames_.push_back(victim);
      }
      io_cv_.notify_all();
      return s;
    }
    victim->page_id = id;
    victim->dirty = false;
    victim->rec_lsn = kNullLsn;
    if (pending) {
      pending_redo_.erase(id);
      if (lazy_first_applied != kNullLsn) {
        // The replayed image is newer than disk; recLSN is the first record
        // the replay applied, exactly as if redo had dirtied the page.
        victim->dirty = true;
        victim->rec_lsn = lazy_first_applied;
      }
      if (metrics_ != nullptr) {
        metrics_->pages_recovered_lazily.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
    }
    page_table_[id] = victim;
    io_cv_.notify_all();
    return victim;
  }
}

Result<PageGuard> BufferPool::FetchPage(PageId id, LatchMode mode) {
  ARIES_ASSIGN_OR_RETURN(Frame * f, FetchFrame(id));
  // Try-then-wait so the (common) uncontended acquisition pays no clock
  // read; only contended ones are timed and traced.
  if (!f->latch.TryLock(mode)) {
    const uint64_t wait_start_ns = MonotonicNowNs();
    ARIES_TRACE_SPAN(span, "bp.latch_wait", TraceCat::kBuffer, id);
    f->latch.Lock(mode);
    const uint64_t waited_ns = MonotonicNowNs() - wait_start_ns;
    if (metrics_ != nullptr) {
      metrics_->latch_wait_latency.Record(waited_ns);
    }
    AddCommitSegment(CommitSegment::latch_wait, waited_ns);
    latch_contention_.RecordWait(id, waited_ns);
  }
  if (metrics_ != nullptr) {
    metrics_->page_latch_acquisitions.fetch_add(1, std::memory_order_relaxed);
  }
  return PageGuard(this, f, mode);
}

Result<OptimisticPageGuard> BufferPool::FetchPageOptimistic(PageId id) {
  ARIES_ASSIGN_OR_RETURN(Frame * f, FetchFrame(id));
  return OptimisticPageGuard(this, f);
}

bool OptimisticPageGuard::TrySnapshot(char* dst, uint64_t* version_out) const {
  uint64_t v;
  if (!frame_->latch.ReadVersion(&v)) return false;  // an X holder is active
#if ARIESIM_TSAN
  AnnotateIgnoreReadsBegin(__FILE__, __LINE__);
#endif
  RacyCopyPage(dst, frame_->data.get(), pool_->page_size_);
#if ARIESIM_TSAN
  AnnotateIgnoreReadsEnd(__FILE__, __LINE__);
#endif
  if (!frame_->latch.Validate(v)) return false;
  *version_out = v;
  return true;
}

void OptimisticPageGuard::Release() {
  if (frame_ != nullptr) {
    pool_->Unpin(frame_);
    frame_ = nullptr;
  }
}

void BufferPool::Unpin(Frame* frame) {
  std::lock_guard<std::mutex> lk(mu_);
  if (--frame->pin_count == 0) {
    lru_.push_back(frame);
    lru_pos_[frame] = std::prev(lru_.end());
  }
}

void BufferPool::NoteDirty(Frame* frame, Lsn lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!frame->dirty) {
    frame->dirty = true;
    frame->rec_lsn = lsn;
  }
}

void BufferPool::NoteDirtyById(PageId id, Lsn lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = page_table_.find(id);
  if (it == page_table_.end()) return;  // caller will dirty it on apply
  Frame* f = it->second;
  if (!f->dirty) {
    f->dirty = true;
    f->rec_lsn = lsn;
  }
}

Status BufferPool::WriteFrame(Frame* frame) {
  PageView v(frame->data.get(), page_size_);
  // WAL rule: the log must be durable up to the page's page_LSN.
  ARIES_RETURN_NOT_OK(log_->FlushTo(v.page_lsn()));
  uint32_t crc = crc32c::Value(frame->data.get() + 4, page_size_ - 4);
  v.set_checksum(crc32c::Mask(crc));
  if (fault_ != nullptr) {
    FaultAction a = fault_->OnIo(FaultSite::kEvictWrite, page_size_,
                                 frame->page_id);
    if (a.kind != FaultAction::Kind::kProceed &&
        a.kind != FaultAction::Kind::kCorrupt) {
      return Status::IOError("fault injection: write-back of page " +
                             std::to_string(frame->page_id));
    }
  }
  ARIES_RETURN_NOT_OK(disk_->WritePage(frame->page_id, frame->data.get()));
  if (paranoid_) {
    std::lock_guard<std::mutex> plk(paranoid_mu_);
    Lsn& w = last_written_[frame->page_id];
    if (v.page_lsn() > w) w = v.page_lsn();
  }
  return Status::OK();
}

void BufferPool::ParanoidObserve(PageId id, Lsn lsn) {
  if (!paranoid_) return;
  std::lock_guard<std::mutex> plk(paranoid_mu_);
  Lsn& o = last_observed_[id];
  if (lsn > o) o = lsn;
}

Status BufferPool::ParanoidCheckLoad(PageId id, Lsn loaded_lsn) {
  if (!paranoid_) return Status::OK();
  std::lock_guard<std::mutex> plk(paranoid_mu_);
  auto it = last_written_.find(id);
  if (it != last_written_.end() && loaded_lsn < it->second) {
    return Status::Corruption(
        "PARANOID: stale reload of page " + std::to_string(id) + ": loaded lsn " +
        std::to_string(loaded_lsn) + " < written " + std::to_string(it->second));
  }
  auto ob = last_observed_.find(id);
  if (ob != last_observed_.end() && loaded_lsn < ob->second) {
    return Status::Corruption(
        "PARANOID: reload of page " + std::to_string(id) + " lost updates: lsn " +
        std::to_string(loaded_lsn) + " < observed " + std::to_string(ob->second));
  }
  return Status::OK();
}

Status BufferPool::FlushPage(PageId id) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = page_table_.find(id);
  if (it == page_table_.end()) return Status::OK();
  Frame* f = it->second;
  if (!f->dirty) return Status::OK();
  ++f->pin_count;
  if (f->pin_count == 1) {
    auto pos = lru_pos_.find(f);
    if (pos != lru_pos_.end()) {
      lru_.erase(pos->second);
      lru_pos_.erase(pos);
    }
  }
  lk.unlock();
  // Take the page latch shared so we do not write a torn in-flight update.
  f->latch.LockShared();
  Status s = WriteFrame(f);
  if (s.ok()) {
    std::lock_guard<std::mutex> lk2(mu_);
    f->dirty = false;
    f->rec_lsn = kNullLsn;
  }
  f->latch.UnlockShared();
  Unpin(f);
  return s;
}

Status BufferPool::FlushAll() {
  std::vector<PageId> dirty;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [id, f] : page_table_) {
      if (f->dirty) dirty.push_back(id);
    }
  }
  for (PageId id : dirty) ARIES_RETURN_NOT_OK(FlushPage(id));
  return disk_->Sync();
}

Status BufferPool::DiscardPage(PageId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = page_table_.find(id);
  if (it == page_table_.end()) return Status::OK();
  Frame* f = it->second;
  if (f->pin_count > 0) {
    return Status::Busy("cannot discard pinned page " + std::to_string(id));
  }
  page_table_.erase(it);
  auto pos = lru_pos_.find(f);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
    lru_pos_.erase(pos);
  }
  f->page_id = kInvalidPageId;
  f->dirty = false;
  f->rec_lsn = kNullLsn;
  free_frames_.push_back(f);
  return Status::OK();
}

void BufferPool::MarkPendingRedo(
    const std::unordered_map<PageId, Lsn>& dpt) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [page, rec_lsn] : dpt) {
    // Oldest recLSN wins (a nested crash can re-mark a page that was
    // already pending with a fresher DPT entry).
    auto [it, inserted] = pending_redo_.emplace(page, rec_lsn);
    if (!inserted && rec_lsn < it->second) it->second = rec_lsn;
  }
}

size_t BufferPool::PendingRedoCount() {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_redo_.size();
}

bool BufferPool::NextPendingRedo(PageId* id) {
  std::lock_guard<std::mutex> lk(mu_);
  if (pending_redo_.empty()) return false;
  *id = pending_redo_.begin()->first;
  return true;
}

void BufferPool::DropAll() {
  std::lock_guard<std::mutex> lk(mu_);
  page_table_.clear();
  lru_.clear();
  lru_pos_.clear();
  free_frames_.clear();
  pending_redo_.clear();
  for (auto& f : frames_) {
    f->page_id = kInvalidPageId;
    f->pin_count = 0;
    f->dirty = false;
    f->rec_lsn = kNullLsn;
    free_frames_.push_back(f.get());
  }
}

std::vector<std::pair<PageId, Lsn>> BufferPool::DirtyPageTable() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<PageId, Lsn>> dpt;
  for (auto& [id, f] : page_table_) {
    if (f->dirty) dpt.emplace_back(id, f->rec_lsn);
  }
  // Evicted dirty frames whose write-back is still in flight are out of
  // page_table_ but not yet durable; count them as dirty so a concurrent
  // fuzzy checkpoint stays conservative. If the write-back succeeds the
  // extra entry merely costs redo a few page_lsn checks; if it fails the
  // entry is the only thing keeping the page's recLSN in the checkpoint.
  for (auto& [id, rec_lsn] : writing_back_) {
    dpt.emplace_back(id, rec_lsn);
  }
  // Pages still awaiting their first-touch redo carry unapplied log history
  // exactly like dirty frames do; a checkpoint that dropped them would let
  // a crash during instant restart lose their recLSNs (and with them the
  // pruned page-index chains' floor).
  for (auto& [id, rec_lsn] : pending_redo_) {
    dpt.emplace_back(id, rec_lsn);
  }
  return dpt;
}

}  // namespace ariesim
