#include "buffer/buffer_pool.h"

#include <sys/mman.h>

#include <atomic>
#include <new>
#include <thread>

#include "common/clock.h"
#include "common/commit_breakdown.h"
#include "common/trace.h"
#include "util/crc32c.h"

namespace ariesim {

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
      verify_checksums_(verify_checksums),
      frames_(frames) {
  void* dir = mmap(nullptr, kDirBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (dir == MAP_FAILED) throw std::bad_alloc();
  chunks_ = static_cast<std::atomic<Slot*>*>(dir);
  for (Frame& f : frames_) {
    f.data = std::make_unique<char[]>(page_size_);
    free_frames_.push_back(&f);
  }
  free_count_.store(frames, std::memory_order_relaxed);
}

BufferPool::~BufferPool() { munmap(chunks_, kDirBytes); }

BufferPool::Slot* BufferPool::SlotOf(PageId id, bool create) {
  std::atomic<Slot*>& entry = chunks_[id >> kChunkBits];
  Slot* chunk = entry.load(std::memory_order_acquire);
  if (chunk == nullptr && create) {
    std::lock_guard<std::mutex> lk(chunk_mu_);
    if ((chunk = entry.load(std::memory_order_relaxed)) == nullptr) {
      chunk_store_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      chunk = chunk_store_.back().get();
      entry.store(chunk, std::memory_order_release);
    }
  }
  return chunk == nullptr ? nullptr : &chunk[id & (kChunkSlots - 1)];
}

Frame* BufferPool::TryPin(PageId id) {
  Slot* slot = SlotOf(id, false);
  Frame* f = slot ? slot->load(std::memory_order_acquire) : nullptr;
  if (!IsFrame(f)) return nullptr;
  // A pin landing after an unmap's CAS sees a negative count or, through
  // the acquire, the cleared slot; one landing before fails the CAS.
  if (f->pin_count.fetch_add(1, std::memory_order_acquire) >= 0 &&
      slot->load(std::memory_order_acquire) == f) {
    return f;
  }
  f->pin_count.fetch_sub(1, std::memory_order_release);
  return nullptr;
}

Frame* BufferPool::Mapped(PageId id) {
  Slot* slot = SlotOf(id, false);
  Frame* f = slot ? slot->load(std::memory_order_relaxed) : nullptr;
  return IsFrame(f) ? f : nullptr;
}

bool BufferPool::Unmap(PageId id, Frame* f, int bias) {
  if (Mapped(id) != f) return false;
  int unpinned = 0;  // acquire: the last holder's writes reach write-back
  if (!f->pin_count.compare_exchange_strong(unpinned, kEvicting,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
    return false;
  }
  SlotOf(id, false)->store(nullptr, std::memory_order_relaxed);
  f->pin_count.fetch_add(bias - kEvicting, std::memory_order_release);
  return true;
}

template <typename Fn>
void BufferPool::ForEachMapped(Shard& sh, Fn fn) {
  for (Frame& f : frames_) {
    const PageId pid = f.page_id.load(std::memory_order_relaxed);
    if (pid != kInvalidPageId && &ShardFor(pid) == &sh && Mapped(pid) == &f) {
      fn(&f);
    }
  }
}

void BufferPool::PushFree(Frame* f) {
  std::lock_guard<std::mutex> flk(free_mu_);
  free_frames_.push_back(f);
  free_count_.store(free_frames_.size(), std::memory_order_relaxed);
}

Frame* BufferPool::ClaimFrame() {
  if (free_count_.load(std::memory_order_relaxed) != 0) {
    std::lock_guard<std::mutex> flk(free_mu_);
    if (!free_frames_.empty()) {
      Frame* f = free_frames_.back();
      free_frames_.pop_back();
      free_count_.store(free_frames_.size(), std::memory_order_relaxed);
      f->pin_count.fetch_add(1, std::memory_order_acquire);
      return f;
    }
  }
  // Two passes clear every reference bit; later ones ignore them, so hits
  // racing the sweep cannot starve a miss while an unpinned frame exists.
  // Passes after the third yield each batch: when a pool is not much larger
  // than its thread count, the one unpinned frame can move between looks.
  const size_t n = frames_.size();
  ClockBatch& b = batch_;
  for (size_t step = 0; step < kSweepPasses * n; ++step) {
    if (b.pool != id_ || b.left == 0) {
      if (step >= 3 * n) std::this_thread::yield();
      const size_t hand =
          clock_hand_.fetch_add(kClockBatch, std::memory_order_relaxed);
      b = {id_, &frames_[hand % n], kClockBatch};
    }
    Frame* f = b.next;
    b.next = f == &frames_.back() ? frames_.data() : f + 1;
    --b.left;
    if (f->pin_count.load(std::memory_order_relaxed) != 0) continue;
    if (f->referenced.load(std::memory_order_relaxed) && step < 2 * n) {
      f->referenced.store(false, std::memory_order_relaxed);
      continue;
    }
    const PageId pid = f->page_id.load(std::memory_order_relaxed);
    if (pid == kInvalidPageId) continue;  // free, or a failed load's
    Shard& sh = ShardFor(pid);
    std::lock_guard<std::mutex> slk(sh.mu);
    if (!Unmap(pid, f, 1)) continue;
    // Same critical section as the unmap: the page never vanishes from both
    // its slot and writing_back, so no fetch can reload a stale image and no
    // DirtyPageTable() can miss it.
    if (f->dirty) sh.writing_back.emplace(pid, f->rec_lsn);
    return f;
  }
  return nullptr;
}

Result<Frame*> BufferPool::FetchFrame(PageId id) {
  if (Frame* f = TryPin(id)) return f;
  Shard& sh = ShardFor(id);
  Slot* slot = nullptr;
  bool pending = false;
  Lsn pending_rec_lsn = kNullLsn;
  {
    std::unique_lock<std::mutex> lk(sh.mu);
    slot = SlotOf(id, true);
    while (true) {
      Frame* f = slot->load(std::memory_order_relaxed);
      if (IsFrame(f)) {  // not unmapping: that needs the mutex
        f->pin_count.fetch_add(1, std::memory_order_relaxed);
        return f;
      }
      // Wait while someone else is loading this page OR while an evicted
      // dirty copy of it is still being written back — re-reading the page
      // from disk before the write-back lands would resurrect a stale
      // version and silently lose committed updates.
      if (f == nullptr && sh.writing_back.count(id) == 0) break;
      ++sh.waiters;
      sh.cv.wait(lk);
      --sh.waiters;
    }
    slot->store(LoadingMark(), std::memory_order_relaxed);
    // Instant restart: the quarantine keeps the schedule stable until this
    // fetch resolves it.
    if (auto pit = sh.pending_redo.find(id); pit != sh.pending_redo.end()) {
      pending = true;
      pending_rec_lsn = pit->second;
    }
  }
  // Miss latency: everything from claiming a frame to the page being
  // usable — free list or CLOCK sweep, evict write-back, disk read,
  // checksum verify and (worst case) online repair.
  const uint64_t miss_start_ns = MonotonicNowNs();
  ARIES_TRACE_SPAN(miss_span, "bp.miss", TraceCat::kBuffer, id);
  Frame* victim = ClaimFrame();
  if (victim == nullptr) {
    std::lock_guard<std::mutex> lk(sh.mu);
    slot->store(nullptr, std::memory_order_relaxed);
    Wake(sh);
    return Status::Busy("buffer pool exhausted (all frames pinned)");
  }

  Status s;
  bool victim_persisted = true;
  if (victim->dirty) {
    const PageId old_id = victim->page_id.load(std::memory_order_relaxed);
    ARIES_TRACE_SPAN(evict_span, "bp.evict_write", TraceCat::kBuffer, old_id);
    s = WriteFrame(victim);
    victim_persisted = s.ok();
    Shard& old = ShardFor(old_id);
    std::lock_guard<std::mutex> olk(old.mu);
    old.writing_back.erase(old_id);
    if (!victim_persisted) {
      // The dirty victim never reached disk, so this frame still holds the
      // only current copy of the page. Map it back instead of freeing it —
      // freeing it would silently discard committed updates whose log
      // prefix may not even be durable yet. No other thread can have
      // reloaded the page meanwhile: its id sat in writing_back until this
      // same critical section.
      SlotOf(old_id, false)->store(victim, std::memory_order_release);
      victim->pin_count.fetch_sub(1, std::memory_order_release);
    }
    Wake(old);
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
    // Online quarantine + repair: `id`'s slot still holds the loading
    // mark, so no guard on this page exists anywhere and no new log records
    // for it can be appended while the handler replays its history into
    // the claimed frame. Other pages keep flowing normally.
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
  if (!s.ok() && victim_persisted) {
    victim->page_id.store(kInvalidPageId, std::memory_order_relaxed);
    victim->dirty = false;
    victim->rec_lsn = kNullLsn;
    victim->pin_count.fetch_sub(1, std::memory_order_release);
    PushFree(victim);
  }
  std::lock_guard<std::mutex> lk(sh.mu);
  Wake(sh);
  if (!s.ok()) {
    slot->store(nullptr, std::memory_order_relaxed);
    return s;
  }
  victim->page_id.store(id, std::memory_order_relaxed);
  victim->dirty = false;
  victim->rec_lsn = kNullLsn;
  if (pending) {
    sh.pending_redo.erase(id);
    if (lazy_first_applied != kNullLsn) {
      // The replayed image is newer than disk; recLSN is the first record
      // the replay applied, exactly as if redo had dirtied the page.
      victim->dirty = true;
      victim->rec_lsn = lazy_first_applied;
    }
    if (metrics_ != nullptr) {
      metrics_->pages_recovered_lazily.fetch_add(1, std::memory_order_relaxed);
    }
  }
  slot->store(victim, std::memory_order_release);
  return victim;
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

void BufferPool::Unpin(Frame* frame) {
  // Test first: hot frames keep the bit set and skip the store.
  if (!frame->referenced.load(std::memory_order_relaxed)) {
    frame->referenced.store(true, std::memory_order_relaxed);
  }
  frame->pin_count.fetch_sub(1, std::memory_order_release);
}

void BufferPool::NoteDirty(Frame* frame, Lsn lsn) {
  // The caller's pin keeps the frame mapped to its page.
  std::lock_guard<std::mutex> lk(ShardFor(frame->page_id).mu);
  if (!frame->dirty) {
    frame->dirty = true;
    frame->rec_lsn = lsn;
  }
}

void BufferPool::NoteDirtyById(PageId id, Lsn lsn) {
  Shard& sh = ShardFor(id);
  std::lock_guard<std::mutex> lk(sh.mu);
  Frame* f = Mapped(id);
  if (f == nullptr) return;  // caller will dirty it on apply
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
  Shard& sh = ShardFor(id);
  Frame* f;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    f = Mapped(id);
    if (f == nullptr || !f->dirty) return Status::OK();
    f->pin_count.fetch_add(1, std::memory_order_relaxed);
  }
  // Exclusive: no torn in-flight update, and WriteFrame's checksum stamp
  // into the frame cannot race a concurrent flush of the same page.
  f->latch.LockExclusive();
  Status s = WriteFrame(f);
  if (s.ok()) {
    std::lock_guard<std::mutex> lk(sh.mu);
    f->dirty = false;
    f->rec_lsn = kNullLsn;
  }
  f->latch.UnlockExclusive();
  Unpin(f);
  return s;
}

Status BufferPool::FlushAll() {
  // Entries for pages not resident (write-back in flight, pending redo) are
  // no-ops in FlushPage.
  for (auto& [id, rec_lsn] : DirtyPageTable()) {
    ARIES_RETURN_NOT_OK(FlushPage(id));
  }
  return disk_->Sync();
}

Status BufferPool::DiscardPage(PageId id) {
  Shard& sh = ShardFor(id);
  std::lock_guard<std::mutex> lk(sh.mu);
  Frame* f = Mapped(id);
  if (f == nullptr) return Status::OK();
  if (!Unmap(id, f, 0)) {
    return Status::Busy("cannot discard pinned page " + std::to_string(id));
  }
  f->page_id.store(kInvalidPageId, std::memory_order_relaxed);
  f->dirty = false;
  f->rec_lsn = kNullLsn;
  PushFree(f);  // shard -> free_mu_, never back
  return Status::OK();
}

void BufferPool::MarkPendingRedo(
    const std::unordered_map<PageId, Lsn>& dpt) {
  for (auto& [page, rec_lsn] : dpt) {
    Shard& sh = ShardFor(page);
    std::lock_guard<std::mutex> lk(sh.mu);
    // Oldest recLSN wins (a nested crash can re-mark a page that was
    // already pending with a fresher DPT entry).
    auto [it, inserted] = sh.pending_redo.emplace(page, rec_lsn);
    if (!inserted && rec_lsn < it->second) it->second = rec_lsn;
  }
}

size_t BufferPool::PendingRedoCount() {
  size_t n = 0;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    n += sh.pending_redo.size();
  }
  return n;
}

bool BufferPool::NextPendingRedo(PageId* id) {
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    if (!sh.pending_redo.empty()) {
      *id = sh.pending_redo.begin()->first;
      return true;
    }
  }
  return false;
}

void BufferPool::DropAll() {
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    ForEachMapped(sh, [&](Frame* f) {
      SlotOf(f->page_id, false)->store(nullptr, std::memory_order_relaxed);
      f->page_id.store(kInvalidPageId, std::memory_order_relaxed);
      f->pin_count.store(0, std::memory_order_relaxed);  // quiesced
      f->dirty = false;
      f->rec_lsn = kNullLsn;
    });
    sh.pending_redo.clear();
  }
  std::lock_guard<std::mutex> flk(free_mu_);
  free_frames_.clear();
  for (Frame& f : frames_) free_frames_.push_back(&f);
  free_count_.store(free_frames_.size(), std::memory_order_relaxed);
}

std::vector<std::pair<PageId, Lsn>> BufferPool::DirtyPageTable() {
  std::vector<std::pair<PageId, Lsn>> dpt;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    ForEachMapped(sh, [&](Frame* f) {
      if (f->dirty) dpt.emplace_back(f->page_id, f->rec_lsn);
    });
    // Evicted dirty frames whose write-back is still in flight are out of
    // their slots but not yet durable; count them as dirty so a concurrent
    // fuzzy checkpoint stays conservative. If the write-back succeeds the
    // extra entry merely costs redo a few page_lsn checks; if it fails the
    // entry is the only thing keeping the page's recLSN in the checkpoint.
    for (auto& [id, rec_lsn] : sh.writing_back) dpt.emplace_back(id, rec_lsn);
    // Pages still awaiting their first-touch redo carry unapplied log
    // history exactly like dirty frames do; a checkpoint that dropped them
    // would let a crash during instant restart lose their recLSNs (and with
    // them the pruned page-index chains' floor).
    for (auto& [id, rec_lsn] : sh.pending_redo) dpt.emplace_back(id, rec_lsn);
  }
  return dpt;
}

}  // namespace ariesim
