// Buffer pool implementing the ARIES steal / no-force policies:
//  - steal: a dirty page may be written to disk before its transaction
//    commits (after forcing the log up to the page's page_LSN — the WAL
//    rule), so uncommitted changes can reach disk and must be undoable.
//  - no-force: commit does not flush data pages, only the log.
//
// Page latches (paper §2.1) live in the frames; callers obtain them through
// RAII PageGuards which also hold the pin.
#pragma once

#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/contention.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/fault_injector.h"
#include "util/rwlatch.h"
#include "wal/log_manager.h"

namespace ariesim {

struct Frame {
  std::unique_ptr<char[]> data;
  PageId page_id = kInvalidPageId;
  int pin_count = 0;    // protected by pool mutex
  bool dirty = false;   // protected by pool mutex
  Lsn rec_lsn = kNullLsn;  ///< LSN that first dirtied the page (for the DPT)
  /// The page latch; its version is the optimistic readers' seqlock. Guards
  /// hold a pin, so a version never aliases across pages.
  RwLatch latch;
};

class BufferPool;

/// RAII pin + latch over a page. Move-only.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, Frame* frame, LatchMode mode)
      : pool_(pool), frame_(frame), mode_(mode) {}
  ~PageGuard() { Release(); }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept;

  bool valid() const { return frame_ != nullptr; }
  PageView view() const;
  PageId page_id() const;
  LatchMode mode() const { return mode_; }

  /// Record that the holder changed the page under log record `lsn`:
  /// updates page_LSN and the dirty/recLSN bookkeeping.
  void MarkDirty(Lsn lsn);

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  Frame* frame_ = nullptr;
  LatchMode mode_ = LatchMode::kShared;
};

/// Pin-only guard for the optimistic (latch-free) read path. Holds no
/// latch: the holder may only look at the page through TrySnapshot(), which
/// copies the bytes and tells whether the copy is consistent, and Validate(),
/// which re-checks a previously returned version. The pin keeps the
/// frame↔page binding (and so the latch version's meaning) stable.
/// Move-only.
class OptimisticPageGuard {
 public:
  OptimisticPageGuard() = default;
  OptimisticPageGuard(BufferPool* pool, Frame* frame)
      : pool_(pool), frame_(frame) {}
  ~OptimisticPageGuard() { Release(); }
  OptimisticPageGuard(const OptimisticPageGuard&) = delete;
  OptimisticPageGuard& operator=(const OptimisticPageGuard&) = delete;
  OptimisticPageGuard(OptimisticPageGuard&& o) noexcept {
    *this = std::move(o);
  }
  OptimisticPageGuard& operator=(OptimisticPageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      frame_ = o.frame_;
      o.frame_ = nullptr;
    }
    return *this;
  }

  /// Stable while the pin is held (remaps happen only at pin_count == 0).
  PageId page_id() const { return frame_->page_id; }

  /// Copy the page into `dst` (page_size() bytes) without latching. Returns
  /// true iff the copy is consistent — no X holder was active at its start
  /// and none came during it — and stores the latch version in *version_out
  /// for later Validate() calls. On false the contents of `dst` are
  /// unspecified and must not be parsed.
  bool TrySnapshot(char* dst, uint64_t* version_out) const;

  /// True iff no X latch has been acquired on the frame since the snapshot
  /// that returned `version`.
  bool Validate(uint64_t version) const {
    return frame_->latch.Validate(version);
  }

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  Frame* frame_ = nullptr;
};

class BufferPool {
 public:
  BufferPool(DiskManager* disk, LogManager* log, size_t frames,
             Metrics* metrics, bool verify_checksums);

  /// Paranoid mode (tests): track the newest page_LSN written to disk and
  /// the newest page_LSN ever observed in memory per page; fail fast on a
  /// stale reload or on eviction of a clean frame that is newer than disk.
  void SetParanoid(bool on) { paranoid_ = on; }

  /// Pin + latch page `id`, reading it from disk on a miss.
  Result<PageGuard> FetchPage(PageId id, LatchMode mode);
  /// Pin for the optimistic read path: no latch, access only through the
  /// guard's snapshot/validate protocol (docs/CONCURRENCY.md).
  Result<OptimisticPageGuard> FetchPageOptimistic(PageId id);

  /// Write one page out (forcing the log first). Used by checkpoints and by
  /// tests that simulate a steal of a specific page.
  Status FlushPage(PageId id);
  /// Flush every dirty page (clean shutdown).
  Status FlushAll();

  /// Crash simulation: drop all frames without flushing.
  void DropAll();

  /// Drop the cached frame for `id` without writing it back (kBusy if the
  /// page is pinned). Used by recovery to discard a corrupt in-memory copy
  /// before rebuilding the page from the log.
  Status DiscardPage(PageId id);

  /// Per-page latch-contention heat map (PR 5): which pages waiters pile
  /// up on, by total wait time. Lock-free on the record path.
  using PageContention = ContentionSketch<PageId, std::hash<PageId>, 256>;
  std::vector<PageContention::Entry> TopLatchContention(size_t n) const {
    return latch_contention_.TopN(n);
  }
  uint64_t LatchContentionDropped() const {
    return latch_contention_.dropped();
  }

  /// Install a fault-injection hook consulted before each dirty write-back.
  /// Pass nullptr to detach. The injector must outlive this BufferPool.
  void SetFaultInjector(FaultInjector* fault) { fault_ = fault; }

  /// Online media recovery hook: called from a fetch miss whose read failed
  /// its checksum (or kept failing with an I/O error past disk retries),
  /// with the page still quarantined in io_in_progress_ — no guard on it
  /// can exist, so no new log records for it can be appended. The handler
  /// rebuilds the page image into the supplied frame buffer (and persists
  /// it); on OK the fetch proceeds as if the read had succeeded. An empty
  /// handler disables online repair.
  using RepairHandler = std::function<Status(PageId, char*)>;
  void SetRepairHandler(RepairHandler handler) {
    repair_ = std::move(handler);
  }

  /// Instant-restart hook (docs/ARCHITECTURE.md, "Instant restart"): called
  /// from a fetch miss on a page marked pending-redo, after the disk image
  /// passed its checksum, with the page still quarantined in
  /// io_in_progress_. Arguments: page id, frame buffer holding the disk
  /// image, the scheduled recLSN, and an out-param for the first LSN the
  /// replay applied (kNullLsn if the image was already current). On OK the
  /// page leaves the pending set and the fetch proceeds; on error the fetch
  /// fails and the page stays pending for a later retry.
  using LazyRedoHandler = std::function<Status(PageId, char*, Lsn, Lsn*)>;
  void SetLazyRedoHandler(LazyRedoHandler handler) {
    lazy_redo_ = std::move(handler);
  }

  /// Schedule pages for first-touch redo (instant restart): each page's
  /// next fetch miss runs the lazy-redo handler before the page becomes
  /// visible. Keyed to the analysis DPT recLSN (oldest wins on re-mark).
  /// Callers guarantee none of these pages is currently resident (the pool
  /// was dropped by the crash).
  void MarkPendingRedo(const std::unordered_map<PageId, Lsn>& dpt);

  /// Pages still awaiting first-touch redo.
  size_t PendingRedoCount();

  /// Pick any page still awaiting redo (for the background sweeper).
  /// Returns false when the set is empty.
  bool NextPendingRedo(PageId* id);

  /// Snapshot of the dirty page table for fuzzy checkpoints.
  std::vector<std::pair<PageId, Lsn>> DirtyPageTable();

  /// LogManager's append observer: register `id` dirty with recLSN `lsn`
  /// from inside the append critical section, before the caller applies the
  /// record to the (latched, pinned) page. Closes the window where a record
  /// ordered before a begin-checkpoint is missing from both the checkpoint
  /// DPT and the analysis scan. No-op if the page is not resident.
  void NoteDirtyById(PageId id, Lsn lsn);


  size_t page_size() const { return page_size_; }

 private:
  friend class PageGuard;
  friend class OptimisticPageGuard;

  /// Returns the frame holding `id`, pinned. Caller latches afterwards.
  Result<Frame*> FetchFrame(PageId id);
  void Unpin(Frame* frame);
  void NoteDirty(Frame* frame, Lsn lsn);
  Status WriteFrame(Frame* frame);  // WAL rule + checksum + disk write
  void ParanoidObserve(PageId id, Lsn lsn);
  Status ParanoidCheckLoad(PageId id, Lsn loaded_lsn);

  DiskManager* disk_;
  LogManager* log_;
  Metrics* metrics_;
  FaultInjector* fault_ = nullptr;
  RepairHandler repair_;
  LazyRedoHandler lazy_redo_;
  size_t page_size_;
  bool verify_checksums_;

  std::mutex mu_;
  std::condition_variable io_cv_;
  std::vector<std::unique_ptr<Frame>> frames_;
  std::unordered_map<PageId, Frame*> page_table_;
  std::list<Frame*> lru_;  // front = coldest unpinned frame
  std::unordered_map<Frame*, std::list<Frame*>::iterator> lru_pos_;
  std::unordered_set<PageId> io_in_progress_;
  PageContention latch_contention_;
  /// Pages whose evicted dirty frame is still being written back, keyed to
  /// the frame's rec_lsn. Readers must not reload them from disk until the
  /// write completes, and DirtyPageTable() must still report them: the
  /// write-back can fail (WAL-rule flush error, device fault), leaving the
  /// re-inserted frame dirty — a fuzzy checkpoint taken during the window
  /// would otherwise record a DPT missing the page, and restart redo would
  /// skip every log record between its true recLSN and its next update.
  std::unordered_map<PageId, Lsn> writing_back_;
  /// Instant restart: pages scheduled for first-touch redo, keyed to their
  /// analysis recLSN. Invariant: disjoint from page_table_ — the only path
  /// to residency (the fetch miss) erases the entry. DirtyPageTable() must
  /// report these pages so a checkpoint taken while the debt is draining
  /// keeps their recLSNs — that is what makes a crash *during* instant
  /// restart recoverable.
  std::unordered_map<PageId, Lsn> pending_redo_;
  std::vector<Frame*> free_frames_;
  bool paranoid_ = false;
  std::mutex paranoid_mu_;
  std::unordered_map<PageId, Lsn> last_written_;   // newest LSN on disk
  std::unordered_map<PageId, Lsn> last_observed_;  // newest LSN seen in memory
};

}  // namespace ariesim
