// Buffer pool implementing the ARIES steal / no-force policies:
//  - steal: a dirty page may be written to disk before its transaction
//    commits (after forcing the log up to the page's page_LSN — the WAL
//    rule), so uncommitted changes can reach disk and must be undoable.
//  - no-force: commit does not flush data pages, only the log.
//
// Page latches (paper §2.1) live in the frames; callers obtain them through
// RAII PageGuards which also hold the pin.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/contention.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_cache.h"
#include "common/types.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/fault_injector.h"
#include "util/rwlatch.h"
#include "wal/log_manager.h"

namespace ariesim {

struct Frame {
  std::unique_ptr<char[]> data;
  /// Atomic so the CLOCK sweep can find the shard to lock; changes only
  /// while the frame is unmapped and pinned by the thread that claimed it.
  std::atomic<PageId> page_id{kInvalidPageId};
  /// A hit pins lock-free, kept if the count was >= 0 and the slot still
  /// holds the frame; unmaps CAS 0 -> kEvicting, then move it by deltas.
  std::atomic<int> pin_count{0};
  std::atomic<bool> referenced{false};  ///< CLOCK reference bit
  bool dirty = false;      // guarded by the shard of the frame's page
  Lsn rec_lsn = kNullLsn;  ///< LSN that first dirtied the page (for the DPT)
  alignas(64) RwLatch latch;  // off the pin counter's cache line
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

class BufferPool {
 public:
  BufferPool(DiskManager* disk, LogManager* log, size_t frames,
             Metrics* metrics, bool verify_checksums);
  ~BufferPool();

  /// Paranoid mode (tests): track the newest page_LSN written to disk and
  /// the newest page_LSN ever observed in memory per page; fail fast on a
  /// stale reload or on eviction of a clean frame that is newer than disk.
  void SetParanoid(bool on) { paranoid_ = on; }

  /// Pin + latch page `id`, reading it from disk on a miss.
  Result<PageGuard> FetchPage(PageId id, LatchMode mode);

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
  /// with the page still quarantined by its loading mark — no guard on it can
  /// exist, so no new log records for it can be appended. The handler
  /// rebuilds the page image into the supplied frame buffer (and persists
  /// it); on OK the fetch proceeds as if the read had succeeded. An empty
  /// handler disables online repair.
  using RepairHandler = std::function<Status(PageId, char*)>;
  void SetRepairHandler(RepairHandler handler) {
    repair_ = std::move(handler);
  }

  /// Instant-restart hook (docs/ARCHITECTURE.md, "Instant restart"): called
  /// from a fetch miss on a page marked pending-redo, after the disk image
  /// passed its checksum, with the page still quarantined by its loading
  /// mark. Arguments: page id, frame buffer holding the disk
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

  /// One slice of the pool. A page's slot and all its state change only
  /// under the mutex of the shard its id hashes to, and no code path holds
  /// two shards at once, so DirtyPageTable() reads the shards one at a time.
  struct alignas(64) Shard {
    std::mutex mu;
    std::condition_variable cv;  ///< a loading mark or `writing_back` left
    int waiters = 0;  ///< threads in `cv.wait`: Wake() notifies only if any
    /// Evicted dirty frames still being written back, keyed to rec_lsn.
    /// Fetches must not reload them from disk until the write lands, and
    /// DirtyPageTable() must report them: a failed write-back re-maps the
    /// frame dirty, and a checkpoint DPT missing the page would let restart
    /// redo skip its records between the true recLSN and its next update.
    std::unordered_map<PageId, Lsn> writing_back;
    /// Instant restart: pages awaiting first-touch redo, keyed to their
    /// analysis recLSN; never mapped (the fetch miss erases the entry).
    /// DirtyPageTable() reports them so a checkpoint taken while the debt
    /// drains keeps their recLSNs, making a crash during instant restart
    /// recoverable.
    std::unordered_map<PageId, Lsn> pending_redo;
  };
  static constexpr size_t kShards = 64;
  Shard& ShardFor(PageId id) {
    return shards_[(id * 0x9e3779b97f4a7c15ull) >> 58];
  }
  static constexpr int kEvicting = -(1 << 30);  // pin_count while unmapping

  /// The page table: one slot per page id, in chunks allocated on a miss.
  /// A slot is empty, holds LoadingMark() (a miss is reading, repairing or
  /// replaying the page: the quarantine; other fetchers wait on `cv`), or
  /// the page's frame, stored (release) after the frame's fields are set.
  /// Slots change only under the page's shard mutex.
  using Slot = std::atomic<Frame*>;
  static constexpr int kChunkBits = 12;  // 4096 slots = 32 KiB a chunk
  static constexpr PageId kChunkSlots = PageId{1} << kChunkBits;
  static constexpr size_t kDirBytes =
      (size_t{1} << (32 - kChunkBits)) * sizeof(std::atomic<Slot*>);
  static Frame* LoadingMark() { return reinterpret_cast<Frame*>(uintptr_t{1}); }
  static bool IsFrame(Frame* f) { return f != nullptr && f != LoadingMark(); }
  Slot* SlotOf(PageId id, bool create);  // nullptr: no chunk and !create
  Frame* TryPin(PageId id);  // lock-free hit: the frame pinned, or nullptr
  Frame* Mapped(PageId id);  // the frame mapped to `id`; holds shard mutex
  /// Unmap `f` from `id`'s slot if it is there and unpinned (caller holds
  /// the shard mutex), leaving the count at `bias` plus hitters' transients.
  bool Unmap(PageId id, Frame* f, int bias);
  /// Calls fn(frame) for each frame mapped to a page of `sh`, which the
  /// caller holds: a scan of the frame array, filtered by shard.
  template <typename Fn>
  void ForEachMapped(Shard& sh, Fn fn);
  static void Wake(Shard& sh) {  // caller holds sh.mu
    if (sh.waiters != 0) sh.cv.notify_all();
  }
  void PushFree(Frame* f);
  static constexpr size_t kClockBatch = 8;  // frames per hand fetch_add
  static constexpr size_t kSweepPasses = 16;  // before ClaimFrame gives up
  /// Takes a free frame, or CLOCK-sweeps for an unpinned one and unmaps it
  /// from its slot (moving a dirty one into its shard's `writing_back`).
  /// The frame comes back pinned once; nullptr if every frame is pinned.
  Frame* ClaimFrame();
  /// The calling thread's `left` unvisited CLOCK positions from `next`
  /// (wrapping) in this pool's frames. Kept across claims, so a thread takes
  /// the shared hand once per kClockBatch frames it visits.
  struct ClockBatch {
    Frame* next = nullptr;
    size_t left = 0;
  };
  ThreadCache<BufferPool, ClockBatch> batch_;

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

  std::array<Shard, kShards> shards_;
  std::atomic<Slot*>* chunks_ = nullptr;  // mmap'd; untouched pages are free
  std::mutex chunk_mu_;          // guards chunk_store_; taken to add a chunk
  std::vector<std::unique_ptr<Slot[]>> chunk_store_;
  std::vector<Frame> frames_;  // one array, which CLOCK batches walk
  std::atomic<size_t> clock_hand_{0};
  PageContention latch_contention_;
  std::mutex free_mu_;  // guards free_frames_ only
  std::vector<Frame*> free_frames_;
  std::atomic<size_t> free_count_{0};  // free_frames_.size(), read unlocked
  bool paranoid_ = false;
  std::mutex paranoid_mu_;
  std::unordered_map<PageId, Lsn> last_written_;   // newest LSN on disk
  std::unordered_map<PageId, Lsn> last_observed_;  // newest LSN seen in memory
};

}  // namespace ariesim
