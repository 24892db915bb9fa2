// ARIES/IM B+-tree (the paper's core contribution).
//
// Concurrency (paper §2):
//  - root-to-leaf traversal with latch coupling, at most 2 page latches held
//    (Figure 4); the per-index tree latch is NOT acquired on traversals;
//  - a traverser that encounters an ambiguous page of an in-progress SMO
//    (SM_Bit=1 and the key lies beyond the page's highest key, or an empty
//    page) releases its latches, takes the tree latch S for instant
//    duration to wait the SMO out, and re-descends;
//  - a leaf modification with SM_Bit or (for inserts) Delete_Bit set first
//    establishes a point of structural consistency: conditional instant S
//    tree latch under the leaf X latch, else wait and retry (Figures 6, 7,
//    11);
//  - key locks are taken through a pluggable LockingProtocol (Figure 2);
//    every lock request made under a latch is conditional — on denial all
//    latches are released, the lock is acquired unconditionally, and the
//    operation revalidates / retries (§2.2);
//  - SMOs (page split / page delete) are serialized by an X tree latch and
//    run as nested top actions bracketed by a dummy CLR (Figures 8-10).
//
// Recovery (paper §3): every page change is logged page-oriented; undo of
// key inserts/deletes is page-oriented when possible and logical (re-
// traversal, possibly with an SMO logged as *regular* records inside a
// nested top action) otherwise.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "btree/locking_protocol.h"
#include "btree/node.h"
#include "buffer/buffer_pool.h"
#include "common/context.h"
#include "common/status.h"
#include "recovery/resource_manager.h"
#include "storage/space_manager.h"
#include "txn/transaction_manager.h"
#include "util/rwlatch.h"

namespace ariesim {

/// Fetch starting conditions (paper §1.1: "a starting condition (=, >, or
/// >=) will also be given"; a partial key value may be given with kPrefix).
enum class FetchCond : uint8_t { kEq, kGe, kGt, kPrefix };

struct FetchResult {
  bool found = false;  ///< a key satisfying the condition exists
  bool eof = false;    ///< positioned past the last key in the index
  std::string value;
  Rid rid;
};

/// Range-scan state for Fetch Next (paper §2.3). The cursor remembers the
/// leaf and its page LSN so an unchanged leaf allows direct repositioning;
/// otherwise the tree is re-traversed from the root.
struct ScanCursor {
  bool open = false;
  bool at_eof = false;
  std::string last_value;
  Rid last_rid;
  PageId leaf = kInvalidPageId;
  Lsn leaf_lsn = kNullLsn;
  uint16_t pos = 0;
  // Stopping specification (paper §1.1 Fetch Next).
  bool has_stop = false;
  std::string stop_value;
  bool stop_inclusive = true;
};

class BTree {
 public:
  BTree(EngineContext* ctx, ObjectId index_id, ObjectId table_id, PageId root,
        bool unique, std::unique_ptr<LockingProtocol> protocol)
      : ctx_(ctx),
        index_id_(index_id),
        table_id_(table_id),
        root_(root),
        unique_(unique),
        proto_(std::move(protocol)) {}

  /// Allocate and format the (fixed, never-moving) root page of a new index.
  static Result<PageId> CreateRoot(EngineContext* ctx, Transaction* txn,
                                   ObjectId index_id);

  ObjectId index_id() const { return index_id_; }
  ObjectId table_id() const { return table_id_; }
  PageId root() const { return root_; }
  bool unique() const { return unique_; }
  RwLatch* tree_latch() { return &tree_latch_; }

  // -- the four basic operations (paper §1.1) ---------------------------
  /// Fetch: locate `value` (or the next higher key) under `cond`; S-commit
  /// lock the found key (or the index-EOF name). `out->found` reflects the
  /// condition; a kEq miss returns OK with found=false (the not-found state
  /// is protected by the lock, guaranteeing repeatable read).
  Status Fetch(Transaction* txn, std::string_view value, FetchCond cond,
               FetchResult* out);

  /// Open a range scan at the first key satisfying (value, cond). The
  /// optional stopping key bounds FetchNext.
  Status OpenScan(Transaction* txn, std::string_view value, FetchCond cond,
                  ScanCursor* cursor, FetchResult* first);
  Status SetStop(ScanCursor* cursor, std::string_view stop_value,
                 bool inclusive);
  Status FetchNext(Transaction* txn, ScanCursor* cursor, FetchResult* out);

  /// Insert key (value, rid). Duplicate key values are rejected for unique
  /// indexes with kDuplicate.
  Status Insert(Transaction* txn, std::string_view value, Rid rid);

  /// Delete key (value, rid).
  Status Delete(Transaction* txn, std::string_view value, Rid rid);

  // -- undo entry points (called by the btree resource manager) ----------
  Status UndoInsertKey(Transaction* txn, const LogRecord& rec);
  Status UndoDeleteKey(Transaction* txn, const LogRecord& rec);

  // -- verification helpers ----------------------------------------------
  /// Structural validation: separator invariants, leaf-chain consistency,
  /// no orphan SM-free empty pages, level coherence. Test-only (assumes a
  /// quiescent tree).
  Status Validate(size_t* key_count = nullptr);
  /// Collect all (value, rid) pairs via the leaf chain (test-only).
  Status CollectAll(std::vector<std::pair<std::string, Rid>>* out);

  /// Maximum key-value length accepted (keeps several cells per page).
  size_t MaxValueLen() const { return ctx_->options.page_size / 16; }

  /// Failure injection (tests only): make the n-th subsequent split step
  /// fail after its page-level records are written but before the SMO's
  /// dummy CLR — the "crash mid-SMO" window of Figures 9-11. Negative
  /// disables.
  void TestSetFailAfterSplits(int n) { test_fail_after_splits_.store(n); }
  /// Failure injection (tests only): one-shot failure in the middle of the
  /// next split, after the keys moved right but before the parent learns of
  /// the new page — the structurally inconsistent state of Figure 3.
  void TestSetFailBeforeParentSplice() {
    test_fail_before_splice_.store(true);
  }

 private:
  friend class BtreeResourceManager;

  // Traversal (Figure 4). On success `*leaf` holds the S (fetch) or X
  // (modify) latched leaf covering (value, rid). With `tree_latch_held`
  // (this thread owns the tree latch X) stale SM bits are ignored and
  // inconsistencies are errors rather than wait-and-retry.
  Status TraverseToLeaf(std::string_view value, Rid rid, bool for_modify,
                        PageGuard* leaf, bool tree_latch_held = false);
  /// The read-path descent: TraverseToLeaf(for_modify=false), timed into
  /// read_descent_latency.
  Status TraverseToLeafRead(std::string_view value, Rid rid, PageGuard* leaf);
  /// Wait out an in-progress SMO: release nothing (caller already did),
  /// instant-S the tree latch.
  void WaitForSmo();
  /// Blocking X acquisition of the tree latch, counting the acquisition and
  /// (when contended) a tree_latch_wait. Stamps the hold start for
  /// UnlockTreeExclusiveCounted's hold-time histogram.
  void LockTreeExclusiveCounted();
  /// Release an X acquisition made through LockTreeExclusiveCounted,
  /// recording the hold time into tree_latch_hold_latency.
  void UnlockTreeExclusiveCounted();

  /// Path of page ids root→leaf; only valid while the tree latch is held X.
  Status TraversePath(std::string_view value, Rid rid,
                      std::vector<PageId>* path);

  // Leaf action routines. They may return:
  //  kRetry   — latches were released; restart from traversal
  //  kNoSpace — insert needs a split (latches released)
  // When the caller owns the tree latch X and a lock must be waited for
  // unconditionally, the latch is released first (locks are never awaited
  // under the tree latch, §4) and *tree_latch_released is set.
  Status InsertAtLeaf(Transaction* txn, PageGuard leaf, std::string_view value,
                      Rid rid, bool tree_latch_held,
                      bool* tree_latch_released = nullptr);
  Status DeleteAtLeaf(Transaction* txn, PageGuard leaf, std::string_view value,
                      Rid rid, bool tree_latch_x_held, bool* needs_page_delete,
                      bool* needs_tree_x, bool* tree_latch_released = nullptr);

  /// Handle SM_Bit / Delete_Bit on a to-be-modified leaf (Figures 6/7/11):
  /// conditional instant S tree latch under the held X leaf latch; on
  /// success clears the bits (a POSC is established); on denial releases
  /// the leaf, waits, and returns kRetry.
  Status EnsureNoSmo(PageGuard& leaf, bool clear_delete_bit,
                     bool tree_latch_held);

  // -- SMOs (smo.cpp) ------------------------------------------------------
  /// Split path: acquires the tree latch X, performs the split(s) as a
  /// nested top action, then retries the insert while still holding the
  /// latch (Figure 8). kRetry means a lock was not grantable and all
  /// latches were released.
  Status SplitSmoAndInsert(Transaction* txn, std::string_view value, Rid rid);
  /// Make room for (value, rid)'s leaf: split pages top-down as needed.
  /// Caller holds the tree latch X. Runs inside an open NTA. Pages whose
  /// SM_Bit was set are appended to `touched` so the caller can perform the
  /// Figure 8 reset after the dummy CLR.
  Status MakeRoomForKey(Transaction* txn, std::string_view value, Rid rid,
                        std::vector<PageId>* touched);
  /// Split `node` (leaf or internal) into a new right sibling; `parent`
  /// must have room for the splice. Caller holds the tree latch X.
  Status DoOneSplit(Transaction* txn, PageId parent, PageId node,
                    std::vector<PageId>* touched);
  /// Grow the root: move its cells to a fresh child, root becomes internal.
  Status RootGrow(Transaction* txn, std::vector<PageId>* touched);
  /// Delete the empty page `leaf` (already key-deleted and X-latched by the
  /// caller, who holds the tree latch X). Consumes the guard. Runs its own
  /// NTA unless `in_nta`.
  Status PageDeleteSmo(Transaction* txn, PageGuard leaf, std::string_view value,
                       Rid rid);
  /// Remove child `child` from its parent along the path for (value, rid),
  /// recursing upward; collapses / resets the root as needed.
  Status RemoveFromParent(Transaction* txn, PageId child, std::string_view value,
                          Rid rid, std::vector<PageId>* touched);
  /// The Figure 8 reset: after an SMO completes (dummy CLR written), clear
  /// the SM_Bits it set, still under the tree latch X. The paper calls this
  /// optional for correctness; it is required for liveness under sustained
  /// SMO traffic (stale bits would make traversers wait forever). Unlogged:
  /// bits lost in a crash self-heal through the conditional-probe path.
  void ClearSmBits(const std::vector<PageId>& pages);

  // -- undo helpers (undo.cpp) ---------------------------------------------
  Status LogicalUndoInsert(Transaction* txn, const LogRecord& rec,
                           std::string_view value, Rid rid);
  Status LogicalUndoDelete(Transaction* txn, const LogRecord& rec,
                           std::string_view value, Rid rid);

  /// Append a key-op record (forward or CLR) against `page`.
  Result<Lsn> LogKeyOp(Transaction* txn, uint8_t op, PageId page,
                       std::string_view value, Rid rid, bool set_delete_bit,
                       bool clr, Lsn undo_next);

  Status ValidateSubtree(PageId id, uint8_t expected_level, bool is_root,
                         const std::string* low, const Rid* low_rid,
                         bool has_low, const std::string* high, const Rid* high_rid,
                         bool has_high, size_t* key_count, PageId* leftmost_leaf);

  EngineContext* ctx_;
  ObjectId index_id_;
  ObjectId table_id_;
  PageId root_;
  bool unique_;
  std::unique_ptr<LockingProtocol> proto_;
  RwLatch tree_latch_;
  /// Hold-start stamp for the tree latch's X owner (one X holder at a time;
  /// written by the acquirer in LockTreeExclusiveCounted, read by the same
  /// thread in UnlockTreeExclusiveCounted).
  std::atomic<uint64_t> tree_x_acquired_ns_{0};
  std::atomic<int> test_fail_after_splits_{-1};
  std::atomic<bool> test_fail_before_splice_{false};
};

/// Btree resource manager: dispatches redo through bt::Apply and undo
/// through the owning BTree (resolved via the catalog callback).
class BtreeResourceManager final : public ResourceManager {
 public:
  using TreeResolver = std::function<BTree*(ObjectId)>;

  BtreeResourceManager(EngineContext* ctx, TreeResolver resolver)
      : ctx_(ctx), resolver_(std::move(resolver)) {}

  Status Redo(const LogRecord& rec, PageView page) override;
  Status Undo(Transaction* txn, const LogRecord& rec) override;

 private:
  EngineContext* ctx_;
  TreeResolver resolver_;
};

}  // namespace ariesim
