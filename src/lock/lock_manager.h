// Lock manager with multiple modes, durations, conditional requests, lock
// conversion, and waits-for-graph deadlock detection.
//
// Protocol contracts (paper §2.1, §4) enforced by the callers:
//  - never wait for a lock while holding a latch — request conditionally
//    first; on kBusy release latches, request unconditionally, revalidate;
//  - rolling-back transactions never request locks, so they never deadlock.
//
// Forensics (PR 5, docs/OBSERVABILITY.md): Snapshot() exports the queues,
// per-txn state, and waits-for edges the detector walks; every resolved
// deadlock is preserved in a bounded postmortem ring; per-lock-name wait
// heat lands in a lock-free ContentionSketch; an opt-in blocked-waiter
// watchdog dumps the snapshot + DOT once per episode when a wait exceeds
// its threshold.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/contention.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "lock/lock_forensics.h"
#include "lock/lock_mode.h"
#include "util/rwlatch.h"

namespace ariesim {

/// Observer hook for tests/benches verifying the Figure 2 locking matrix.
/// Called (under no internal mutex or latch) for every successful Lock() call.
struct LockEvent {
  TxnId txn;
  LockName name;
  LockMode mode;
  LockDuration duration;
  bool already_held;  ///< request was covered by a lock this txn already held
};
using LockObserver = std::function<void(const LockEvent&)>;

class LockManager {
 public:
  using Contention = ContentionSketch<LockName, LockNameHash, 256>;

  /// Longest deadlock cycle tracked individually by CycleLengthCounts();
  /// longer cycles land in the final overflow bucket.
  static constexpr size_t kMaxTrackedCycleLen = 16;

  explicit LockManager(Metrics* metrics) : metrics_(metrics) {}

  /// The name table is split into this many shards, each guarded by an
  /// RwLatch word taken in X mode; Lock() takes only its name's shard.
  /// Snapshot(), the deadlock detector and the watchdog latch all of them.
  /// Latch words are not mutexes, so ThreadSanitizer's cap on mutexes one
  /// thread may hold does not bound this count.
  static constexpr size_t kNameShards = 256;
  /// The transaction registry's shard count, independent of kNameShards.
  static constexpr size_t kTxnShards = 16;
  /// Which shard `name` lives in (tests use it to spread names).
  static size_t ShardIndex(const LockName& name) {
    return ((LockNameHash()(name) * 0x9e3779b97f4a7c15ull) >> 32) %
           kNameShards;
  }

  /// Acquire `name` in `mode` for `duration` on behalf of `txn`.
  /// If `conditional`, returns kBusy instead of waiting.
  /// Returns kDeadlock if the wait was chosen as a deadlock victim (the
  /// request is withdrawn; the caller must abort the transaction). The
  /// status message carries the one-line cycle summary of the postmortem.
  Status Lock(TxnId txn, const LockName& name, LockMode mode,
              LockDuration duration, bool conditional);

  /// Release one manual-duration lock.
  void Unlock(TxnId txn, const LockName& name);

  /// Release everything the transaction holds (commit / end of rollback).
  void ReleaseAll(TxnId txn);

  /// True if `txn` currently holds `name` in a mode covering `mode`.
  bool Holds(TxnId txn, const LockName& name, LockMode mode);

  /// Number of distinct lock names currently held by `txn`.
  size_t HeldCount(TxnId txn);

  void SetObserver(LockObserver obs) { observer_ = std::move(obs); }

  /// Point-in-time structured copy of the whole lock table: queues (sorted
  /// by name), per-txn rollups (sorted by id), and the waits-for edge set —
  /// exactly the edges DetectDeadlock walks.
  LockTableSnapshot Snapshot();

  /// Resolved deadlocks, oldest first, at most the ring capacity.
  std::vector<DeadlockPostmortem> Postmortems();

  /// Resize the postmortem ring (default 64). 0 disables recording; the
  /// Status cycle summary degrades to the pre-forensics message.
  void SetPostmortemCapacity(size_t cap);

  /// Deadlocks observed per cycle length: index i = cycles of length i
  /// (0 and 1 unused); the last slot aggregates cycles longer than
  /// kMaxTrackedCycleLen.
  std::vector<uint64_t> CycleLengthCounts();

  /// Heaviest-waited lock names, by total wait time.
  std::vector<Contention::Entry> TopContention(size_t n) const {
    return contention_.TopN(n);
  }
  uint64_t ContentionDropped() const { return contention_.dropped(); }

  /// Blocked-waiter watchdog. With threshold_ms > 0, the first lock wait to
  /// exceed the threshold dumps Snapshot() (text + waits-for DOT) to `sink`
  /// (default: stderr) exactly once per episode; the trigger re-arms when no
  /// wait above the threshold remains. threshold_ms == 0 disables.
  void ConfigureWatchdog(uint32_t threshold_ms,
                         std::function<void(const std::string&)> sink = {});

  /// Debug: human-readable dump of every queue (granted holders, pending
  /// conversions, waiters) plus blocked-txn and waits-for lines. Thin
  /// formatter over Snapshot().
  std::string DumpState();

 private:
  /// Per-transaction lock state. Only the owner writes `held`, under `mu`
  /// for forensics readers; the owner itself reads it without `mu`.
  struct TxnLockState {
    std::mutex mu;
    std::unordered_map<LockName, LockMode, LockNameHash> held;
    /// A waiter sleeps on `cv` with `mu` until `wake_seq` moves; Wake()
    /// bumps it under `mu` for every grant and deadlock verdict.
    std::condition_variable cv;
    uint64_t wake_seq = 0;
    std::atomic<bool> deadlock_victim{false};
  };
  /// One entry per transaction per lock name. A granted entry may carry a
  /// pending conversion (upgrade) to `conv_target`; conversions have
  /// priority over new waiters and keep the original grant while waiting.
  struct Request {
    TxnId txn;
    TxnLockState* owner;
    LockMode mode;  // granted mode when granted; requested mode when waiting
    bool granted = false;
    bool converting = false;
    LockMode conv_target = LockMode::kIS;
    LockMode prior_mode = LockMode::kIS;
    uint64_t wait_start_ns = 0;  // set while waiting or converting
    uint64_t grant_ns = 0;       // when the current mode was granted
  };
  struct Queue {
    std::list<Request> reqs;  // arrival order; waiters FIFO among themselves
  };
  /// Lockable (lock/unlock take the latch in X mode) for std::unique_lock.
  struct alignas(64) Shard {
    void lock() { latch.LockExclusive(); }
    void unlock() { latch.UnlockExclusive(); }
    RwLatch latch;
    std::unordered_map<LockName, Queue, LockNameHash> table;
  };
  struct alignas(64) TxnShard {
    std::mutex mu;
    std::unordered_map<TxnId, std::unique_ptr<TxnLockState>> states;
  };
  /// Latches every name shard, in index order, for as long as it lives.
  struct AllShards {
    explicit AllShards(LockManager* lm) : shards(lm->shards_) {
      for (Shard& sh : shards) sh.lock();
    }
    ~AllShards() {
      for (Shard& sh : shards) sh.unlock();
    }
    AllShards(const AllShards&) = delete;
    AllShards& operator=(const AllShards&) = delete;
    std::array<Shard, kNameShards>& shards;
  };

  Shard& ShardOf(const LockName& name) { return shards_[ShardIndex(name)]; }
  TxnShard& TxnShardOf(TxnId txn) { return txn_shards_[txn % kTxnShards]; }
  /// The transaction's state, created on first use.
  TxnLockState& State(TxnId txn);
  /// The transaction's state, or nullptr.
  TxnLockState* FindState(TxnId txn);
  Request* FindRequest(Queue& q, TxnId txn);
  bool ConversionGrantable(const Queue& q, const Request& r) const;
  bool NewGrantable(const Queue& q, const Request& r) const;
  void GrantWaiters(Queue& q);
  /// Bump `st`'s wake_seq under its `mu` and notify its waiter.
  static void Wake(TxnLockState& st);
  /// Blocks until `mine` is granted (`converting`: its conversion applied)
  /// or the transaction is chosen as a deadlock victim; returns false for
  /// the latter. Each round drops `lk` to run the detector and the
  /// watchdog with every shard held, then sleeps on `st.cv` for at most
  /// 5 ms unless woken.
  bool WaitForGrant(std::unique_lock<Shard>& lk, TxnLockState& st,
                    TxnId txn, const LockName& name, Request& mine,
                    bool converting);
  /// Remove `txn`'s requests on `name`; holds `sh`.
  void RemoveLocked(Shard& sh, const LockName& name, TxnId txn);
  /// The waits-for edge set, one edge per (waiter, blocking holder, name).
  /// Must hold all shards (as must every *AllLocked helper below).
  std::vector<WaitsForEdge> BuildEdgesAllLocked() const;
  /// Deadlock check; returns the chosen victim (kInvalidTxnId if none) and,
  /// when a cycle is found, the member txns in walk order via `cycle_out`.
  TxnId DetectDeadlockAllLocked(TxnId start,
                                std::vector<TxnId>* cycle_out = nullptr);
  /// Preserve a just-detected cycle in the postmortem ring and feed the
  /// cycle-length / victim-wait distributions.
  void RecordPostmortemAllLocked(TxnId victim, const std::vector<TxnId>& cycle);
  /// Newest recorded cycle summary for `txn` (empty if none).
  std::string VictimSummary(TxnId txn);
  LockTableSnapshot SnapshotAllLocked(uint64_t now_ns);
  /// Dump Snapshot() to the sink if this wait crossed the threshold and the
  /// episode has not fired yet. Holds no shard.
  void MaybeFireWatchdog(uint64_t wait_start_ns);
  /// Re-arm the watchdog when no wait above the threshold remains. Holds no
  /// shard.
  void MaybeRearmWatchdog();

  Metrics* metrics_;
  LockObserver observer_;
  std::array<Shard, kNameShards> shards_;
  std::array<TxnShard, kTxnShards> txn_shards_;
  Contention contention_;  // lock-free

  // Forensics, under forensics_mu_ (which ranks after every other lock).
  std::mutex forensics_mu_;
  std::deque<DeadlockPostmortem> postmortems_;
  size_t postmortem_cap_ = 64;
  uint64_t postmortem_seq_ = 0;
  uint64_t cycle_len_counts_[kMaxTrackedCycleLen + 1] = {};
  uint32_t watchdog_threshold_ms_ = 0;
  std::function<void(const std::string&)> watchdog_sink_;
  std::atomic<bool> watchdog_fired_{false};  ///< also read without the mutex
};

}  // namespace ariesim
