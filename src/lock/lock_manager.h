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

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
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
    return (Mix(name) >> 32) % kNameShards;
  }
  /// A blocked request sleeps this long on its own condition variable
  /// before its first deadlock detection round (`lock_detect_rounds`), then
  /// runs one every kDetectPoll.
  static constexpr std::chrono::microseconds kDetectAfter{200};
  static constexpr std::chrono::microseconds kDetectPoll{5000};

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

  /// True if `txn` currently holds `name` in a mode covering `mode`. Call
  /// it from `txn`'s thread (it reads the txn's private request index).
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
  struct TxnLockState;
  /// One transaction's request on one name, in its transaction's state
  /// and, while `linked`, in its head's FIFO (granted before waiting). A
  /// granted request may carry a pending conversion to `conv_target`, which
  /// has priority over new waiters and keeps the original grant while it
  /// waits. Fields but `name`/`txn` change only under the shard latch.
  struct Request {
    LockName name;
    TxnId txn = kInvalidTxnId;
    TxnLockState* owner = nullptr;
    Request* prev = nullptr;
    Request* next = nullptr;
    LockMode mode = LockMode::kIS;  // granted mode, or the requested one
    LockMode conv_target = LockMode::kIS;
    bool linked = false;  // false: released or withdrawn; reused for `name`
    bool granted = false;
    bool converting = false;
    uint64_t wait_start_ns = 0;  // set while waiting or converting
    uint64_t grant_ns = 0;       // when the current mode was granted
  };
  /// One lock name's queue; `first == nullptr` marks a free table slot.
  struct Head {
    LockName name;
    Request* first = nullptr;
    Request* last = nullptr;
    uint32_t granted[5] = {};  // granted requests per mode
    uint32_t converters = 0;   // granted requests with a pending conversion
    uint32_t waiters = 0;      // requests not yet granted
  };
  static const LockName& Key(const Head& h) { return h.name; }
  static const LockName& Key(const Request* r) { return r->name; }
  static bool Free(const Head& h) { return h.first == nullptr; }
  static bool Free(const Request* r) { return r == nullptr; }
  /// Open addressing by lock name (T = Head or Request*): linear probing,
  /// power-of-two size, at most half full, backward-shift deletion.
  template <class T>
  struct FlatTable {
    std::vector<T> slots;
    size_t used = 0;
    size_t Home(const LockName& name) const {  // bits apart from the shard's
      return (Mix(name) >> 40) & (slots.size() - 1);
    }
    /// The slot holding `name`, else the free slot that ends its run.
    T& Probe(const LockName& name) {
      size_t i = Home(name);
      while (!Free(slots[i]) && !(Key(slots[i]) == name)) {
        i = (i + 1) & (slots.size() - 1);
      }
      return slots[i];
    }
    T* Find(const LockName& name) {
      if (used == 0) return nullptr;
      T& slot = Probe(name);
      return Free(slot) ? nullptr : &slot;
    }
    /// A free slot for `name`, which the caller fills at once.
    T& Insert(const LockName& name) {
      if (++used * 2 > slots.size()) {
        std::vector<T> old(std::max<size_t>(8, slots.size() * 2));
        old.swap(slots);
        for (T& e : old) {
          if (!Free(e)) Probe(Key(e)) = e;
        }
      }
      return Probe(name);
    }
    void Erase(T* slot) {
      const size_t mask = slots.size() - 1;
      size_t hole = slot - slots.data();
      for (size_t j = (hole + 1) & mask; !Free(slots[j]); j = (j + 1) & mask) {
        if (((j - Home(Key(slots[j]))) & mask) >= ((j - hole) & mask)) {
          slots[hole] = slots[j];
          hole = j;
        }
      }
      slots[hole] = T{};
      --used;
    }
  };
  static constexpr size_t kChunkRequests = 64;
  static constexpr size_t kKeepIndex = 256;  // slots a recycled index keeps
  using Chunk = std::array<Request, kChunkRequests>;
  /// Per-transaction lock state, recycled through its registry shard. Only
  /// the owning transaction touches `chunks`, `count` and `index`.
  struct TxnLockState {
    std::atomic<TxnId> owner{kInvalidTxnId};
    /// Granted requests; changed under the granted name's shard latch.
    std::atomic<uint32_t> held{0};
    /// Requests in arrival order, in chunks so their addresses are stable.
    std::vector<std::unique_ptr<Chunk>> chunks;
    uint32_t count = 0;
    FlatTable<Request*> index;
    /// A waiter sleeps on `cv` with `mu` until `wake_seq` moves; Wake()
    /// bumps it under `mu` for every grant and deadlock verdict.
    std::mutex mu;
    std::condition_variable cv;
    uint64_t wake_seq = 0;
    std::atomic<bool> deadlock_victim{false};
    Request& At(uint32_t i) {
      return (*chunks[i / kChunkRequests])[i % kChunkRequests];
    }
  };
  /// Lockable (lock/unlock take the latch in X mode) for std::unique_lock.
  struct alignas(64) Shard {
    void lock() { latch.LockExclusive(); }
    void unlock() { latch.UnlockExclusive(); }
    RwLatch latch;
    FlatTable<Head> heads;
  };
  /// [0, active) are live transactions' states, the rest recycled ones,
  /// freed only with the manager (so a hint naming it is live memory).
  struct alignas(64) TxnShard {
    std::mutex mu;
    std::vector<std::unique_ptr<TxnLockState>> states;
    size_t active = 0;
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

  static uint64_t Mix(const LockName& name) {
    return LockNameHash()(name) * 0x9e3779b97f4a7c15ull;
  }
  Shard& ShardOf(const LockName& name) { return shards_[ShardIndex(name)]; }
  TxnShard& TxnShardOf(TxnId txn) { return txn_shards_[txn % kTxnShards]; }
  /// The transaction's state, through this thread's hint or the registry;
  /// nullptr if it has none and `create` is false.
  TxnLockState* FindState(TxnId txn, bool create = false);
  static Request* FindRequest(TxnLockState& st, const LockName& name) {
    Request** r = st.index.Find(name);
    return r == nullptr ? nullptr : *r;
  }
  /// True if `want` is compatible with every granted mode but `except`'s.
  static bool Compatible(const Head& h, LockMode want, const Request* except);
  /// Grant `r` (a waiter, or a holder converting) `mode` at `now_ns`.
  static void Grant(Head& h, Request& r, LockMode mode, uint64_t now_ns);
  /// Take `r` out of its head, let any waiter it blocked in, and drop the
  /// head if that left it empty; holds `sh`.
  void Unlink(Shard& sh, Head& h, Request& r);
  /// Grant conversions, then new waiters in FIFO order, while grantable,
  /// and wake each grantee.
  void GrantWaiters(Head& h);
  /// Bump `st`'s wake_seq under its `mu` and notify its waiter.
  static void Wake(TxnLockState& st);
  /// Blocks until `mine` is granted (`converting`: its conversion applied)
  /// or the transaction is chosen as a deadlock victim; returns false for
  /// the latter. Sleeps on `st.cv` for kDetectAfter first; each round then
  /// drops `lk` to run the detector and the watchdog with every shard held,
  /// and sleeps at most kDetectPoll unless woken.
  bool WaitForGrant(std::unique_lock<Shard>& lk, TxnLockState& st,
                    TxnId txn, const LockName& name, Request& mine,
                    bool converting);
  /// Calls f(head) for every queue. Must hold all shards (as must every
  /// *AllLocked helper below).
  template <class F>
  void ForEachHeadAllLocked(F&& f) const {
    for (const Shard& sh : shards_) {
      for (const Head& h : sh.heads.slots) {
        if (h.first != nullptr) f(h);
      }
    }
  }
  /// The waits-for edge set, one edge per (waiter, blocking holder, name).
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

  static inline std::atomic<uint64_t> next_id_{1};
  /// The calling thread's last state: valid only while hint_manager_ is
  /// this manager's id_ (ids start at 1), and only for the transaction the
  /// state's `owner` names.
  static inline thread_local uint64_t hint_manager_ = 0;
  static inline thread_local TxnLockState* hint_state_ = nullptr;
  const uint64_t id_ = next_id_.fetch_add(1, std::memory_order_relaxed);
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
