// Reader-writer latch with conditional (try) acquisition and
// instant-duration support. Latches, per the paper
// (§1.2), protect *physical* consistency and are held for microseconds; they
// are distinct from locks (LockManager), which protect *logical* consistency
// and may be held to commit.
#pragma once

#include <atomic>
#include <cstdint>

namespace ariesim {

/// Latch modes.
enum class LatchMode : uint8_t { kShared, kExclusive };

/// A fair-ish S/X latch in one 32-bit word (docs/CONCURRENCY.md, "The latch
/// word"). Writers take priority once queued to avoid starvation during SMO
/// propagation. A blocked acquirer spins briefly, then sleeps in
/// std::atomic::wait. Besides page and tree latches, the lock table guards
/// each of its name shards with one, taken in X mode only: a word, unlike a
/// mutex, does not count against ThreadSanitizer's cap on held mutexes when
/// the deadlock detector latches every shard.
class RwLatch {
 public:
  RwLatch() = default;
  RwLatch(const RwLatch&) = delete;
  RwLatch& operator=(const RwLatch&) = delete;

  void LockShared();
  void LockExclusive();
  /// Conditional acquisition; returns false immediately if not grantable.
  bool TryLockShared();
  bool TryLockExclusive();
  void UnlockShared();
  void UnlockExclusive();

  void Lock(LatchMode m) {
    m == LatchMode::kShared ? LockShared() : LockExclusive();
  }
  bool TryLock(LatchMode m) {
    return m == LatchMode::kShared ? TryLockShared() : TryLockExclusive();
  }
  void Unlock(LatchMode m) {
    m == LatchMode::kShared ? UnlockShared() : UnlockExclusive();
  }

  /// Instant-duration acquisition: wait until the latch is grantable in the
  /// given mode, then immediately release. Used for the "S latch tree for
  /// instant duration" step (paper Figure 4): the caller only needs to wait
  /// out in-progress exclusive holders (in-flight SMOs).
  void LockInstant(LatchMode m) {
    Lock(m);
    Unlock(m);
  }

 private:
  // Word layout, low bit first: 16 bits of S holder count, 14 bits of
  // queued-writer count, the X-held bit, then the parked bit (a waiter may
  // be asleep in word_.wait).
  static constexpr uint32_t kReader = 1;
  static constexpr uint32_t kReaderMask = 0xFFFF;
  static constexpr uint32_t kWriterWaiting = uint32_t{1} << 16;
  static constexpr uint32_t kWriterWaitingMask = uint32_t{0x3FFF} << 16;
  static constexpr uint32_t kExclusive = uint32_t{1} << 30;
  static constexpr uint32_t kParked = uint32_t{1} << 31;

  /// CAS `add` into the word unless it has a `blocked_by` bit set; on
  /// failure *w holds a reading that had one.
  bool TryAcquire(uint32_t blocked_by, uint32_t add, uint32_t* w);
  /// One step of an acquirer blocked by reading `w`: spin, or once past
  /// the spin limit set kParked and sleep until the word changes.
  void Wait(uint32_t w, int* spins);
  /// Clear kParked and wake every sleeper; each re-checks and re-parks.
  void WakeParked();

  std::atomic<uint32_t> word_{0};
};

/// RAII guard over an RwLatch.
class LatchGuard {
 public:
  LatchGuard() = default;
  LatchGuard(RwLatch* latch, LatchMode mode) : latch_(latch), mode_(mode) {
    latch_->Lock(mode_);
  }
  ~LatchGuard() { Release(); }
  LatchGuard(const LatchGuard&) = delete;
  LatchGuard& operator=(const LatchGuard&) = delete;
  LatchGuard(LatchGuard&& o) noexcept : latch_(o.latch_), mode_(o.mode_) {
    o.latch_ = nullptr;
  }
  LatchGuard& operator=(LatchGuard&& o) noexcept {
    if (this != &o) {
      Release();
      latch_ = o.latch_;
      mode_ = o.mode_;
      o.latch_ = nullptr;
    }
    return *this;
  }

  void Release() {
    if (latch_ != nullptr) {
      latch_->Unlock(mode_);
      latch_ = nullptr;
    }
  }
  bool held() const { return latch_ != nullptr; }

 private:
  RwLatch* latch_ = nullptr;
  LatchMode mode_ = LatchMode::kShared;
};

}  // namespace ariesim
