// Reader-writer latch with conditional (try) acquisition, instant-duration
// support and a version for optimistic readers. Latches, per the paper
// (§1.2), protect *physical* consistency and are held for microseconds; they
// are distinct from locks (LockManager), which protect *logical* consistency
// and may be held to commit.
#pragma once

#include <atomic>
#include <cstdint>

namespace ariesim {

/// Latch modes.
enum class LatchMode : uint8_t { kShared, kExclusive };

/// A fair-ish S/X latch in one 64-bit word (docs/CONCURRENCY.md, "The latch
/// word"). Writers take priority once queued to avoid starvation during SMO
/// propagation. A blocked acquirer spins briefly, then sleeps in
/// std::atomic::wait. The word's version, advanced by every X release and
/// nothing else, is what optimistic readers validate against.
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

  /// Optimistic read, step 1: store the version in *version; false while an
  /// X holder is active. Acquire: later reads see released X holders' writes.
  bool ReadVersion(uint64_t* version) const {
    uint64_t w = word_.load(std::memory_order_acquire);
    *version = w & kVersionMask;
    return (w & kExclusive) == 0;
  }

  /// Optimistic read, step 2: true iff no X holder has come since ReadVersion
  /// returned `version`. The fence orders all earlier reads before the check
  /// and pairs with the one an X acquisition issues before the first write.
  bool Validate(uint64_t version) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return (word_.load(std::memory_order_relaxed) &
            (kVersionMask | kExclusive)) == version;
  }

 private:
  // Word layout, low bit first: 16 bits of S holder count, 14 bits of
  // queued-writer count, the X-held bit, the parked bit (a waiter may be
  // asleep in word_.wait), then a 32-bit version. A wrap of the version
  // needs 2^32 X holds of one latch inside one optimistic read of it — the
  // same bound the kernel's 32-bit seqcount accepts.
  static constexpr uint64_t kReader = 1;
  static constexpr uint64_t kReaderMask = 0xFFFF;
  static constexpr uint64_t kWriterWaiting = uint64_t{1} << 16;
  static constexpr uint64_t kWriterWaitingMask = uint64_t{0x3FFF} << 16;
  static constexpr uint64_t kExclusive = uint64_t{1} << 30;
  static constexpr uint64_t kParked = uint64_t{1} << 31;
  static constexpr uint64_t kVersion = uint64_t{1} << 32;
  static constexpr uint64_t kVersionMask = ~uint64_t{0} << 32;

  /// CAS `add` into the word unless it has a `blocked_by` bit set; on
  /// failure *w holds a reading that had one.
  bool TryAcquire(uint64_t blocked_by, uint64_t add, uint64_t* w);
  /// One step of an acquirer blocked by reading `w`: spin, or once past
  /// the spin limit set kParked and sleep until the word changes.
  void Wait(uint64_t w, int* spins);
  /// Clear kParked and wake every sleeper; each re-checks and re-parks.
  void WakeParked();

  std::atomic<uint64_t> word_{0};
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
