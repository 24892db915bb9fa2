#include "util/rwlatch.h"

namespace ariesim {

/// Spin steps a blocked acquirer takes before it parks. Most latch holds
/// end within the spin; an X holder waiting on a log append (and perhaps an
/// fsync behind it) is waited out asleep.
static constexpr int kSpinLimit = 128;

bool RwLatch::TryAcquire(uint64_t blocked_by, uint64_t add, uint64_t* w) {
  *w = word_.load(std::memory_order_relaxed);
  while ((*w & blocked_by) == 0) {
    if (word_.compare_exchange_weak(*w, *w + add, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void RwLatch::Wait(uint64_t w, int* spins) {
  if (++*spins <= kSpinLimit) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    return;
  }
  // The CAS succeeds only if the word still reads w, so the caller is still
  // blocked when it parks. Every release that can admit a waiter clears
  // kParked before notifying, so no wake-up is lost.
  if ((w & kParked) == 0 &&
      !word_.compare_exchange_weak(w, w | kParked, std::memory_order_relaxed)) {
    return;
  }
  word_.wait(w | kParked, std::memory_order_relaxed);
}

void RwLatch::WakeParked() {
  word_.fetch_and(~kParked, std::memory_order_relaxed);
  word_.notify_all();
}

void RwLatch::LockShared() {
  uint64_t w;
  for (int spins = 0;
       !TryAcquire(kExclusive | kWriterWaitingMask, kReader, &w);) {
    Wait(w, &spins);
  }
}

void RwLatch::LockExclusive() {
  if (TryLockExclusive()) return;
  // Queued: from here on new S requests wait (writer priority).
  word_.fetch_add(kWriterWaiting, std::memory_order_relaxed);
  uint64_t w;
  for (int spins = 0; !TryAcquire(kExclusive | kReaderMask,
                                  kExclusive - kWriterWaiting, &w);) {
    Wait(w, &spins);
  }
  // Seqlock writer side: the X bit is visible before any write the holder
  // makes (pairs with the fence in Validate).
  std::atomic_thread_fence(std::memory_order_release);
}

bool RwLatch::TryLockShared() {
  uint64_t w;
  return TryAcquire(kExclusive | kWriterWaitingMask, kReader, &w);
}

bool RwLatch::TryLockExclusive() {
  uint64_t w;
  if (!TryAcquire(kExclusive | kReaderMask, kExclusive, &w)) return false;
  std::atomic_thread_fence(std::memory_order_release);  // as in LockExclusive
  return true;
}

void RwLatch::UnlockShared() {
  uint64_t prev = word_.fetch_sub(kReader, std::memory_order_release);
  // Only the last reader out can admit a waiter (a queued writer).
  if ((prev & kReaderMask) == kReader && (prev & kParked) != 0) WakeParked();
}

void RwLatch::UnlockExclusive() {
  // Clears kExclusive (known set) and advances the version in one step.
  uint64_t prev =
      word_.fetch_add(kVersion - kExclusive, std::memory_order_release);
  if ((prev & kParked) != 0) WakeParked();
}

}  // namespace ariesim
