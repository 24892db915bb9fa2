// Per-thread caches that belong to one object at a time. The buffer pool's
// CLOCK batch, the lock manager's state hint and the transaction manager's
// slot each keep a thread_local value that is only meaningful for the
// instance that stored it; a value left behind by a destroyed instance must
// not be followed into the next one, even one at the same address.
#pragma once

#include <atomic>
#include <cstdint>

namespace ariesim {

/// A process-unique id, never 0, shared by every ThreadCache instance.
inline uint64_t NextInstanceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// One T per thread for each (Owner type, T) pair, tagged with the id of the
/// owner instance that last used it. Embed one as a member of the owner.
template <class Owner, class T>
class ThreadCache {
 public:
  /// This thread's value for this instance: T{} the first time the thread
  /// asks this instance, or after it last asked another instance.
  T& Local() const {
    Entry& e = entry_;
    if (e.instance != id_) e = Entry{id_, T{}};
    return e.value;
  }

 private:
  struct Entry {
    uint64_t instance = 0;
    T value{};
  };
  static inline thread_local Entry entry_;
  const uint64_t id_ = NextInstanceId();
};

}  // namespace ariesim
