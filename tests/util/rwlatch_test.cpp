#include "util/rwlatch.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace ariesim {
namespace {

TEST(RwLatchTest, SharedAllowsMultipleReaders) {
  RwLatch latch;
  latch.LockShared();
  EXPECT_TRUE(latch.TryLockShared());
  latch.UnlockShared();
  latch.UnlockShared();
}

TEST(RwLatchTest, ExclusiveExcludesEveryone) {
  RwLatch latch;
  latch.LockExclusive();
  EXPECT_FALSE(latch.TryLockShared());
  EXPECT_FALSE(latch.TryLockExclusive());
  latch.UnlockExclusive();
  EXPECT_TRUE(latch.TryLockExclusive());
  latch.UnlockExclusive();
}

TEST(RwLatchTest, WaitingWriterBlocksNewReaders) {
  RwLatch latch;
  latch.LockShared();
  std::atomic<bool> writer_in{false};
  std::thread w([&] {
    latch.LockExclusive();
    writer_in = true;
    latch.UnlockExclusive();
  });
  // Give the writer time to queue, then a new reader must be refused
  // (writer priority prevents starvation).
  for (int i = 0; i < 1000 && latch.TryLockShared(); ++i) {
    latch.UnlockShared();
    std::this_thread::yield();
  }
  EXPECT_FALSE(writer_in.load());
  latch.UnlockShared();
  w.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(RwLatchTest, ExclusiveIsMutuallyExclusiveUnderContention) {
  RwLatch latch;
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        latch.LockExclusive();
        ++counter;  // would race without mutual exclusion
        latch.UnlockExclusive();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(RwLatchTest, InstantDurationWaitsOutWriter) {
  RwLatch latch;
  latch.LockExclusive();
  std::atomic<bool> passed{false};
  std::thread t([&] {
    latch.LockInstant(LatchMode::kShared);  // must block until X released
    passed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());
  latch.UnlockExclusive();
  t.join();
  EXPECT_TRUE(passed.load());
  // Latch fully free afterwards.
  EXPECT_TRUE(latch.TryLockExclusive());
  latch.UnlockExclusive();
}

TEST(RwLatchTest, GuardReleasesOnDestruction) {
  RwLatch latch;
  {
    LatchGuard g(&latch, LatchMode::kExclusive);
    EXPECT_TRUE(g.held());
    EXPECT_FALSE(latch.TryLockShared());
  }
  EXPECT_TRUE(latch.TryLockShared());
  latch.UnlockShared();
}

TEST(RwLatchTest, GuardMoveTransfersOwnership) {
  RwLatch latch;
  LatchGuard g1(&latch, LatchMode::kShared);
  LatchGuard g2 = std::move(g1);
  EXPECT_FALSE(g1.held());
  EXPECT_TRUE(g2.held());
  g2.Release();
  EXPECT_TRUE(latch.TryLockExclusive());
  latch.UnlockExclusive();
}

// X latches are held across log appends, which can wait behind an fsync:
// a waiter must sleep, not spin, through a long hold.
TEST(RwLatchTest, ParkedWaiterUsesLittleCpu) {
  auto thread_cpu = [] {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return std::chrono::seconds(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           std::chrono::microseconds(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  };
  RwLatch latch;
  latch.LockExclusive();
  std::chrono::microseconds used[2]{};
  std::vector<std::thread> waiters;
  for (LatchMode m : {LatchMode::kShared, LatchMode::kExclusive}) {
    waiters.emplace_back([&, m] {
      const auto start = thread_cpu();
      latch.LockInstant(m);
      used[static_cast<int>(m)] = thread_cpu() - start;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  latch.UnlockExclusive();
  for (auto& t : waiters) t.join();
  EXPECT_LT(used[0], std::chrono::milliseconds(20)) << "S waiter";
  EXPECT_LT(used[1], std::chrono::milliseconds(20)) << "X waiter";
}

}  // namespace
}  // namespace ariesim
