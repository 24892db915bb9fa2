// Lock manager tests: grant/conflict/wait, conditional requests, instant
// duration, conversions (upgrades), release-all, deadlock detection with
// youngest-victim selection, the observer hook, prompt wake-up of a granted
// waiter, late deadlock detection, the per-thread state hint across
// managers and recycled states, and the spread of record names over the
// name shards.
#include "lock/lock_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace ariesim {
namespace {

LockName NameA() { return LockName::Record(1, Rid{10, 1}); }
LockName NameB() { return LockName::Record(1, Rid{10, 2}); }

class LockManagerTest : public ::testing::Test {
 protected:
  Metrics m_;
  LockManager lm_{&m_};
};

TEST_F(LockManagerTest, GrantAndRelease) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
  EXPECT_TRUE(lm_.Holds(1, NameA(), LockMode::kX));
  EXPECT_EQ(lm_.HeldCount(1), 1u);
  lm_.ReleaseAll(1);
  EXPECT_FALSE(lm_.Holds(1, NameA(), LockMode::kX));
  EXPECT_EQ(lm_.HeldCount(1), 0u);
}

TEST_F(LockManagerTest, SharedCompatibleExclusiveNot) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  ASSERT_TRUE(lm_.Lock(2, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  EXPECT_TRUE(
      lm_.Lock(3, NameA(), LockMode::kX, LockDuration::kCommit, true).IsBusy());
  lm_.ReleaseAll(1);
  EXPECT_TRUE(
      lm_.Lock(3, NameA(), LockMode::kX, LockDuration::kCommit, true).IsBusy());
  lm_.ReleaseAll(2);
  EXPECT_TRUE(lm_.Lock(3, NameA(), LockMode::kX, LockDuration::kCommit, true).ok());
}

TEST_F(LockManagerTest, ConditionalDenialLeavesNoResidue) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
  EXPECT_TRUE(
      lm_.Lock(2, NameA(), LockMode::kS, LockDuration::kCommit, true).IsBusy());
  lm_.ReleaseAll(1);
  // The denied conditional request must not have queued txn 2.
  EXPECT_TRUE(lm_.Lock(3, NameA(), LockMode::kX, LockDuration::kCommit, true).ok());
}

TEST_F(LockManagerTest, UnconditionalWaitsUntilRelease) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    Status s = lm_.Lock(2, NameA(), LockMode::kX, LockDuration::kCommit, false);
    EXPECT_TRUE(s.ok()) << s.ToString();
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load());
  lm_.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_TRUE(lm_.Holds(2, NameA(), LockMode::kX));
  lm_.ReleaseAll(2);
}

TEST_F(LockManagerTest, InstantDurationLeavesNothingHeld) {
  ASSERT_TRUE(
      lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kInstant, false).ok());
  EXPECT_EQ(lm_.HeldCount(1), 0u);
  // Another transaction can take it immediately.
  EXPECT_TRUE(lm_.Lock(2, NameA(), LockMode::kX, LockDuration::kCommit, true).ok());
}

TEST_F(LockManagerTest, InstantWaitsForConflicts) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
  std::atomic<bool> done{false};
  std::thread t([&] {
    // Instant X must still wait until the holder releases (that is its
    // entire point: proving no conflicting transaction exists right now).
    Status s = lm_.Lock(2, NameA(), LockMode::kX, LockDuration::kInstant, false);
    EXPECT_TRUE(s.ok());
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  lm_.ReleaseAll(1);
  t.join();
  EXPECT_EQ(lm_.HeldCount(2), 0u);
}

TEST_F(LockManagerTest, RepeatRequestCoveredByHeld) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
  // S under held X: trivially granted, still one held name.
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  EXPECT_EQ(lm_.HeldCount(1), 1u);
  lm_.ReleaseAll(1);
}

TEST_F(LockManagerTest, UpgradeSToX) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
  EXPECT_TRUE(lm_.Holds(1, NameA(), LockMode::kX));
  EXPECT_TRUE(
      lm_.Lock(2, NameA(), LockMode::kS, LockDuration::kCommit, true).IsBusy());
  lm_.ReleaseAll(1);
}

TEST_F(LockManagerTest, UpgradeWaitsForOtherSharers) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  ASSERT_TRUE(lm_.Lock(2, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  EXPECT_TRUE(
      lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, true).IsBusy());
  // After denial, txn 1 must still hold its original S lock.
  EXPECT_TRUE(lm_.Holds(1, NameA(), LockMode::kS));
  lm_.ReleaseAll(2);
  EXPECT_TRUE(lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, true).ok());
  lm_.ReleaseAll(1);
}

TEST_F(LockManagerTest, IntentModesCoexist) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kIX, LockDuration::kCommit, false).ok());
  ASSERT_TRUE(lm_.Lock(2, NameA(), LockMode::kIX, LockDuration::kCommit, false).ok());
  ASSERT_TRUE(lm_.Lock(3, NameA(), LockMode::kIS, LockDuration::kCommit, false).ok());
  EXPECT_TRUE(
      lm_.Lock(4, NameA(), LockMode::kS, LockDuration::kCommit, true).IsBusy());
  lm_.ReleaseAll(1);
  lm_.ReleaseAll(2);
  EXPECT_TRUE(lm_.Lock(4, NameA(), LockMode::kS, LockDuration::kCommit, true).ok());
  lm_.ReleaseAll(3);
  lm_.ReleaseAll(4);
}

TEST_F(LockManagerTest, DeadlockDetectedYoungestAborted) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
  ASSERT_TRUE(lm_.Lock(2, NameB(), LockMode::kX, LockDuration::kCommit, false).ok());
  std::atomic<int> deadlocked{0};
  std::atomic<int> granted{0};
  std::thread t1([&] {
    Status s = lm_.Lock(1, NameB(), LockMode::kX, LockDuration::kCommit, false);
    if (s.IsDeadlock()) {
      deadlocked.fetch_add(1);
      lm_.ReleaseAll(1);
    } else if (s.ok()) {
      granted.fetch_add(1);
    }
  });
  std::thread t2([&] {
    Status s = lm_.Lock(2, NameA(), LockMode::kX, LockDuration::kCommit, false);
    if (s.IsDeadlock()) {
      deadlocked.fetch_add(1);
      lm_.ReleaseAll(2);
    } else if (s.ok()) {
      granted.fetch_add(1);
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(deadlocked.load(), 1) << "exactly one victim";
  EXPECT_EQ(granted.load(), 1) << "the survivor proceeds";
  EXPECT_GE(m_.deadlocks.load(), 1u);
  lm_.ReleaseAll(1);
  lm_.ReleaseAll(2);
}

TEST_F(LockManagerTest, ConversionDeadlockDetected) {
  // Two S holders both upgrading to X: classic conversion deadlock.
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  ASSERT_TRUE(lm_.Lock(2, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  std::atomic<int> deadlocked{0};
  auto upgrade = [&](TxnId id) {
    Status s = lm_.Lock(id, NameA(), LockMode::kX, LockDuration::kCommit, false);
    if (s.IsDeadlock()) {
      deadlocked.fetch_add(1);
      lm_.ReleaseAll(id);
    }
  };
  std::thread t1(upgrade, 1);
  std::thread t2(upgrade, 2);
  t1.join();
  t2.join();
  EXPECT_EQ(deadlocked.load(), 1);
  lm_.ReleaseAll(1);
  lm_.ReleaseAll(2);
}

TEST_F(LockManagerTest, ObserverSeesEvents) {
  std::vector<LockEvent> events;
  lm_.SetObserver([&](const LockEvent& e) { events.push_back(e); });
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  ASSERT_TRUE(
      lm_.Lock(1, NameB(), LockMode::kX, LockDuration::kInstant, false).ok());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_FALSE(events[0].already_held);
  EXPECT_TRUE(events[1].already_held);
  EXPECT_EQ(events[2].duration, LockDuration::kInstant);
  EXPECT_EQ(events[2].mode, LockMode::kX);
  lm_.SetObserver(nullptr);
  lm_.ReleaseAll(1);
}

TEST_F(LockManagerTest, ManualUnlock) {
  ASSERT_TRUE(lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kManual, false).ok());
  EXPECT_TRUE(
      lm_.Lock(2, NameA(), LockMode::kS, LockDuration::kCommit, true).IsBusy());
  lm_.Unlock(1, NameA());
  EXPECT_TRUE(lm_.Lock(2, NameA(), LockMode::kS, LockDuration::kCommit, true).ok());
  lm_.ReleaseAll(2);
}

TEST_F(LockManagerTest, GrantWakesWaiterWithoutPolling) {
  // A waiter that misses its wake-up still gets in, at the next 5 ms poll;
  // only a delivered wake-up keeps the median handoff far below that.
  constexpr int kHandoffs = 100;
  std::vector<uint64_t> handoff_ns;
  for (int i = 0; i < kHandoffs; ++i) {
    ASSERT_TRUE(
        lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
    const uint64_t waits_before = m_.lock_waits.load();
    std::atomic<uint64_t> granted_ns{0};
    std::thread waiter([&] {
      Status s = lm_.Lock(2, NameA(), LockMode::kX, LockDuration::kCommit, false);
      EXPECT_TRUE(s.ok()) << s.ToString();
      granted_ns = MonotonicNowNs();
    });
    while (m_.lock_waits.load() == waits_before) std::this_thread::yield();
    // Let the waiter finish its detection round and fall asleep.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const uint64_t release_ns = MonotonicNowNs();
    lm_.ReleaseAll(1);
    waiter.join();
    handoff_ns.push_back(granted_ns.load() - release_ns);
    lm_.ReleaseAll(2);
  }
  std::sort(handoff_ns.begin(), handoff_ns.end());
  EXPECT_LT(handoff_ns[kHandoffs / 2], 2'000'000u)
      << "median grant-to-wake handoff reached the 5 ms poll";
}

TEST_F(LockManagerTest, WaitGrantedWithinThresholdRunsNoDetection) {
  // A conflict the holder ends before kDetectAfter must not latch the whole
  // table for a detection round. An attempt whose wait ran past the
  // threshold (a slow scheduler) proves nothing and is skipped.
  const uint64_t threshold_ns =
      std::chrono::nanoseconds(LockManager::kDetectAfter).count();
  int fast = 0;
  for (int attempt = 0; attempt < 100 && fast < 10; ++attempt) {
    ASSERT_TRUE(
        lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
    const uint64_t waits_before = m_.lock_waits.load();
    const uint64_t rounds_before = m_.lock_detect_rounds.load();
    std::atomic<uint64_t> lock_ns{0};
    std::thread waiter([&] {
      const uint64_t start = MonotonicNowNs();
      Status s = lm_.Lock(2, NameA(), LockMode::kX, LockDuration::kCommit, false);
      EXPECT_TRUE(s.ok()) << s.ToString();
      lock_ns = MonotonicNowNs() - start;
    });
    while (m_.lock_waits.load() == waits_before) std::this_thread::yield();
    lm_.ReleaseAll(1);
    waiter.join();
    lm_.ReleaseAll(2);
    if (lock_ns.load() >= threshold_ns) continue;
    ++fast;
    EXPECT_EQ(m_.lock_detect_rounds.load(), rounds_before)
        << "a " << lock_ns.load() << " ns wait ran a detection round";
  }
  EXPECT_GT(fast, 0) << "no wait ended within the threshold";
  // A wait that outlasts the threshold does run rounds.
  ASSERT_TRUE(
      lm_.Lock(1, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
  const uint64_t rounds_before = m_.lock_detect_rounds.load();
  std::thread waiter([&] {
    EXPECT_TRUE(
        lm_.Lock(2, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm_.ReleaseAll(1);
  waiter.join();
  lm_.ReleaseAll(2);
  EXPECT_GT(m_.lock_detect_rounds.load(), rounds_before);
}

TEST(LockManagerHintTest, HintDoesNotOutliveItsManager) {
  // This thread's state hint names txn 7 in manager A. Once A is gone, B
  // must not follow the hint into A's freed states, although it names the
  // same transaction id (AddressSanitizer reports it if B does).
  Metrics m;
  auto a = std::make_unique<LockManager>(&m);
  ASSERT_TRUE(
      a->Lock(7, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  a->ReleaseAll(7);
  a.reset();
  LockManager b(&m);
  ASSERT_TRUE(b.Lock(7, NameA(), LockMode::kX, LockDuration::kCommit, false).ok());
  EXPECT_TRUE(b.Holds(7, NameA(), LockMode::kX));
  EXPECT_EQ(b.HeldCount(7), 1u);
  b.ReleaseAll(7);
  EXPECT_EQ(b.HeldCount(7), 0u);
}

TEST(LockManagerHintTest, HintMissesARecycledState) {
  // Another thread, with no hint of its own, claims the registry's first
  // free state: the one txn 7 released. This thread's hint still points at
  // that state under txn 7; its next request must not land in the other's.
  Metrics m;
  LockManager lm(&m);
  const TxnId other = 8;
  ASSERT_TRUE(
      lm.Lock(7, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  lm.ReleaseAll(7);
  std::thread([&] {
    EXPECT_TRUE(
        lm.Lock(other, NameB(), LockMode::kS, LockDuration::kCommit, false)
            .ok());
  }).join();
  ASSERT_TRUE(
      lm.Lock(7, NameA(), LockMode::kS, LockDuration::kCommit, false).ok());
  EXPECT_EQ(lm.HeldCount(7), 1u);
  EXPECT_EQ(lm.HeldCount(other), 1u);
  EXPECT_TRUE(lm.Holds(7, NameA(), LockMode::kS));
  EXPECT_FALSE(lm.Holds(other, NameA(), LockMode::kS));
  lm.ReleaseAll(7);
  lm.ReleaseAll(other);
  EXPECT_TRUE(lm.Snapshot().queues.empty());
}

TEST_F(LockManagerTest, RecordNamesSpreadAcrossShards) {
  // Contention relief rests on record names landing evenly on the shards.
  std::vector<size_t> per_shard(LockManager::kNameShards, 0);
  constexpr int kPages = 400;
  constexpr int kSlots = 25;
  for (int page = 0; page < kPages; ++page) {
    for (int slot = 0; slot < kSlots; ++slot) {
      LockName n = LockName::Record(
          1, Rid{static_cast<PageId>(page), static_cast<uint16_t>(slot)});
      per_shard[LockManager::ShardIndex(n)]++;
    }
  }
  const double mean =
      static_cast<double>(kPages * kSlots) / LockManager::kNameShards;
  EXPECT_GT(*std::min_element(per_shard.begin(), per_shard.end()), 0u);
  EXPECT_LE(*std::max_element(per_shard.begin(), per_shard.end()), 2 * mean);
}

TEST_F(LockManagerTest, StressManyThreadsManyNames) {
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      TxnId me = static_cast<TxnId>(t + 1);
      for (int i = 0; i < kOps; ++i) {
        LockName n = LockName::Record(
            1, Rid{static_cast<PageId>(10 + (i % 7)), static_cast<uint16_t>(t)});
        Status s = lm_.Lock(me, n, (i % 3 == 0) ? LockMode::kX : LockMode::kS,
                            LockDuration::kCommit, false);
        if (!s.ok() && !s.IsDeadlock()) errors.fetch_add(1);
        if (i % 10 == 9) lm_.ReleaseAll(me);
      }
      lm_.ReleaseAll(me);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(errors.load(), 0u);
}

}  // namespace
}  // namespace ariesim
