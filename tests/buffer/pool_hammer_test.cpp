// Buffer-pool stale-read hammer: 64 pages through an 8-frame pool, so every
// few operations evict a page, often a dirty one whose write-back races a
// reload of the same page. Eight threads mix two kinds of access:
//  - X writers bump a per-page counter and check it against a shadow copy
//    (a stale reload shows up as a counter behind the shadow);
//  - S readers, two draws in three, check the counter never goes backwards.
// PoolIdentityTest runs four readers over pages stamped with their own id,
// through a pool a quarter of the working set: lock-free hits race CLOCK
// evictions, and a frame remapped while pinned shows up as a guard
// returning another page's id or bytes.
// DirtyPageTableTest runs four X writers through an 8-frame pool while a
// fifth thread loops DirtyPageTable(): a page missing from a snapshot must
// already be on disk at least as new as its last update completed before
// the snapshot, or a fuzzy checkpoint taken then would let restart redo
// skip that update. Its second case fails an eviction write-back after
// every snapshot, so frames leaving `writing_back` to be mapped again race
// the snapshot loop.
// Seed list overridable via ARIESIM_STRESS_SEEDS ("7", "1,2,9", "1-32").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "fault_util.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/random.h"

namespace ariesim {
namespace {

using testing::StressSeeds;
using testing::TempDir;

constexpr int kPages = 64;
constexpr int kThreads = 8;
constexpr size_t kFrames = 8;
constexpr int kOpsPerThread = 20000;

class PoolHammerTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoolHammerTest, CountersNeverGoBackwards) {
  const uint64_t seed = GetParam();
  TempDir dir("bp_hammer");
  Metrics m;
  DiskManager disk(dir.path() + "/data.db", 512, &m);
  ASSERT_OK(disk.Open());
  LogManager log(dir.path() + "/wal", &m, false);
  ASSERT_OK(log.Open());
  BufferPool pool(&disk, &log, kFrames, &m, /*verify_checksums=*/true);
  pool.SetParanoid(true);

  for (PageId p = 0; p < kPages; ++p) {
    auto g = pool.FetchPage(p, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().Init(p, PageType::kHeap, 1, 0);
    g.value().MarkDirty(1);
  }

  // shadow[p]: the counter the last writer of page p left behind. Stored
  // under the page's X latch, so a later fetch must see at least this.
  std::vector<std::atomic<uint64_t>> shadow(kPages);
  std::atomic<int> errors{0};
  auto worker = [&](int t) {
    Random rnd(seed * 1009 + static_cast<uint64_t>(t));
    std::vector<uint64_t> last_seen(kPages, 0);
    auto check = [&](PageId p, uint64_t v, uint64_t floor, const char* who) {
      if (v < floor || v < last_seen[p]) {
        ADD_FAILURE() << who << " saw page " << p << " counter " << v
                      << " < shadow " << floor << " / last seen "
                      << last_seen[p];
        errors.fetch_add(1);
      }
      last_seen[p] = v;
    };
    for (int i = 0; i < kOpsPerThread && errors.load() == 0; ++i) {
      const PageId p = static_cast<PageId>(rnd.Uniform(kPages));
      const uint64_t floor = shadow[p].load();
      const LatchMode mode =
          rnd.Uniform(3) == 0 ? LatchMode::kExclusive : LatchMode::kShared;
      auto g = pool.FetchPage(p, mode);
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      char* counter = g.value().view().data() + kPageHeaderSize;
      const uint64_t v = DecodeFixed64(counter);
      if (mode == LatchMode::kShared) {
        check(p, v, floor, "S reader");
        continue;
      }
      check(p, v, shadow[p].load(), "X writer");
      EncodeFixed64(counter, v + 1);
      shadow[p].store(v + 1);
      last_seen[p] = v + 1;
      g.value().MarkDirty(v + 2);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(m.pages_written.load(), 0u) << "no eviction write-backs";
  // Final state: every counter equals its shadow after a cold reload.
  ASSERT_OK(pool.FlushAll());
  BufferPool cold(&disk, &log, kFrames, &m, /*verify_checksums=*/true);
  for (PageId p = 0; p < kPages; ++p) {
    auto g = cold.FetchPage(p, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(DecodeFixed64(g.value().view().data() + kPageHeaderSize),
              shadow[p].load())
        << "page " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolHammerTest,
                         ::testing::ValuesIn(StressSeeds(3)));

class PoolIdentityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoolIdentityTest, EveryGuardHoldsTheRequestedPage) {
  constexpr int kReaders = 4;
  constexpr size_t kSmallPool = kPages / 4;
  const uint64_t seed = GetParam();
  TempDir dir("bp_identity");
  Metrics m;
  DiskManager disk(dir.path() + "/data.db", 512, &m);
  ASSERT_OK(disk.Open());
  LogManager log(dir.path() + "/wal", &m, false);
  ASSERT_OK(log.Open());
  BufferPool pool(&disk, &log, kSmallPool, &m, /*verify_checksums=*/true);
  const size_t body = pool.page_size() - kPageHeaderSize;
  auto stamp = [](PageId p, size_t i) { return static_cast<char>(p * 31 + i); };
  for (PageId p = 0; p < kPages; ++p) {
    auto g = pool.FetchPage(p, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().Init(p, PageType::kHeap, 1, 0);
    char* b = g.value().view().data() + kPageHeaderSize;
    for (size_t i = 0; i < body; ++i) b[i] = stamp(p, i);
    g.value().MarkDirty(1);
  }
  const uint64_t reads_before = m.pages_read.load();

  std::atomic<int> errors{0};
  auto reader = [&](int t) {
    Random rnd(seed * 7919 + static_cast<uint64_t>(t));
    for (int i = 0; i < kOpsPerThread && errors.load() == 0; ++i) {
      // Half the draws come from a hot quarter so hits dominate, the rest
      // spread over every page and keep the CLOCK hand moving.
      const PageId p = static_cast<PageId>(
          rnd.Uniform(2) == 0 ? rnd.Uniform(kSmallPool / 2) : rnd.Uniform(kPages));
      auto r = pool.FetchPage(p, LatchMode::kShared);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      PageGuard g = std::move(r).value();
      const char* b = g.view().data();
      const PageId held = g.page_id();
      PageView v = g.view();
      bool same = held == p && v.page_id() == p;
      for (size_t k = 0; same && k < body; ++k) {
        same = b[kPageHeaderSize + k] == stamp(p, k);
      }
      if (!same) {
        ADD_FAILURE() << "asked for page " << p << ", guard holds " << held
                      << " with header id " << v.page_id();
        errors.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) threads.emplace_back(reader, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(errors.load(), 0);
  const uint64_t misses = m.pages_read.load() - reads_before;
  EXPECT_GT(misses, 0u) << "no evictions";
  EXPECT_LT(misses, static_cast<uint64_t>(kReaders) * kOpsPerThread)
      << "no hits";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolIdentityTest,
                         ::testing::ValuesIn(StressSeeds(3)));

class DirtyPageTableTest : public ::testing::TestWithParam<uint64_t> {};

// With `fault` set, writers skip fetches that fail with its IOError.
void CheckSnapshotsAgainstDisk(uint64_t seed, FaultInjector* fault) {
  constexpr int kWriters = 4;
  constexpr int kDptPages = 32;
  constexpr int kWrites = 20000;
  TempDir dir("bp_dpt");
  Metrics m;
  DiskManager disk(dir.path() + "/data.db", 512, &m);
  ASSERT_OK(disk.Open());
  DiskManager reader(dir.path() + "/data.db", 512, nullptr);
  ASSERT_OK(reader.Open());
  LogManager log(dir.path() + "/wal", &m, false);
  ASSERT_OK(log.Open());
  BufferPool pool(&disk, &log, kFrames, &m, /*verify_checksums=*/true);
  for (PageId p = 0; p < kDptPages; ++p) {
    auto g = pool.FetchPage(p, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().Init(p, PageType::kHeap, 1, 0);
    g.value().MarkDirty(1);
  }
  ASSERT_OK(pool.FlushAll());
  pool.SetFaultInjector(fault);

  // done[p]: the newest page_LSN of page p whose guard has been released.
  std::vector<std::atomic<Lsn>> done(kDptPages);
  for (auto& d : done) d.store(1);
  std::atomic<Lsn> next_lsn{2};
  std::atomic<int> writers_left{kWriters};
  auto writer = [&](int t) {
    Random rnd(seed * 104729 + static_cast<uint64_t>(t));
    for (int i = 0; i < kWrites; ++i) {
      const PageId p = static_cast<PageId>(rnd.Uniform(kDptPages));
      Lsn lsn;
      {
        auto g = pool.FetchPage(p, LatchMode::kExclusive);
        if (fault != nullptr && g.status().code() == Code::kIOError) continue;
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        lsn = next_lsn.fetch_add(1);
        g.value().MarkDirty(lsn);
      }
      Lsn prev = done[p].load();
      while (prev < lsn && !done[p].compare_exchange_weak(prev, lsn)) {
      }
    }
    writers_left.fetch_sub(1);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) threads.emplace_back(writer, t);

  // Disk images only get newer, so a page is re-read only when its floor
  // passed the newest image seen; the loop stays mostly snapshots.
  std::vector<Lsn> on_disk(kDptPages, 1);
  uint64_t snapshots = 0, absent_checked = 0;
  std::vector<char> buf(512);
  auto disk_lsn = [&](PageId p) {
    EXPECT_OK(reader.ReadPage(p, buf.data()));
    on_disk[p] = std::max(on_disk[p], PageView(buf.data(), 512).page_lsn());
    return on_disk[p];
  };
  std::vector<Lsn> floor(kDptPages);
  std::vector<bool> listed(kDptPages);
  while (writers_left.load() > 0 && !::testing::Test::HasFailure()) {
    for (PageId p = 0; p < kDptPages; ++p) floor[p] = done[p].load();
    listed.assign(kDptPages, false);
    for (auto& [id, rec_lsn] : pool.DirtyPageTable()) listed[id] = true;
    ++snapshots;
    if (fault != nullptr) {
      fault->Arm({.kind = FaultKind::kTransientError,
                  .site = FaultSite::kEvictWrite});
    }
    for (PageId p = 0; p < kDptPages; ++p) {
      if (listed[p] || on_disk[p] >= floor[p]) continue;
      ++absent_checked;
      // A second read rules out a torn pread racing a write-back.
      if (disk_lsn(p) < floor[p] && disk_lsn(p) < floor[p]) {
        ADD_FAILURE() << "page " << p << " missing from the DPT but its disk "
                      << "image is older than completed update " << floor[p];
      }
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_GT(absent_checked, 0u) << "no page left the DPT after an update";
  EXPECT_GT(m.pages_written.load(), static_cast<uint64_t>(kDptPages))
      << "no eviction write-backs";
  if (fault != nullptr) {
    EXPECT_GT(fault->fires(), 0u) << "no failed write-back";
  }
}

TEST_P(DirtyPageTableTest, PagesAbsentFromASnapshotAreOnDisk) {
  CheckSnapshotsAgainstDisk(GetParam(), nullptr);
}

TEST_P(DirtyPageTableTest, FailedWriteBacksStayInTheSnapshot) {
  FaultInjector fault;
  CheckSnapshotsAgainstDisk(GetParam(), &fault);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirtyPageTableTest,
                         ::testing::ValuesIn(StressSeeds(3)));

}  // namespace
}  // namespace ariesim
