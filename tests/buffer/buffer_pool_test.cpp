// Buffer-pool tests: fetch/pin/latch, eviction under pressure, the WAL rule
// (log forced before a dirty steal), dirty-page-table snapshots, crash drop.
// The concurrent eviction hammer is tests/buffer/pool_hammer_test.cpp.
#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "test_util.h"

namespace ariesim {
namespace {

using testing::TempDir;

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("bp");
    disk_ = std::make_unique<DiskManager>(dir_->path() + "/data.db", 512, &m_);
    ASSERT_OK(disk_->Open());
    log_ = std::make_unique<LogManager>(dir_->path() + "/wal", &m_, false);
    ASSERT_OK(log_->Open());
  }
  std::unique_ptr<BufferPool> MakePool(size_t frames) {
    return std::make_unique<BufferPool>(disk_.get(), log_.get(), frames, &m_,
                                        /*verify_checksums=*/true);
  }
  Metrics m_;
  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogManager> log_;
};

TEST_F(BufferPoolTest, FetchInitializeFlushRefetch) {
  auto pool = MakePool(8);
  {
    auto g = pool->FetchPage(5, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    PageView v = g.value().view();
    v.Init(5, PageType::kHeap, 1, 0);
    g.value().MarkDirty(100);
  }
  ASSERT_OK(pool->FlushPage(5));
  // New pool (cold cache) re-reads from disk with checksum verification.
  auto pool2 = MakePool(8);
  auto g2 = pool2->FetchPage(5, LatchMode::kShared);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2.value().view().type(), PageType::kHeap);
  EXPECT_EQ(g2.value().view().page_lsn(), 100u);
}

TEST_F(BufferPoolTest, EvictionWritesDirtyVictims) {
  auto pool = MakePool(4);
  // Dirty 10 pages through a 4-frame pool: evictions must persist them.
  for (PageId id = 0; id < 10; ++id) {
    auto g = pool->FetchPage(id, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().Init(id, PageType::kHeap, 1, 0);
    g.value().view().set_level(static_cast<uint8_t>(id));
    g.value().MarkDirty(1000 + id);
  }
  for (PageId id = 0; id < 10; ++id) {
    auto g = pool->FetchPage(id, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().view().level(), id) << "page " << id;
  }
}

TEST_F(BufferPoolTest, WalRuleForcesLogBeforeSteal) {
  auto pool = MakePool(2);
  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.rm = RmId::kHeap;
  rec.op = 1;
  Lsn lsn = log_->Append(&rec).value();
  Lsn rec_end = lsn + rec.SerializedSize();
  {
    auto g = pool->FetchPage(1, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().Init(1, PageType::kHeap, 1, 0);
    g.value().MarkDirty(rec_end);  // page_LSN points past the record
  }
  EXPECT_LT(log_->flushed_lsn(), rec_end);
  // Evict page 1 by touching two other pages.
  { auto a = pool->FetchPage(2, LatchMode::kShared); ASSERT_TRUE(a.ok()); }
  { auto b = pool->FetchPage(3, LatchMode::kShared); ASSERT_TRUE(b.ok()); }
  EXPECT_GE(log_->flushed_lsn(), rec_end)
      << "dirty steal must force the log up to page_LSN first";
}

TEST_F(BufferPoolTest, PoolExhaustionReturnsBusy) {
  auto pool = MakePool(2);
  auto a = pool->FetchPage(1, LatchMode::kShared);
  auto b = pool->FetchPage(2, LatchMode::kShared);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = pool->FetchPage(3, LatchMode::kShared);
  EXPECT_TRUE(c.status().IsBusy());
}

TEST_F(BufferPoolTest, DirtyPageTableTracksRecLsn) {
  auto pool = MakePool(8);
  {
    auto g = pool->FetchPage(1, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().Init(1, PageType::kHeap, 1, 0);
    g.value().MarkDirty(500);
    g.value().MarkDirty(900);  // recLSN stays at first dirtying
  }
  auto dpt = pool->DirtyPageTable();
  ASSERT_EQ(dpt.size(), 1u);
  EXPECT_EQ(dpt[0].first, 1u);
  EXPECT_EQ(dpt[0].second, 500u);
  ASSERT_OK(pool->FlushPage(1));
  EXPECT_TRUE(pool->DirtyPageTable().empty());
}

TEST_F(BufferPoolTest, DropAllLosesUnflushed) {
  auto pool = MakePool(8);
  {
    auto g = pool->FetchPage(1, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().Init(1, PageType::kHeap, 7, 0);
    g.value().MarkDirty(10);
  }
  pool->DropAll();
  auto g = pool->FetchPage(1, LatchMode::kShared);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().view().type(), PageType::kInvalid)
      << "unflushed page must be gone after a crash-drop";
}

// The optimistic read path's ABA argument (docs/CONCURRENCY.md, "Why this
// is safe") rests on this: a pin-only OptimisticPageGuard keeps its frame
// bound to its page, so the latch version it validates against cannot be
// recycled by an eviction.
TEST_F(BufferPoolTest, PinGuardPreventsEviction) {
  auto pool = MakePool(2);
  {
    auto g = pool->FetchPage(1, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().Init(1, PageType::kHeap, 1, 0);
    g.value().MarkDirty(1);
  }
  auto pin = pool->FetchPageOptimistic(1);
  ASSERT_TRUE(pin.ok());
  std::vector<char> snap(pool->page_size());
  uint64_t version = 0;
  ASSERT_TRUE(pin.value().TrySnapshot(snap.data(), &version));
  // Pages 2..5 cycle through the one unpinned frame.
  for (PageId id = 2; id <= 5; ++id) {
    auto g = pool->FetchPage(id, LatchMode::kShared);
    ASSERT_TRUE(g.ok()) << "page " << id;
  }
  EXPECT_EQ(pin.value().page_id(), 1u);
  EXPECT_TRUE(pin.value().Validate(version));
  const uint64_t reads = m_.pages_read.load();
  {
    auto g1 = pool->FetchPage(1, LatchMode::kShared);
    ASSERT_TRUE(g1.ok());
    EXPECT_EQ(g1.value().view().type(), PageType::kHeap);
  }
  EXPECT_EQ(m_.pages_read.load(), reads) << "pinned page 1 was evicted";
  // With page 1 pinned and page 5 latched, no frame is left to steal.
  auto g5 = pool->FetchPage(5, LatchMode::kShared);
  ASSERT_TRUE(g5.ok());
  EXPECT_TRUE(pool->FetchPage(6, LatchMode::kShared).status().IsBusy());
  // An X hold on the pinned page is what invalidates the snapshot.
  { auto x = pool->FetchPage(1, LatchMode::kExclusive); ASSERT_TRUE(x.ok()); }
  EXPECT_FALSE(pin.value().Validate(version));
}

TEST_F(BufferPoolTest, ConcurrentFetchesOfSamePage) {
  auto pool = MakePool(4);
  {
    auto g = pool->FetchPage(1, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().Init(1, PageType::kHeap, 1, 0);
    g.value().MarkDirty(1);
  }
  std::vector<std::thread> ts;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto g = pool->FetchPage(1, LatchMode::kShared);
        if (g.ok() && g.value().view().type() == PageType::kHeap) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(ok_count.load(), 8 * 200);
}

TEST_F(BufferPoolTest, ChecksumCorruptionDetected) {
  auto pool = MakePool(4);
  {
    auto g = pool->FetchPage(1, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().Init(1, PageType::kHeap, 1, 0);
    g.value().MarkDirty(5);
  }
  ASSERT_OK(pool->FlushPage(1));
  // Corrupt the page body on disk behind the pool's back.
  std::string raw(512, '\0');
  ASSERT_OK(disk_->ReadPage(1, raw.data()));
  raw[100] ^= 0x7f;
  ASSERT_OK(disk_->WritePage(1, raw.data()));
  auto pool2 = MakePool(4);
  auto g = pool2->FetchPage(1, LatchMode::kShared);
  EXPECT_EQ(g.status().code(), Code::kCorruption);
}

}  // namespace
}  // namespace ariesim
