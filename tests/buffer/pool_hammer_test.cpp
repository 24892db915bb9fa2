// Buffer-pool stale-read hammer: 64 pages through an 8-frame pool, so every
// few operations evict a page, often a dirty one whose write-back races a
// reload of the same page. Eight threads mix three kinds of access:
//  - X writers bump a per-page counter and check it against a shadow copy
//    (a stale reload shows up as a counter behind the shadow);
//  - S readers check the counter never goes backwards;
//  - optimistic readers snapshot the page through an OptimisticPageGuard and
//    make the same check, but only after the snapshot validates.
// Seed list overridable via ARIESIM_STRESS_SEEDS ("7", "1,2,9", "1-32").
#include <gtest/gtest.h>

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
  std::atomic<uint64_t> validated{0};
  auto worker = [&](int t) {
    Random rnd(seed * 1009 + static_cast<uint64_t>(t));
    std::vector<uint64_t> last_seen(kPages, 0);
    std::vector<char> snap(pool.page_size());
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
      const uint64_t kind = rnd.Uniform(3);
      if (kind == 2) {
        auto g = pool.FetchPageOptimistic(p);
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        uint64_t version = 0;
        if (!g.value().TrySnapshot(snap.data(), &version)) continue;
        validated.fetch_add(1);
        check(p, DecodeFixed64(snap.data() + kPageHeaderSize), floor,
              "optimistic reader");
        continue;
      }
      const LatchMode mode =
          kind == 0 ? LatchMode::kExclusive : LatchMode::kShared;
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
  EXPECT_GT(validated.load(), 0u) << "no optimistic snapshot validated";
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

}  // namespace
}  // namespace ariesim
