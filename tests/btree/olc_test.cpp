// Optimistic lock coupling on the read path (docs/CONCURRENCY.md,
// "Optimistic descent"): latch-free descents must never act on a torn or
// stale node image.
//
//  - Seeded reader/writer storms: every committed key must be found by a
//    concurrent kEq fetch (a wrong-leaf landing reads as a miss), and every
//    kGe fetch must return a well-formed key >= the probe (a torn parse
//    reads as garbage or an ordering violation). Splits, root grows and
//    page deletes run continuously underneath.
//  - Forced fallbacks: an SM_Bit sighted on an internal page and an
//    exhausted restart budget (a reader starved by a held X latch) must
//    both hand over to the pessimistic path — counted, and correct.
//  - Cursor FetchNext across a leaf split repositions through the
//    optimistic descent and must not skip or duplicate keys.
//
// Seed list overridable via ARIESIM_STRESS_SEEDS ("7", "1,2,9", "1-32").
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "db/database.h"
#include "fault_util.h"
#include "test_util.h"
#include "util/random.h"

namespace ariesim {
namespace {

using testing::SmallPageOptions;
using testing::StressSeeds;
using testing::TempDir;

std::string StormKey(int writer, int i) {
  // Fixed-width so readers can assert well-formedness of anything returned.
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%d-%06d", writer, i);
  return buf;
}

Rid StormRid(int writer, int i) {
  return Rid{static_cast<PageId>(5000 + writer),
             static_cast<uint16_t>(i % 1000)};
}

// ---------------------------------------------------------------------------
// Seeded reader/writer storm
// ---------------------------------------------------------------------------

class OlcStormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OlcStormTest, ReadersNeverObserveTornOrStaleNodes) {
  const uint64_t seed = GetParam();
  TempDir dir("olc_storm");
  Options opts = SmallPageOptions();  // 512 B pages: SMOs every ~dozen keys
  opts.index_locking = LockingProtocolKind::kNone;  // isolate the latch path
  auto db = std::move(Database::Open(dir.path(), opts)).value();
  db->CreateTable("t", 1).value();
  BTree* tree = db->CreateIndexWithProtocol("t", "ix", 0, /*unique=*/false,
                                            LockingProtocolKind::kNone)
                    .value();

  constexpr int kWriters = 3;
  constexpr int kReaders = 4;
  constexpr int kCommittedPerWriter = 150;
  constexpr int kChurnPerWriter = 60;

  // Per-writer watermark: keys StormKey(w, 0..watermark[w]) are committed
  // and never deleted, so any concurrent kEq fetch MUST find them.
  std::atomic<int> watermark[kWriters];
  for (auto& w : watermark) w.store(-1);
  std::atomic<bool> writers_done{false};
  std::atomic<int> readers_started{0};
  std::atomic<uint64_t> reads{0};

  auto writer = [&](int w) {
    // Write only once every reader runs: commits are fast enough that the
    // writers could otherwise finish before a descheduled reader starts.
    while (readers_started.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
    Random rnd(seed * 131 + static_cast<uint64_t>(w));
    int churn = 0;
    for (int i = 0; i < kCommittedPerWriter; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_OK(tree->Insert(txn, StormKey(w, i), StormRid(w, i)));
      ASSERT_OK(db->Commit(txn));
      watermark[w].store(i, std::memory_order_release);
      // Churn traffic (distinct "x" prefix, never fetched by kEq): insert a
      // few keys and delete them again so page deletes / consolidations run
      // under the readers, not just splits.
      if (i % 5 == 4 && churn < kChurnPerWriter) {
        std::string xkey =
            "x" + std::to_string(w) + "-" + std::to_string(churn);
        Rid xrid = StormRid(w, 700 + churn);
        Transaction* t2 = db->Begin();
        ASSERT_OK(tree->Insert(t2, xkey, xrid));
        ASSERT_OK(db->Commit(t2));
        Transaction* t3 = db->Begin();
        ASSERT_OK(tree->Delete(t3, xkey, xrid));
        ASSERT_OK(db->Commit(t3));
        ++churn;
      }
    }
  };

  auto reader = [&](int r) {
    Random rnd(seed * 977 + static_cast<uint64_t>(r));
    readers_started.fetch_add(1, std::memory_order_release);
    do {
      int w = static_cast<int>(rnd.Uniform(kWriters));
      int hi = watermark[w].load(std::memory_order_acquire);
      Transaction* txn = db->Begin();
      if (hi >= 0 && rnd.Percent(70)) {
        // A committed, never-deleted key: a latch-free descent that landed
        // on the wrong leaf (or parsed a torn image) shows up as a miss.
        int i = static_cast<int>(rnd.Uniform(static_cast<uint64_t>(hi) + 1));
        std::string key = StormKey(w, i);
        FetchResult res;
        ASSERT_OK(tree->Fetch(txn, key, FetchCond::kEq, &res));
        ASSERT_TRUE(res.found) << "committed key " << key
                               << " invisible to a concurrent reader";
        ASSERT_EQ(res.value, key);
      } else {
        // Range probe: whatever comes back must be a well-formed key that
        // sorts at or after the probe (kGe contract).
        std::string probe = StormKey(static_cast<int>(rnd.Uniform(kWriters)),
                                     static_cast<int>(rnd.Uniform(
                                         kCommittedPerWriter)));
        FetchResult res;
        ASSERT_OK(tree->Fetch(txn, probe, FetchCond::kGe, &res));
        if (!res.eof) {
          ASSERT_GE(res.value, probe);
          ASSERT_FALSE(res.value.empty());
          char c = res.value[0];
          ASSERT_TRUE(c == 'k' || c == 'x') << "garbage key: " << res.value;
        }
      }
      ASSERT_OK(db->Commit(txn));
      reads.fetch_add(1, std::memory_order_relaxed);
    } while (!writers_done.load(std::memory_order_acquire));
  };

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  writers_done.store(true, std::memory_order_release);
  for (int r = 0; r < kReaders; ++r) {
    threads[static_cast<size_t>(kWriters + r)].join();
  }

  EXPECT_GT(reads.load(), 0u);
  // The optimistic path must actually have been exercised.
  EXPECT_GT(db->metrics().olc_descents.load(), 0u);
  // Quiesced structural check + full count: 3 writers x 150 keys survive.
  size_t keys = 0;
  ASSERT_OK(tree->Validate(&keys));
  EXPECT_EQ(keys, static_cast<size_t>(kWriters) * kCommittedPerWriter);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OlcStormTest,
                         ::testing::ValuesIn(StressSeeds(3)));

// ---------------------------------------------------------------------------
// Forced fallbacks and cursor behavior
// ---------------------------------------------------------------------------

class OlcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("olc");
    Options opts = SmallPageOptions();
    db_ = std::move(Database::Open(dir_->path(), opts)).value();
    db_->CreateTable("t", 1).value();
    tree_ = db_->CreateIndex("t", "ix", 0, /*unique=*/false).value();
  }

  /// Insert `n` committed keys StormKey(0, 0..n) — enough (with 512 B
  /// pages) to force splits and an internal root.
  void Fill(int n) {
    Transaction* txn = db_->Begin();
    for (int i = 0; i < n; ++i) {
      ASSERT_OK(tree_->Insert(txn, StormKey(0, i), StormRid(0, i)));
    }
    ASSERT_OK(db_->Commit(txn));
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Database> db_;
  BTree* tree_ = nullptr;
};

TEST_F(OlcTest, SmBitOnInternalPageForcesPessimisticFallback) {
  Fill(200);
  {
    auto g = db_->pool()->FetchPage(tree_->root(), LatchMode::kShared);
    ASSERT_TRUE(g.ok());
    ASSERT_EQ(g.value().view().type(), PageType::kBtreeInternal)
        << "fixture must produce an internal root";
  }
  // Simulate an in-flight SMO: tree latch held X, SM_Bit set on the root.
  tree_->tree_latch()->LockExclusive();
  {
    auto g = db_->pool()->FetchPage(tree_->root(), LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().set_sm_bit(true);
  }
  uint64_t fallbacks_before = db_->metrics().olc_fallbacks.load();

  // Retrievals may proceed concurrently with SMOs (§2.1 point 3) — but only
  // via the pessimistic path, which can disambiguate the bit. The fetch
  // must complete while the "SMO" still holds the tree latch.
  Transaction* reader = db_->Begin();
  FetchResult r;
  ASSERT_OK(tree_->Fetch(reader, StormKey(0, 42), FetchCond::kEq, &r));
  EXPECT_TRUE(r.found);
  ASSERT_OK(db_->Commit(reader));
  EXPECT_GT(db_->metrics().olc_fallbacks.load(), fallbacks_before)
      << "SM_Bit on an internal page must force the fallback";

  tree_->tree_latch()->UnlockExclusive();
  {
    auto g = db_->pool()->FetchPage(tree_->root(), LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g.value().view().set_sm_bit(false);
  }
}

TEST_F(OlcTest, RestartStormCapFallsBackAndStillSucceeds) {
  Fill(200);
  uint64_t restarts_before = db_->metrics().olc_restarts.load();
  uint64_t fallbacks_before = db_->metrics().olc_fallbacks.load();

  // Hold the root X-latched: every optimistic snapshot sees an odd version,
  // the restart budget drains, and the reader must fall back — where the
  // blocking S latch acquisition waits the "writer" out.
  auto hold = db_->pool()->FetchPage(tree_->root(), LatchMode::kExclusive);
  ASSERT_TRUE(hold.ok());
  std::atomic<bool> done{false};
  std::thread t([&] {
    Transaction* reader = db_->Begin();
    FetchResult r;
    Status s = tree_->Fetch(reader, StormKey(0, 7), FetchCond::kEq, &r);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(db_->Commit(reader).ok());
    done.store(true);
  });
  // The optimistic budget (8 restarts with micro-backoffs) drains in well
  // under this sleep; the reader is then parked on the pessimistic S latch.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load()) << "reader must be blocked on the held X latch";
  hold.value().Release();
  t.join();
  EXPECT_TRUE(done.load());
  EXPECT_GT(db_->metrics().olc_restarts.load(), restarts_before);
  EXPECT_GT(db_->metrics().olc_fallbacks.load(), fallbacks_before);
}

TEST_F(OlcTest, CursorFetchNextRepositionsAcrossLeafSplit) {
  Fill(40);
  Transaction* txn = db_->Begin();
  ScanCursor cur;
  FetchResult r;
  ASSERT_OK(tree_->OpenScan(txn, StormKey(0, 0), FetchCond::kGe, &cur, &r));
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.value, StormKey(0, 0));
  for (int i = 1; i <= 5; ++i) {
    ASSERT_OK(tree_->FetchNext(txn, &cur, &r));
    ASSERT_TRUE(r.found);
    ASSERT_EQ(r.value, StormKey(0, i));
  }

  // Split the cursor's leaf out from under it: keys sorting between the
  // current position k0-000005 and its successor force the leaf to split
  // (512 B pages hold only a handful of cells). The remembered page LSN no
  // longer matches, so the next FetchNext repositions via the optimistic
  // descent.
  Transaction* w = db_->Begin();
  std::string base = StormKey(0, 5);
  for (int i = 0; i < 40; ++i) {
    char suffix[8];
    std::snprintf(suffix, sizeof(suffix), "-%02d", i);
    ASSERT_OK(tree_->Insert(w, base + suffix, StormRid(1, i)));
  }
  ASSERT_OK(db_->Commit(w));

  uint64_t olc_before = db_->metrics().olc_descents.load();
  // Continue the scan: the 40 new keys come first (they sort after
  // k0-000005 and before k0-000006), then the original remainder, all in
  // order, none skipped, none repeated.
  std::vector<std::string> rest;
  while (true) {
    ASSERT_OK(tree_->FetchNext(txn, &cur, &r));
    if (r.eof || !r.found) break;
    if (!rest.empty()) {
      ASSERT_GT(r.value, rest.back());
    }
    rest.push_back(r.value);
  }
  ASSERT_OK(db_->Commit(txn));
  ASSERT_EQ(rest.size(), 40u + (40u - 6u));
  EXPECT_EQ(rest.front(), base + "-00");
  EXPECT_EQ(rest[39], base + "-39");
  EXPECT_EQ(rest[40], StormKey(0, 6));
  EXPECT_EQ(rest.back(), StormKey(0, 39));
  EXPECT_GT(db_->metrics().olc_descents.load(), olc_before)
      << "repositioning should use the optimistic descent";
}

TEST_F(OlcTest, DisabledKnobUsesClassicPathOnly) {
  TempDir dir2("olc_off");
  Options opts = SmallPageOptions();
  opts.optimistic_reads = false;
  auto db = std::move(Database::Open(dir2.path(), opts)).value();
  db->CreateTable("t", 1).value();
  BTree* tree = db->CreateIndex("t", "ix", 0, false).value();
  Transaction* txn = db->Begin();
  for (int i = 0; i < 120; ++i) {
    ASSERT_OK(tree->Insert(txn, StormKey(0, i), StormRid(0, i)));
  }
  ASSERT_OK(db->Commit(txn));
  Transaction* reader = db->Begin();
  FetchResult r;
  ASSERT_OK(tree->Fetch(reader, StormKey(0, 60), FetchCond::kEq, &r));
  EXPECT_TRUE(r.found);
  ASSERT_OK(db->Commit(reader));
  EXPECT_EQ(db->metrics().olc_descents.load(), 0u);
  EXPECT_EQ(db->metrics().olc_fallbacks.load(), 0u);
  // The read-path histogram still records (it times both modes for A/B).
  EXPECT_GT(db->metrics().read_descent_latency.count(), 0u);
}

}  // namespace
}  // namespace ariesim
