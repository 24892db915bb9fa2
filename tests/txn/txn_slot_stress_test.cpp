// Recycled transaction slots and lock states under concurrency. Four
// threads begin, write, commit and roll back (deadlock victims included);
// one of them keeps two transactions open at once, so Begin also takes the
// registry path. A fifth thread loops fuzzy checkpoints, lock-table
// snapshots and transaction-table snapshots. Checks:
//  - every transaction-table snapshot entry is current: its LastLSN is a
//    record of that transaction no older than any of its records appended
//    before the snapshot began;
//  - every transaction's PrevLSN chain in the log is unbroken;
//  - after a crash and restart, every committed row is present and every
//    rolled-back or in-flight row is absent.
// Also: steady-state Begin/Commit on one thread allocates nothing and makes
// no new slot.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "test_util.h"
#include "util/random.h"

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ariesim {
namespace {

using testing::SmallPageOptions;
using testing::TempDir;

constexpr int kWorkers = 4;
constexpr int kHotRows = 8;
constexpr auto kRunFor = std::chrono::milliseconds(1500);

struct TxnSnapshot {
  Lsn appended_before;  // log end read just before the snapshot
  std::vector<TxnTableEntry> entries;
};

std::string HotKey(int i) { return "hot" + std::to_string(i); }

TEST(TxnSlotStressTest, CheckpointsAndRestartSeeEveryOutcome) {
  TempDir dir("txn_slot");
  Options opts = SmallPageOptions();
  auto db = std::move(Database::Open(dir.path(), opts)).value();
  Table* t = db->CreateTable("t", 2).value();
  Table* u = db->CreateTable("u", 2).value();  // only the second txns
  ASSERT_TRUE(db->CreateIndex("t", "t_pk", 0, true).ok());
  ASSERT_TRUE(db->CreateIndex("u", "u_pk", 0, true).ok());
  {
    Transaction* setup = db->Begin();
    for (int i = 0; i < kHotRows; ++i) {
      ASSERT_OK(t->Insert(setup, {HotKey(i), "0"}));
    }
    ASSERT_OK(db->Commit(setup));
  }

  std::mutex outcome_mu;
  std::vector<std::pair<Table*, std::string>> committed, gone;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> deadlocks{0}, commits{0};

  // One transaction: a unique insert into `table`, plus (if `hot`) a read
  // and update of a hot row, which S->X conversions turn into deadlocks.
  // Returns the inserted key and whether it may survive (commit OK).
  auto run_one = [&](Table* table, Transaction* txn, const std::string& key,
                     bool hot, bool want_commit, Random* rnd) {
    Status s = table->Insert(txn, {key, "v"});
    if (s.ok() && hot) {
      const std::string hk = HotKey(static_cast<int>(rnd->Uniform(kHotRows)));
      std::optional<Row> row;
      Rid rid;
      s = t->FetchByKey(txn, "t_pk", hk, &row, &rid);
      if (s.ok() && row.has_value()) s = t->Update(txn, rid, {hk, "1"});
    }
    if (s.IsDeadlock()) deadlocks.fetch_add(1, std::memory_order_relaxed);
    EXPECT_TRUE(s.ok() || s.IsDeadlock()) << s.ToString();
    bool survives = false;
    if (s.ok() && want_commit) {
      EXPECT_OK(db->Commit(txn));
      commits.fetch_add(1, std::memory_order_relaxed);
      survives = true;
    } else {
      EXPECT_OK(db->Rollback(txn));
    }
    std::lock_guard<std::mutex> lk(outcome_mu);
    (survives ? committed : gone).push_back({table, key});
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      Random rnd(1000 + w);
      for (int n = 0; !stop.load(std::memory_order_relaxed); ++n) {
        const std::string key = "w" + std::to_string(w) + "-" +
                                std::to_string(n);
        const bool want_commit = rnd.Uniform(5) != 0;
        if (w != 0) {
          run_one(t, db->Begin(), key, rnd.Uniform(2) == 0, want_commit, &rnd);
          continue;
        }
        // Two transactions open on one thread: the second finds the cached
        // slot busy. It writes only `u`, which nothing else touches, so it
        // never waits on a transaction that waits on the first.
        Transaction* first = db->Begin();
        Transaction* second = db->Begin();
        ASSERT_NE(first, second);
        ASSERT_NE(first->id(), second->id());
        run_one(u, second, key + "b", false, want_commit, &rnd);
        run_one(t, first, key + "a", true, rnd.Uniform(5) != 0, &rnd);
      }
    });
  }
  std::vector<TxnSnapshot> snaps;
  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_OK(db->Checkpoint());
      LockTableSnapshot locks = db->locks()->Snapshot();
      for (const TxnLockInfo& ti : locks.txns) {
        EXPECT_NE(ti.txn, kInvalidTxnId);
      }
      TxnSnapshot snap{db->wal()->next_lsn(), {}};
      snap.entries = db->txns()->Snapshot();
      if (snaps.size() < 20000) snaps.push_back(std::move(snap));
    }
  });
  std::this_thread::sleep_for(kRunFor);
  stop = true;
  for (auto& th : threads) th.join();
  checkpointer.join();
  EXPECT_GT(commits.load(), 0u);

  // In-flight losers: one open transaction per thread at the crash, each
  // checkpointed while it runs.
  std::vector<Transaction*> open;
  for (int w = 0; w < kWorkers; ++w) {
    open.push_back(db->Begin());
    const std::string key = "loser" + std::to_string(w);
    ASSERT_OK(t->Insert(open.back(), {key, "v"}));
    gone.push_back({t, key});
  }
  ASSERT_OK(db->Checkpoint());
  ASSERT_OK(db->wal()->FlushAll());

  // The log as of the crash: each transaction's records, in LSN order.
  std::map<TxnId, std::vector<LogRecord>> by_txn;
  {
    LogManager::Reader reader(db->wal(), kLogFilePrologue);
    LogRecord rec;
    while (reader.Next(&rec).ok()) {
      if (rec.txn_id != kInvalidTxnId) by_txn[rec.txn_id].push_back(rec);
    }
  }
  for (const auto& [id, recs] : by_txn) {
    for (size_t i = 0; i < recs.size(); ++i) {
      ASSERT_EQ(recs[i].prev_lsn, i == 0 ? kNullLsn : recs[i - 1].lsn)
          << "txn " << id << " record " << i << " breaks its PrevLSN chain";
    }
  }
  size_t checked = 0;
  for (const TxnSnapshot& snap : snaps) {
    for (const TxnTableEntry& e : snap.entries) {
      auto it = by_txn.find(e.id);
      ASSERT_NE(it, by_txn.end()) << "snapshot names txn " << e.id;
      Lsn newest = kNullLsn;
      bool own = false;
      for (const LogRecord& r : it->second) {
        if (r.lsn < snap.appended_before) newest = r.lsn;
        own |= r.lsn == e.last_lsn;
      }
      ASSERT_TRUE(own) << "txn " << e.id << ": LastLSN is not its record";
      ASSERT_GE(e.last_lsn, newest)
          << "txn " << e.id << ": snapshot LastLSN lags its log records";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  std::printf("commits=%llu deadlocks=%llu snapshots=%zu entries=%zu\n",
              static_cast<unsigned long long>(commits.load()),
              static_cast<unsigned long long>(deadlocks.load()), snaps.size(),
              checked);

  db->SimulateCrash();
  db.reset();
  db = std::move(Database::Open(dir.path(), opts)).value();
  EXPECT_GE(db->restart_stats().loser_txns, static_cast<uint64_t>(kWorkers));
  Transaction* check = db->Begin();
  std::optional<Row> row;
  for (const auto& [table, key] : committed) {
    Table* reopened = db->GetTable(table == t ? "t" : "u");
    ASSERT_OK(reopened->FetchByKey(check, table == t ? "t_pk" : "u_pk", key,
                                   &row));
    EXPECT_TRUE(row.has_value()) << "committed row " << key << " lost";
  }
  for (const auto& [table, key] : gone) {
    Table* reopened = db->GetTable(table == t ? "t" : "u");
    ASSERT_OK(reopened->FetchByKey(check, table == t ? "t_pk" : "u_pk", key,
                                   &row));
    EXPECT_FALSE(row.has_value()) << "undone row " << key << " survived";
  }
  ASSERT_OK(db->Commit(check));
  ASSERT_OK(db->GetIndex("t_pk")->Validate(nullptr));
}

TEST(TxnSlotStressTest, SteadyStateBeginCommitAllocatesNothing) {
  TempDir dir("txn_slot_alloc");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* t = db->CreateTable("t", 2).value();
  ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());
  Transaction* setup = db->Begin();
  ASSERT_OK(t->Insert(setup, {"k", "v"}));
  ASSERT_OK(db->Commit(setup));
  const size_t slots = db->txns()->SlotCount();

  uint64_t allocs = 0;
  auto counted = [&](auto&& fn) {
    g_allocs = 0;
    g_count_allocs = true;
    fn();
    g_count_allocs = false;
    allocs += g_allocs.load();
  };
  for (int i = 0; i < 1000; ++i) {
    Transaction* txn = nullptr;
    counted([&] { txn = db->Begin(); });
    std::optional<Row> row;
    ASSERT_OK(t->FetchByKey(txn, "pk", "k", &row));  // takes locks
    ASSERT_TRUE(row.has_value());
    Status s;
    counted([&] { s = i % 2 == 0 ? db->Commit(txn) : db->Rollback(txn); });
    ASSERT_OK(s);
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(db->txns()->SlotCount(), slots);
}

}  // namespace
}  // namespace ariesim
