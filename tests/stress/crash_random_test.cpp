// Randomized crash-recovery property test (parameterized over seeds):
//
//   run a random single-threaded workload of transactions (insert / delete /
//   update through a unique index), committing or aborting at random, with
//   random page steals (FlushPage) along the way; crash at a random point;
//   recover; assert the database equals the reference model of exactly the
//   committed transactions, and the tree validates. Repeat with a second
//   crash during recovery for good measure. Read-only transactions, some
//   open across checkpoints and one in flight at the crash, check reads
//   against the reference and must never surface as restart losers.
#include <gtest/gtest.h>

#include <map>

#include "db/database.h"
#include "fault_util.h"
#include "test_util.h"
#include "util/random.h"

namespace ariesim {
namespace {

using testing::SmallPageOptions;
using testing::TempDir;

class CrashRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashRandomTest, RecoveredStateEqualsCommittedReference) {
  uint64_t seed = GetParam();
  Random rnd(seed);
  Random ro_rnd(seed ^ 0x5eadull);  // read-only txns: leaves rnd's stream be
  TempDir dir("crash_rnd");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* table = db->CreateTable("t", 2).value();
  ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());

  std::map<std::string, std::string> committed;  // reference
  const int kTxns = static_cast<int>(rnd.Range(10, 40));
  const int kKeySpace = 60;

  for (int t = 0; t < kTxns; ++t) {
    // A read-only transaction: reads checked against the reference, maybe
    // a checkpoint while it is open, then commit or rollback.
    if (ro_rnd.Percent(30)) {
      Transaction* reader = db->Begin();
      for (int i = static_cast<int>(ro_rnd.Range(1, 3)); i > 0; --i) {
        std::string key = "k" + ro_rnd.Key(ro_rnd.Uniform(kKeySpace), 3);
        std::optional<Row> row;
        ASSERT_OK(table->FetchByKey(reader, "pk", key, &row));
        auto it = committed.find(key);
        ASSERT_EQ(row.has_value(), it != committed.end()) << "seed " << seed;
        if (row.has_value()) {
          EXPECT_EQ((*row)[1], it->second);
        }
        if (ro_rnd.Percent(20)) ASSERT_OK(db->Checkpoint());
      }
      ASSERT_OK(ro_rnd.Percent(70) ? db->Commit(reader) : db->Rollback(reader));
    }
    Transaction* txn = db->Begin();
    std::map<std::string, std::optional<std::string>> intents;
    int nops = static_cast<int>(rnd.Range(1, 8));
    for (int op = 0; op < nops; ++op) {
      std::string key = "k" + rnd.Key(rnd.Uniform(kKeySpace), 3);
      if (rnd.Percent(60)) {
        std::string value = "v" + std::to_string(t) + "." + std::to_string(op);
        Status s = table->Insert(txn, {key, value});
        if (s.ok()) {
          intents[key] = value;
        } else {
          ASSERT_TRUE(s.IsDuplicate()) << s.ToString();
        }
      } else {
        std::optional<Row> row;
        Rid rid;
        ASSERT_OK(table->FetchByKey(txn, "pk", key, &row, &rid));
        if (row.has_value()) {
          ASSERT_OK(table->Delete(txn, rid));
          intents[key] = std::nullopt;
        }
      }
      // Occasional mid-transaction page steal (dirty page forced to disk).
      if (rnd.Percent(15)) {
        (void)db->FlushPage(static_cast<PageId>(rnd.Uniform(100)));
      }
    }
    if (rnd.Percent(30)) {
      ASSERT_OK(db->Rollback(txn));
    } else {
      ASSERT_OK(db->Commit(txn));
      for (auto& [k, v] : intents) {
        if (v.has_value()) {
          committed[k] = *v;
        } else {
          committed.erase(k);
        }
      }
    }
    if (rnd.Percent(10)) {
      ASSERT_OK(db->Checkpoint());
    }
  }
  // Leave one transaction in flight at the crash.
  Transaction* in_flight = db->Begin();
  (void)table->Insert(in_flight, {"zz-inflight", "boom"});
  // And a reader across a checkpoint. It reads a live key only: a missing
  // one may S-lock the next key, which in_flight's record can be.
  Transaction* reader = db->Begin();
  if (!committed.empty()) {
    std::optional<Row> row;
    ASSERT_OK(table->FetchByKey(reader, "pk", committed.begin()->first, &row));
    ASSERT_TRUE(row.has_value()) << "seed " << seed;
  }
  ASSERT_OK(db->Checkpoint());
  ASSERT_OK(db->wal()->FlushAll());
  for (PageId pid = 0; pid < 100; ++pid) {
    if (rnd.Percent(40)) (void)db->FlushPage(pid);
  }
  db->SimulateCrash();

  // First recovery, interrupted at a random point in the undo pass.
  {
    Options o = SmallPageOptions();
    o.recover_on_open = false;
    auto crashed = std::move(Database::Open(dir.path(), o)).value();
    crashed->recovery()->TestStopUndoAfter(static_cast<int>(rnd.Uniform(5)));
    RestartStats stats;
    Status s = crashed->recovery()->Restart(&stats);
    (void)s;  // may or may not hit the injection
    EXPECT_EQ(stats.loser_txns, 1u) << "seed " << seed << ": only in_flight";
    ASSERT_OK(crashed->wal()->FlushAll());
    crashed->SimulateCrash();
  }

  // Final recovery.
  auto recovered = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* rtable = recovered->GetTable("t");
  ASSERT_NE(rtable, nullptr);
  BTree* rtree = recovered->GetIndex("pk");
  size_t keys = 0;
  ASSERT_OK(rtree->Validate(&keys));
  EXPECT_EQ(keys, committed.size()) << "seed " << seed;

  Transaction* check = recovered->Begin();
  for (auto& [k, v] : committed) {
    std::optional<Row> row;
    ASSERT_OK(rtable->FetchByKey(check, "pk", k, &row));
    ASSERT_TRUE(row.has_value()) << "seed " << seed << ": lost committed " << k;
    EXPECT_EQ((*row)[1], v) << "seed " << seed << ": stale value for " << k;
  }
  std::optional<Row> row;
  ASSERT_OK(rtable->FetchByKey(check, "pk", "zz-inflight", &row));
  EXPECT_FALSE(row.has_value()) << "in-flight transaction leaked";
  ASSERT_OK(recovered->Commit(check));

  // Heap agrees with the index.
  std::vector<std::pair<Rid, std::string>> rows;
  ASSERT_OK(rtable->heap()->ScanAll(&rows));
  EXPECT_EQ(rows.size(), committed.size()) << "seed " << seed;
}

// Seed list overridable via ARIESIM_STRESS_SEEDS (e.g. "42" or "1-64") to
// replay a failing seed or widen the sweep; defaults to 1..10.
INSTANTIATE_TEST_SUITE_P(Seeds, CrashRandomTest,
                         ::testing::ValuesIn(testing::StressSeeds(10)));

}  // namespace
}  // namespace ariesim
