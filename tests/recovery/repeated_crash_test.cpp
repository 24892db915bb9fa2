// Bounded logging under repeated failures (paper §1.2): CLR chaining via
// UndoNxtLSN guarantees that no matter how many times the system crashes
// during restart, each loser record is compensated at most once, so the log
// grows by at most O(remaining undo work) per attempt — never re-undoing
// what previous attempts already compensated.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "db/database.h"
#include "record/heap_file.h"
#include "test_util.h"

namespace ariesim {
namespace {

using testing::SmallPageOptions;
using testing::TempDir;

TEST(RepeatedCrashTest, CrashStormDuringRecoveryConverges) {
  TempDir dir("storm");
  constexpr int kLoserRecords = 60;
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    Table* t = db->CreateTable("t", 2).value();
    ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());
    Transaction* loser = db->Begin();
    for (int i = 0; i < kLoserRecords; ++i) {
      ASSERT_OK(t->Insert(loser, {"k" + std::to_string(i), "v"}));
    }
    ASSERT_OK(db->wal()->FlushAll());
    ASSERT_OK(db->FlushAllPages());
    db->SimulateCrash();
  }

  // Crash during every recovery attempt after 7 undo steps; each attempt
  // must make monotone forward progress via CLRs.
  Options broken = SmallPageOptions();
  broken.recover_on_open = false;
  int attempts = 0;
  uint64_t prev_log_size = 0;
  for (; attempts < 100; ++attempts) {
    auto db = std::move(Database::Open(dir.path(), broken)).value();
    db->recovery()->TestStopUndoAfter(7);
    RestartStats stats;
    Status s = db->recovery()->Restart(&stats);
    if (s.ok()) break;  // recovery completed before the injection fired
    ASSERT_EQ(s.code(), Code::kIOError);
    ASSERT_OK(db->wal()->FlushAll());
    uint64_t log_size = db->wal()->next_lsn();
    if (prev_log_size != 0) {
      // Bounded logging: each attempt adds at most ~7 CLRs + bookkeeping.
      EXPECT_LT(log_size - prev_log_size, 4096u)
          << "unbounded log growth across repeated recovery crashes";
    }
    prev_log_size = log_size;
    db->SimulateCrash();
  }
  EXPECT_LT(attempts, 40) << "recovery never converged";

  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  size_t keys = 1;
  ASSERT_OK(db->GetIndex("pk")->Validate(&keys));
  EXPECT_EQ(keys, 0u);
}

// Reads the whole log and matches each CLR to the record it compensates:
// the record of its transaction whose PrevLSN equals the CLR's UndoNxtLSN
// (a transaction's PrevLSN chain is linear, so at most one has it). Every
// undoable record of a transaction that never committed must be compensated
// exactly once, unless it lies inside a completed nested top action (from a
// dummy CLR back along PrevLSN, over updates and nested dummy CLRs, down to
// the dummy CLR's UndoNxtLSN); those must never be.
void ExpectEachLoserRecordCompensatedOnce(const std::string& path,
                                          size_t min_loser_records,
                                          size_t min_nta_records) {
  Metrics m;
  LogManager lm(path + "/wal.log", &m, false);
  ASSERT_OK(lm.Open());
  LogManager::Reader reader(&lm, kLogFilePrologue);
  std::map<Lsn, LogRecord> log;
  for (LogRecord rec; reader.Next(&rec).ok();) log[rec.lsn] = rec;
  std::set<TxnId> committed;
  std::map<std::pair<TxnId, Lsn>, Lsn> by_prev;  // -> the undoable record
  for (auto& [lsn, r] : log) {
    if (r.type == LogType::kCommit) committed.insert(r.txn_id);
    if (r.IsUndoable()) by_prev[{r.txn_id, r.prev_lsn}] = lsn;
  }
  std::set<Lsn> in_nta;
  for (auto& [lsn, d] : log) {
    if (!d.IsDummyClr()) continue;
    for (auto it = log.find(d.prev_lsn);
         it != log.end() && it->first > d.undo_next_lsn &&
         (it->second.IsUndoable() || it->second.IsDummyClr());
         it = log.find(it->second.prev_lsn)) {
      in_nta.insert(it->first);
    }
  }
  std::map<Lsn, int> compensated;
  for (auto& [lsn, c] : log) {
    if (!c.IsClr() || c.IsDummyClr()) continue;
    auto it = by_prev.find({c.txn_id, c.undo_next_lsn});
    ASSERT_NE(it, by_prev.end()) << "CLR at " << lsn << " compensates nothing";
    ++compensated[it->second];
  }
  size_t loser_records = 0;
  for (auto& [lsn, r] : log) {
    if (!r.IsUndoable()) continue;
    if (in_nta.count(lsn) != 0) {
      EXPECT_EQ(compensated[lsn], 0) << "NTA record at " << lsn;
    } else if (r.txn_id != kInvalidTxnId && committed.count(r.txn_id) == 0) {
      ++loser_records;
      EXPECT_EQ(compensated[lsn], 1) << "loser record at " << lsn;
    }
  }
  EXPECT_GE(loser_records, min_loser_records);
  EXPECT_GE(in_nta.size(), min_nta_records);
}

TEST(RepeatedCrashTest, EachRecordCompensatedAtMostOnce) {
  TempDir dir("once");
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    Table* t = db->CreateTable("t", 2).value();
    ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());
    Transaction* loser = db->Begin();
    // Rows of ~70 bytes fill a 512-byte heap page every few inserts, so
    // the loser's log interleaves page-allocation NTAs with its updates.
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(
          t->Insert(loser, {"k" + std::to_string(i), std::string(60, 'v')}));
    }
    ASSERT_OK(db->wal()->FlushAll());
    ASSERT_OK(db->FlushAllPages());
    db->SimulateCrash();
  }
  {
    Options broken = SmallPageOptions();
    broken.recover_on_open = false;
    auto db = std::move(Database::Open(dir.path(), broken)).value();
    db->recovery()->TestStopUndoAfter(5);
    RestartStats stats;
    EXPECT_FALSE(db->recovery()->Restart(&stats).ok());
    ASSERT_OK(db->wal()->FlushAll());
    db->SimulateCrash();
  }
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    size_t keys = 1;
    ASSERT_OK(db->GetIndex("pk")->Validate(&keys));
    EXPECT_EQ(keys, 0u);
  }
  // 20 row inserts = 20 heap records + 20 index records, plus allocation
  // and chain NTAs. Across both recovery attempts each must be compensated
  // exactly once, except the records of completed NTAs, which undo skips
  // by the dummy CLR's UndoNxtLSN.
  ExpectEachLoserRecordCompensatedOnce(dir.path(), 40, 1);
}

TEST(RepeatedCrashTest, RedoIsIdempotentAcrossRecoveries) {
  // page_LSN-gated redo: a second recovery over the same log must SKIP every
  // update the first recovery already applied and flushed — scanning the
  // records again is fine, re-applying them is not (it would, e.g., insert
  // index keys twice).
  TempDir dir("idem");
  constexpr int kRows = 30;
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    Table* t = db->CreateTable("t", 2).value();
    ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());
    Transaction* txn = db->Begin();
    for (int i = 0; i < kRows; ++i) {
      ASSERT_OK(t->Insert(txn, {"k" + std::to_string(i), "v"}));
    }
    ASSERT_OK(db->Commit(txn));
    db->SimulateCrash();  // dirty pages lost: the next open has real redo
  }
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    ASSERT_GT(db->restart_stats().redo_applied, 0u)
        << "first recovery must actually redo the lost updates";
    // Persist the redone pages, then crash again without further updates.
    ASSERT_OK(db->FlushAllPages());
    db->SimulateCrash();
  }
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    const RestartStats& st = db->restart_stats();
    EXPECT_GT(st.redo_records, 0u)
        << "the second recovery still scans the shared log suffix";
    EXPECT_EQ(st.redo_applied, 0u)
        << "every record's effect is already on disk (page_LSN gate)";
    EXPECT_EQ(db->metrics().redo_records_skipped.load(), st.redo_records);
    // And the data is exactly once-applied.
    size_t keys = 0;
    ASSERT_OK(db->GetIndex("pk")->Validate(&keys));
    EXPECT_EQ(keys, static_cast<size_t>(kRows));
    Table* t = db->GetTable("t");
    Transaction* check = db->Begin();
    for (int i = 0; i < kRows; ++i) {
      std::optional<Row> row;
      ASSERT_OK(t->FetchByKey(check, "pk", "k" + std::to_string(i), &row));
      ASSERT_TRUE(row.has_value()) << "k" << i;
      EXPECT_EQ((*row)[1], "v");
    }
    ASSERT_OK(db->Commit(check));
  }
}

TEST(RepeatedCrashTest, TightTombstoneReuseNeverLogsUnappliableInsert) {
  // Regression: with zero raw free bytes and a committed tombstone of L
  // bytes, the old tombstone-reuse fit check (zero-floored
  // FreeSpaceForNewCell() + reclaim + kSlotSize) accepted records up to
  // L + kSlotSize even though only L bytes exist after the purge. The
  // insert was LOGGED, failed to apply, and the live path shrugged and
  // placed the row on the next chain page — leaving an orphan log record
  // that restart redo replays into the same NoSpace, failing recovery
  // with "page full".
  TempDir dir("tight");
  Rid victim_page_rid;
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    Table* t = db->CreateTable("t", 2).value();
    HeapFile* heap = t->heap();
    // 512-byte page, 40-byte header: 8 records of 55 bytes plus 8 slot
    // entries of 4 bytes fill the page exactly (8 * 59 = 472).
    Transaction* fill = db->Begin();
    std::vector<Rid> rids;
    for (int i = 0; i < 8; ++i) {
      auto r = heap->Insert(fill, std::string(55, static_cast<char>('a' + i)));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      rids.push_back(r.value());
    }
    ASSERT_OK(db->Commit(fill));
    ASSERT_EQ(rids.front().page_id, rids.back().page_id) << "fill math is off";
    victim_page_rid = rids.front();
    // Free exactly one cell as a committed tombstone.
    Transaction* del = db->Begin();
    ASSERT_OK(heap->Delete(del, rids[3]));
    ASSERT_OK(db->Commit(del));
    // 58 > 55: does not fit even after reclaiming the tombstone. Must land
    // on a chain page without logging anything against the full page.
    Transaction* ins = db->Begin();
    auto r = heap->Insert(ins, std::string(58, 'z'));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_NE(r.value().page_id, victim_page_rid.page_id)
        << "58 bytes cannot fit on the full page";
    ASSERT_OK(db->Commit(ins));
    db->SimulateCrash();
  }
  // Restart replays the full page's history from scratch; it only succeeds
  // if every logged record is actually applicable.
  auto reopened = Database::Open(dir.path(), SmallPageOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto db = std::move(reopened).value();
  auto got = db->GetTable("t")->heap()->Fetch(victim_page_rid);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), std::string(55, 'a'));
}

TEST(RepeatedCrashTest, CrashImmediatelyAfterRecoveryIsCheap) {
  TempDir dir("cheap");
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    Table* t = db->CreateTable("t", 2).value();
    ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());
    Transaction* txn = db->Begin();
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(t->Insert(txn, {"k" + std::to_string(i), "v"}));
    }
    ASSERT_OK(db->Commit(txn));
    db->SimulateCrash();
  }
  uint64_t first_redo = 0;
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    first_redo = db->restart_stats().redo_applied;
    EXPECT_GT(first_redo, 0u);
    db->SimulateCrash();  // crash right after recovery's checkpoint
  }
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    // The checkpoint taken at the end of the previous recovery bounds this
    // pass: nothing (or almost nothing) to redo. NB: recovery does not
    // flush data pages, so redo may re-apply to pages that never reached
    // disk — but the analysis scan itself must be short.
    EXPECT_LE(db->restart_stats().analysis_records, 10u);
  }
}

}  // namespace
}  // namespace ariesim
