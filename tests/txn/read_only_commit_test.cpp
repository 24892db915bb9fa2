// Read-only transactions (docs/ARCHITECTURE.md, "Commit rule"): a
// transaction that logged nothing commits or rolls back by releasing its
// locks — no commit/abort/end record and no log force — except that a
// synchronous read-only commit first hardens any lazy commit it may have
// read from. Also pins the data-only TableScan lock count: Fetch Next's key
// lock is the record lock (paper §2.1), so the heap read takes no more.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "db/database.h"
#include "test_util.h"

namespace ariesim {
namespace {

using testing::DefaultOptions;
using testing::TempDir;

class ReadOnlyCommitTest : public ::testing::Test {
 protected:
  void OpenDb(const Options& o) {
    dir_ = std::make_unique<TempDir>("read_only");
    db_ = std::move(Database::Open(dir_->path(), o)).value();
    table_ = db_->CreateTable("t", 2).value();
    ASSERT_TRUE(db_->CreateIndex("t", "pk", 0, true).ok());
    Transaction* txn = db_->Begin();
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(table_->Insert(txn, {"k" + std::to_string(i), "v"}));
    }
    ASSERT_OK(db_->Commit(txn));
  }

  /// A transaction that has read `key` (and so holds its record S lock).
  Transaction* BeginReader(const std::string& key, Rid* rid) {
    Transaction* txn = db_->Begin();
    std::optional<Row> row;
    EXPECT_OK(table_->FetchByKey(txn, "pk", key, &row, rid));
    EXPECT_TRUE(row.has_value()) << key;
    return txn;
  }

  bool HoldsRecord(Transaction* txn, Rid rid) {
    return db_->locks()->Holds(
        txn->id(), LockName::Record(table_->meta().id, rid), LockMode::kS);
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(ReadOnlyCommitTest, CommitAndRollbackLogNothing) {
  OpenDb(DefaultOptions());
  // An open updater leaves an unflushed tail: a read-only commit that forced
  // the log would advance flushed_lsn past it.
  Transaction* writer = db_->Begin();
  ASSERT_OK(table_->Insert(writer, {"w", "v"}));
  const Lsn next = db_->wal()->next_lsn();
  const Lsn flushed = db_->wal()->flushed_lsn();
  ASSERT_LT(flushed, next);

  Rid rid;
  Transaction* committer = BeginReader("k1", &rid);
  ASSERT_TRUE(HoldsRecord(committer, rid));
  ASSERT_OK(db_->Commit(committer));
  EXPECT_EQ(committer->state(), TxnState::kCommitted);
  EXPECT_FALSE(HoldsRecord(committer, rid));

  Transaction* aborter = BeginReader("k2", &rid);
  ASSERT_OK(db_->Rollback(aborter));
  EXPECT_EQ(aborter->state(), TxnState::kAborted);
  EXPECT_FALSE(HoldsRecord(aborter, rid));

  Transaction* lazy = BeginReader("k3", &rid);
  ASSERT_OK(db_->CommitAsync(lazy));
  EXPECT_FALSE(HoldsRecord(lazy, rid));

  EXPECT_EQ(db_->wal()->next_lsn(), next) << "a read-only outcome was logged";
  EXPECT_EQ(db_->wal()->flushed_lsn(), flushed) << "a read-only commit forced";
  EXPECT_EQ(db_->txns()->Find(committer->id()), nullptr);
  EXPECT_EQ(db_->txns()->Find(aborter->id()), nullptr);
  ASSERT_OK(db_->Commit(writer));
}

// kReadOnly promises "reads served": with the log device failing, a reader
// still commits (it needs no log force) and releases its locks, while an
// updater's commit keeps failing.
TEST_F(ReadOnlyCommitTest, ReadsServedWhileLogFlushFails) {
  Options o = DefaultOptions();
  o.log_flush_failure_threshold = 2;
  OpenDb(o);
  FaultSpec spec;
  spec.kind = FaultKind::kPersistentError;
  spec.site = FaultSite::kLogFlush;
  db_->fault_injector()->Arm(spec);
  Transaction* updater = nullptr;
  for (int i = 0; i < 8 && db_->Health() == EngineHealth::kHealthy; ++i) {
    updater = db_->Begin();
    ASSERT_OK(table_->Insert(updater, {"x" + std::to_string(i), "v"}));
    EXPECT_FALSE(db_->Commit(updater).ok());
  }
  ASSERT_EQ(db_->Health(), EngineHealth::kReadOnly) << db_->HealthReason();

  Rid rid;
  Transaction* reader = BeginReader("k4", &rid);
  ASSERT_TRUE(HoldsRecord(reader, rid));
  EXPECT_OK(db_->Commit(reader));
  EXPECT_FALSE(HoldsRecord(reader, rid));

  EXPECT_FALSE(db_->Commit(updater).ok());
  db_->fault_injector()->Disarm();
}

// Reads-from: a synchronous read-only commit that read a lazily committed
// row returns only once that row's commit record is durable — whether the
// flusher thread or the committer itself does the flush.
class ReadsFromGuardTest : public ReadOnlyCommitTest,
                           public ::testing::WithParamInterface<bool> {};

TEST_P(ReadsFromGuardTest, ReaderHardensLazyCommitItRead) {
  Options o = DefaultOptions();
  o.fsync_log = GetParam();  // the flusher thread runs iff flushes fsync
  OpenDb(o);
  ASSERT_EQ(db_->wal()->flusher_running(), GetParam());

  Transaction* t1 = db_->Begin();
  ASSERT_OK(table_->Insert(t1, {"lazy", "v1"}));
  ASSERT_OK(db_->CommitAsync(t1));
  // T1's end record immediately follows its commit record.
  const Lsn commit_end = t1->last_lsn();
  if (!GetParam()) {
    ASSERT_LT(db_->wal()->flushed_lsn(), commit_end)
        << "without a flusher nothing hardens a lazy commit by itself";
  }

  Rid rid;
  Transaction* t2 = BeginReader("lazy", &rid);
  ASSERT_OK(db_->Commit(t2));
  EXPECT_GE(db_->wal()->flushed_lsn(), commit_end)
      << "a reader of a lazy commit was acknowledged before it was durable";
}

INSTANTIATE_TEST_SUITE_P(Flusher, ReadsFromGuardTest, ::testing::Bool());

// Lock requests of a full TableScan: under data-only locking Fetch Next's
// key lock is the record lock, so the scan makes one record-lock request
// per row and no table intent request; under index-specific locking the
// heap read still takes its record S lock.
TEST_F(ReadOnlyCommitTest, ScanLockRequestsPerRow) {
  OpenDb(DefaultOptions());
  ASSERT_TRUE(db_->CreateIndexWithProtocol("t", "ix_is", 0, false,
                                           LockingProtocolKind::kIndexSpecific)
                  .ok());
  const int kRows = 10;  // rows inserted by OpenDb

  struct Counts {
    int record_s = 0;
    int record_other = 0;
    int table = 0;
  };
  auto scan_counts = [&](const std::string& index) {
    Transaction* txn = db_->Begin();
    Counts c;
    db_->locks()->SetObserver([&](const LockEvent& e) {
      if (e.txn != txn->id()) return;
      if (e.name.space == LockSpace::kTable) ++c.table;
      if (e.name.space != LockSpace::kRecord) return;
      ++(e.mode == LockMode::kS ? c.record_s : c.record_other);
    });
    TableScan scan(table_, db_->GetIndex(index));
    EXPECT_OK(scan.Open(txn, "", FetchCond::kGe));
    int rows = 0;
    for (bool done = false;;) {
      Row row;
      EXPECT_OK(scan.Next(txn, &row, nullptr, &done));
      if (done) break;
      ++rows;
    }
    db_->locks()->SetObserver(nullptr);
    EXPECT_EQ(rows, kRows) << index;
    EXPECT_OK(db_->Commit(txn));
    return c;
  };

  Counts data_only = scan_counts("pk");
  EXPECT_EQ(data_only.record_s, kRows);
  EXPECT_EQ(data_only.record_other, 0);
  EXPECT_EQ(data_only.table, 0);

  Counts index_specific = scan_counts("ix_is");
  EXPECT_EQ(index_specific.record_s, kRows);
  EXPECT_EQ(index_specific.record_other, 0);
  EXPECT_EQ(index_specific.table, kRows);
}

}  // namespace
}  // namespace ariesim
