// Fuzzy checkpoint tests: checkpoints during active transactions, the
// master record, automatic checkpointing by log growth, and checkpoints
// interleaved with SMOs.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "db/database.h"
#include "test_util.h"
#include "util/random.h"

namespace ariesim {
namespace {

using testing::SmallPageOptions;
using testing::TempDir;

TEST(CheckpointTest, FuzzyCheckpointWithInFlightTxn) {
  TempDir dir("ckpt_fuzzy");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* t = db->CreateTable("t", 2).value();
  ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());

  Transaction* in_flight = db->Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(t->Insert(in_flight, {"f" + std::to_string(i), "v"}));
  }
  // A checkpoint while the transaction is open: the TT snapshot carries it.
  ASSERT_OK(db->Checkpoint());
  for (int i = 10; i < 20; ++i) {
    ASSERT_OK(t->Insert(in_flight, {"f" + std::to_string(i), "v"}));
  }
  ASSERT_OK(db->wal()->FlushAll());
  ASSERT_OK(db->FlushAllPages());
  db->SimulateCrash();

  auto db2 = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  // The in-flight transaction — including records *before* the checkpoint —
  // must be fully undone.
  size_t keys = 1;
  ASSERT_OK(db2->GetIndex("pk")->Validate(&keys));
  EXPECT_EQ(keys, 0u) << "records before the fuzzy checkpoint escaped undo";
}

// A read-only transaction open across a fuzzy checkpoint has no log
// record; the snapshot leaves it out, so restart neither adopts it as a
// loser nor writes an end record for it.
TEST(CheckpointTest, ReadOnlyTxnNotInSnapshot) {
  TempDir dir("ckpt_read_only");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* t = db->CreateTable("t", 2).value();
  ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());
  Transaction* setup = db->Begin();
  ASSERT_OK(t->Insert(setup, {"k", "v"}));
  ASSERT_OK(db->Commit(setup));

  Transaction* reader = db->Begin();
  std::optional<Row> row;
  ASSERT_OK(t->FetchByKey(reader, "pk", "k", &row));
  ASSERT_TRUE(row.has_value());
  ASSERT_OK(db->Checkpoint());
  ASSERT_OK(db->wal()->FlushAll());
  const Lsn crash_end = db->wal()->next_lsn();
  const TxnId reader_id = reader->id();
  db->SimulateCrash();

  auto db2 = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  EXPECT_EQ(db2->restart_stats().loser_txns, 0u);
  LogManager::Reader log(db2->wal(), crash_end);
  LogRecord rec;
  while (log.Next(&rec).ok()) {
    EXPECT_NE(rec.txn_id, reader_id)
        << "restart logged type " << static_cast<int>(rec.type)
        << " for the read-only transaction";
  }
}

TEST(CheckpointTest, AutoCheckpointByLogGrowth) {
  TempDir dir("ckpt_auto");
  Options o = SmallPageOptions();
  o.checkpoint_interval_bytes = 32 * 1024;
  auto db = std::move(Database::Open(dir.path(), o)).value();
  Table* t = db->CreateTable("t", 2).value();
  ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());
  Lsn master_before = db->wal()->ReadMaster().value();
  for (int i = 0; i < 500; ++i) {
    Transaction* txn = db->Begin();
    ASSERT_OK(t->Insert(txn, {"k" + std::to_string(i), "v"}));
    ASSERT_OK(db->Commit(txn));
  }
  Lsn master_after = db->wal()->ReadMaster().value();
  EXPECT_GT(master_after, master_before)
      << "auto-checkpointing should have advanced the master record";
  // And the bound holds: a crash now needs only a short analysis scan.
  db->SimulateCrash();
  auto db2 = std::move(Database::Open(dir.path(), o)).value();
  EXPECT_LT(db2->restart_stats().analysis_records, 200u);
  size_t keys = 0;
  ASSERT_OK(db2->GetIndex("pk")->Validate(&keys));
  EXPECT_EQ(keys, 500u);
}

TEST(CheckpointTest, CheckpointDuringConcurrentWriters) {
  TempDir dir("ckpt_conc");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* t = db->CreateTable("t", 2).value();
  ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random rnd(4);
    int i = 0;
    while (!stop.load()) {
      Transaction* txn = db->Begin();
      (void)t->Insert(txn, {"w" + std::to_string(i++), "v"});
      (void)db->Commit(txn);
    }
  });
  for (int c = 0; c < 20; ++c) {
    ASSERT_OK(db->Checkpoint());
  }
  stop = true;
  writer.join();
  db->SimulateCrash();
  auto db2 = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  ASSERT_OK(db2->GetIndex("pk")->Validate(nullptr));
}

// Concurrent Checkpoint() calls must not interleave their begin/end
// records: analysis pairs the master's begin-checkpoint with the first
// end-checkpoint after it, and an older snapshot there carries stale
// LastLSNs that make restart undo skip a loser's records.
TEST(CheckpointTest, ConcurrentCheckpointsDoNotInterleave) {
  TempDir dir("ckpt_serial");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) ASSERT_OK(db->Checkpoint());
    });
  }
  for (auto& th : threads) th.join();
  LogManager::Reader reader(db->wal(), kLogFilePrologue);
  LogRecord rec;
  Lsn open_begin = kNullLsn;
  int pairs = 0;
  while (reader.Next(&rec).ok()) {
    if (rec.type == LogType::kBeginCheckpoint) {
      EXPECT_EQ(open_begin, kNullLsn)
          << "begin-checkpoint at " << rec.lsn
          << " inside the checkpoint begun at " << open_begin;
      open_begin = rec.lsn;
    } else if (rec.type == LogType::kEndCheckpoint) {
      EXPECT_NE(open_begin, kNullLsn) << "unpaired end-checkpoint at " << rec.lsn;
      open_begin = kNullLsn;
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 200);
}

TEST(CheckpointTest, MasterRecordSurvivesAcrossReopen) {
  TempDir dir("ckpt_master");
  Lsn master;
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    db->CreateTable("t", 1).value();
    ASSERT_OK(db->Checkpoint());
    master = db->wal()->ReadMaster().value();
  }
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    // Recovery takes its own checkpoint at the end, so the master can only
    // move forward.
    EXPECT_GE(db->wal()->ReadMaster().value(), master);
  }
}

}  // namespace
}  // namespace ariesim
