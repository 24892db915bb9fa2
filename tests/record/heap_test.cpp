// Heap file / record manager tests: CRUD, RID stability, tombstone + reuse
// discipline (slot reclaim gated by the RID lock), chain growth, undo.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "record/heap_page.h"
#include "test_util.h"

namespace ariesim {
namespace {

using testing::SmallPageOptions;
using testing::TempDir;

class HeapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("heap");
    db_ = std::move(Database::Open(dir_->path(), SmallPageOptions())).value();
    table_ = db_->CreateTable("t", 1).value();
  }
  HeapFile* heap() { return table_->heap(); }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Database> db_;
  Table* table_;
};

TEST_F(HeapTest, InsertFetchRoundTrip) {
  Transaction* txn = db_->Begin();
  auto rid = heap()->Insert(txn, "hello-record");
  ASSERT_TRUE(rid.ok());
  auto data = heap()->Fetch(rid.value());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "hello-record");
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(HeapTest, DeleteHidesRecord) {
  Transaction* txn = db_->Begin();
  Rid rid = heap()->Insert(txn, "gone").value();
  ASSERT_OK(db_->Commit(txn));
  Transaction* txn2 = db_->Begin();
  ASSERT_OK(heap()->Delete(txn2, rid));
  EXPECT_TRUE(heap()->Fetch(rid).status().IsNotFound());
  ASSERT_OK(db_->Commit(txn2));
  EXPECT_TRUE(heap()->Fetch(rid).status().IsNotFound());
}

TEST_F(HeapTest, UpdateInPlace) {
  Transaction* txn = db_->Begin();
  Rid rid = heap()->Insert(txn, "v1").value();
  ASSERT_OK(heap()->Update(txn, rid, "v2-longer"));
  EXPECT_EQ(heap()->Fetch(rid).value(), "v2-longer");
  ASSERT_OK(db_->Commit(txn));
  EXPECT_EQ(heap()->Fetch(rid).value(), "v2-longer");
}

TEST_F(HeapTest, ChainGrowsAcrossPages) {
  Transaction* txn = db_->Begin();
  std::vector<Rid> rids;
  std::string payload(100, 'r');
  for (int i = 0; i < 50; ++i) {
    auto rid = heap()->Insert(txn, payload + std::to_string(i));
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    rids.push_back(rid.value());
  }
  ASSERT_OK(db_->Commit(txn));
  std::set<PageId> pages;
  for (Rid r : rids) pages.insert(r.page_id);
  EXPECT_GT(pages.size(), 1u) << "expected chain extension";
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(heap()->Fetch(rids[i]).value(), payload + std::to_string(i));
  }
}

TEST_F(HeapTest, RollbackRestoresDeletedAndRemovesInserted) {
  Transaction* setup = db_->Begin();
  Rid keep = heap()->Insert(setup, "keep").value();
  ASSERT_OK(db_->Commit(setup));

  Transaction* txn = db_->Begin();
  Rid temp = heap()->Insert(txn, "temp").value();
  ASSERT_OK(heap()->Delete(txn, keep));
  ASSERT_OK(db_->Rollback(txn));

  EXPECT_EQ(heap()->Fetch(keep).value(), "keep");
  EXPECT_TRUE(heap()->Fetch(temp).status().IsNotFound());
}

TEST_F(HeapTest, TombstonedSlotNotReusedWhileDeleteUncommitted) {
  Transaction* setup = db_->Begin();
  Rid victim = heap()->Insert(setup, std::string(80, 'v')).value();
  ASSERT_OK(db_->Commit(setup));

  Transaction* deleter = db_->Begin();
  ASSERT_OK(db_->GetTable("t") != nullptr ? Status::OK() : Status::NotFound(""));
  // Lock + delete through the record-manager path so the X lock is held.
  Transaction* d = deleter;
  ASSERT_OK(db_->ctx()->locks->Lock(d->id(), LockName::Record(table_->meta().id, victim),
                                    LockMode::kX, LockDuration::kCommit, false));
  ASSERT_OK(heap()->Delete(d, victim));

  // A concurrent inserter must NOT reclaim the tombstoned slot (conditional
  // RID lock is denied), but the insert itself succeeds elsewhere.
  Transaction* inserter = db_->Begin();
  Rid fresh = heap()->Insert(inserter, std::string(80, 'i')).value();
  EXPECT_NE(fresh, victim);
  ASSERT_OK(db_->Commit(inserter));
  ASSERT_OK(db_->Rollback(deleter));
  // The rolled-back delete revives the victim record intact.
  EXPECT_EQ(heap()->Fetch(victim).value(), std::string(80, 'v'));
}

TEST_F(HeapTest, CommittedTombstoneSlotReused) {
  Transaction* setup = db_->Begin();
  Rid victim = heap()->Insert(setup, std::string(80, 'v')).value();
  ASSERT_OK(db_->Commit(setup));

  Transaction* deleter = db_->Begin();
  ASSERT_OK(db_->ctx()->locks->Lock(deleter->id(),
                                    LockName::Record(table_->meta().id, victim),
                                    LockMode::kX, LockDuration::kCommit, false));
  ASSERT_OK(heap()->Delete(deleter, victim));
  ASSERT_OK(db_->Commit(deleter));

  Transaction* inserter = db_->Begin();
  Rid reused = heap()->Insert(inserter, std::string(80, 'n')).value();
  EXPECT_EQ(reused, victim) << "committed tombstone should be reclaimed";
  ASSERT_OK(db_->Commit(inserter));
  EXPECT_EQ(heap()->Fetch(reused).value(), std::string(80, 'n'));
}

TEST_F(HeapTest, ScanAllSeesOnlyLiveRecords) {
  Transaction* txn = db_->Begin();
  Rid a = heap()->Insert(txn, "a").value();
  Rid b = heap()->Insert(txn, "b").value();
  Rid c = heap()->Insert(txn, "c").value();
  (void)a;
  (void)c;
  ASSERT_OK(heap()->Delete(txn, b));
  ASSERT_OK(db_->Commit(txn));
  std::vector<std::pair<Rid, std::string>> rows;
  ASSERT_OK(heap()->ScanAll(&rows));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].second, "a");
  EXPECT_EQ(rows[1].second, "c");
}

TEST_F(HeapTest, OversizeRecordRejected) {
  Transaction* txn = db_->Begin();
  std::string huge(db_->options().page_size, 'x');
  EXPECT_EQ(heap()->Insert(txn, huge).status().code(), Code::kInvalidArgument);
  ASSERT_OK(db_->Commit(txn));
}

TEST_F(HeapTest, HeapSurvivesCrashRecovery) {
  Rid rid;
  {
    Transaction* txn = db_->Begin();
    rid = heap()->Insert(txn, "durable").value();
    ASSERT_OK(db_->Commit(txn));
    db_->SimulateCrash();
  }
  db_ = std::move(Database::Open(dir_->path(), SmallPageOptions())).value();
  table_ = db_->GetTable("t");
  ASSERT_NE(table_, nullptr);
  EXPECT_EQ(heap()->Fetch(rid).value(), "durable");
}

// A chain extension is a nested top action (allocate, format, link). Its
// dummy CLR must precede, in the log, every record another transaction
// writes on the new page: a crash after such a record's commit but before
// the dummy CLR would make restart undo the extension and unformat the page
// under the committed record. 64 threads on a few cores get preempted
// between an extension's link and its dummy CLR often enough to show any
// such window in one run.
TEST(HeapChainTest, ExtensionClosesBeforeOtherTransactionsUseTheNewPage) {
  TempDir dir("heap_chain_nta");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* table = db->CreateTable("t", 1).value();
  std::vector<std::thread> threads;
  for (int t = 0; t < 64; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        Transaction* txn = db->Begin();
        std::string row = std::string(150, 'r') + std::to_string(t * 100 + i);
        ASSERT_TRUE(table->heap()->Insert(txn, row).ok());
        ASSERT_OK(db->Commit(txn));
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_OK(db->wal()->FlushAll());

  std::map<PageId, TxnId> open_extensions;  // formatted page -> formatter
  int extensions = 0;
  LogManager::Reader reader(db->wal(), kLogFilePrologue);
  LogRecord rec;
  while (reader.Next(&rec).ok()) {
    // A dummy CLR closes the extension; a commit closes CreateTable's
    // first-page format, which no NTA wraps.
    if (rec.type == LogType::kCommit ||
        (rec.type == LogType::kCompensation && rec.rm == RmId::kNone)) {
      std::erase_if(open_extensions,
                    [&](const auto& e) { return e.second == rec.txn_id; });
      continue;
    }
    if (rec.rm != RmId::kHeap) continue;
    auto it = open_extensions.find(rec.page_id);
    if (it != open_extensions.end()) {
      EXPECT_EQ(rec.txn_id, it->second)
          << "txn " << rec.txn_id << " wrote page " << rec.page_id
          << " at lsn " << rec.lsn << " before txn " << it->second
          << " closed the extension that formatted it";
    }
    if (rec.type == LogType::kUpdate && rec.op == heap::kOpFormat) {
      open_extensions[rec.page_id] = rec.txn_id;
      ++extensions;
    }
  }
  EXPECT_GT(extensions, 50);
}

}  // namespace
}  // namespace ariesim
