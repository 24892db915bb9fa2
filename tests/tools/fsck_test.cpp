// The offline verifier over the three shapes a durable (fsync_log) wal.log
// can have on disk: a crash image whose tail is preallocated zeros (clean),
// a crash image with a record torn inside those zeros (a finding), and a
// cleanly closed log that is exactly its records (clean).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "db/database.h"
#include "test_util.h"
#include "tools/tool_runner.h"
#include "util/fault_injector.h"

namespace ariesim {
namespace {

using testing::DefaultOptions;
using testing::RunFsck;
using testing::TempDir;

Options DurableOptions() {
  Options o = DefaultOptions();
  o.fsync_log = true;
  return o;
}

void CommitRows(Database* db, Table* table, int n) {
  for (int i = 0; i < n; ++i) {
    Transaction* txn = db->Begin();
    ASSERT_OK(table->Insert(txn, {"k" + std::to_string(i), "v"}));
    ASSERT_OK(db->Commit(txn));
  }
}

uint64_t LogFileBytes(const std::string& dir) {
  return std::filesystem::file_size(dir + "/wal.log");
}

TEST(FsckTest, CrashedZeroTailIsClean) {
  TempDir dir("fsck_crashed");
  Lsn durable = 0;
  {
    auto db = std::move(Database::Open(dir.path(), DurableOptions()).value());
    Table* table = db->CreateTable("t", 2).value();
    CommitRows(db.get(), table, 20);
    durable = db->wal()->flushed_lsn();
    db->SimulateCrash();
  }
  ASSERT_GT(LogFileBytes(dir.path()), durable)
      << "a crash must leave the preallocated zeros in place";
  std::string out;
  EXPECT_EQ(RunFsck(dir.path(), &out), 0) << out;
  const std::string slack =
      std::to_string(LogFileBytes(dir.path()) - durable) + " bytes preallocated";
  EXPECT_NE(out.find(slack), std::string::npos) << out;
  EXPECT_NE(out.find("durable end-of-log " + std::to_string(durable)),
            std::string::npos)
      << out;
}

TEST(FsckTest, RecordTornInSlackIsFinding) {
  TempDir dir("fsck_torn");
  Lsn durable = 0;
  {
    auto db = std::move(Database::Open(dir.path(), DurableOptions()).value());
    Table* table = db->CreateTable("t", 2).value();
    CommitRows(db.get(), table, 20);
    durable = db->wal()->flushed_lsn();
    // The next flush writes 10 bytes of its first record into the zeros,
    // then fails: the commit is not acknowledged.
    FaultSpec spec;
    spec.kind = FaultKind::kPartialFlush;
    spec.site = FaultSite::kLogFlush;
    spec.keep_bytes = 10;
    db->fault_injector()->Arm(spec);
    Transaction* txn = db->Begin();
    ASSERT_OK(table->Insert(txn, {"torn", "v"}));
    EXPECT_FALSE(db->Commit(txn).ok());
    ASSERT_TRUE(db->fault_injector()->tripped());
    db->SimulateCrash();
  }
  ASSERT_GT(LogFileBytes(dir.path()), durable + 10);
  std::string out;
  EXPECT_EQ(RunFsck(dir.path(), &out), 1) << out;
  EXPECT_NE(out.find("torn log tail: first bad LSN " + std::to_string(durable)),
            std::string::npos)
      << out;
}

TEST(FsckTest, CleanCloseIsClean) {
  TempDir dir("fsck_clean");
  {
    auto db = std::move(Database::Open(dir.path(), DurableOptions()).value());
    Table* table = db->CreateTable("t", 2).value();
    CommitRows(db.get(), table, 20);
  }
  std::string out;
  EXPECT_EQ(RunFsck(dir.path(), &out), 0) << out;
  EXPECT_NE(out.find(" 0 bytes preallocated"), std::string::npos) << out;
  EXPECT_NE(out.find("durable end-of-log " +
                     std::to_string(LogFileBytes(dir.path()))),
            std::string::npos)
      << "a cleanly closed log is exactly its records:\n"
      << out;
}

}  // namespace
}  // namespace ariesim
