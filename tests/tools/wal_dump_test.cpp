// wal_dump is read-only: dumping a crash image, whose wal.log runs past its
// last record into preallocated zeros or a torn tail, must leave the file
// byte-identical, so the image still replays as it crashed.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "db/database.h"
#include "test_util.h"
#include "tools/tool_runner.h"
#include "util/fault_injector.h"

namespace ariesim {
namespace {

using testing::DefaultOptions;
using testing::RunWalDump;
using testing::TempDir;

std::string LogBytes(const std::string& dir) {
  std::ifstream f(dir + "/wal.log", std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

// Opens a durable database in `dir`, commits 20 rows, optionally tears the
// next flush 10 bytes into its first record, and crashes. Returns the
// durable end of the log.
Lsn CrashWithTail(const std::string& dir, bool torn) {
  Options o = DefaultOptions();
  o.fsync_log = true;
  auto db = std::move(Database::Open(dir, o).value());
  Table* table = db->CreateTable("t", 2).value();
  for (int i = 0; i < 20; ++i) {
    Transaction* txn = db->Begin();
    EXPECT_TRUE(table->Insert(txn, {"k" + std::to_string(i), "v"}).ok());
    EXPECT_TRUE(db->Commit(txn).ok());
  }
  const Lsn durable = db->wal()->flushed_lsn();
  if (torn) {
    FaultSpec spec;
    spec.kind = FaultKind::kPartialFlush;
    spec.site = FaultSite::kLogFlush;
    spec.keep_bytes = 10;
    db->fault_injector()->Arm(spec);
    Transaction* txn = db->Begin();
    EXPECT_TRUE(table->Insert(txn, {"torn", "v"}).ok());
    EXPECT_FALSE(db->Commit(txn).ok());
  }
  db->SimulateCrash();
  return durable;
}

void ExpectDumpLeavesLogUnchanged(const std::string& dir, Lsn durable) {
  const std::string before = LogBytes(dir);
  ASSERT_GT(before.size(), durable) << "the crash must leave a tail";
  std::string out;
  EXPECT_EQ(RunWalDump(dir, &out), 0) << out;
  EXPECT_NE(out.find("end of log at LSN " + std::to_string(durable) + "; " +
                     std::to_string(before.size() - durable) +
                     " bytes past it left in place"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("type=commit"), std::string::npos) << out;
  EXPECT_TRUE(LogBytes(dir) == before) << "wal_dump modified wal.log";
}

TEST(WalDumpTest, CrashedZeroTailIsUnchanged) {
  TempDir dir("wal_dump_crashed");
  const Lsn durable = CrashWithTail(dir.path(), /*torn=*/false);
  ExpectDumpLeavesLogUnchanged(dir.path(), durable);
}

TEST(WalDumpTest, TornTailIsUnchanged) {
  TempDir dir("wal_dump_torn");
  const Lsn durable = CrashWithTail(dir.path(), /*torn=*/true);
  ExpectDumpLeavesLogUnchanged(dir.path(), durable);
}

}  // namespace
}  // namespace ariesim
