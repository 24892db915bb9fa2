// Every walker of wal.log must end the log at the same LSN: restart
// (LogManager::Open's next_lsn), fsck's "durable end-of-log" and the end of
// the last record wal_dump prints. One row per shape a log tail can take
// on disk; each row also pins fsck's clean-or-finding verdict.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "db/database.h"
#include "test_util.h"
#include "tools/tool_runner.h"
#include "util/fault_injector.h"

namespace ariesim {
namespace {

using testing::DefaultOptions;
using testing::RunFsck;
using testing::RunWalDump;
using testing::TempDir;

// The on-disk log a durable (fsync_log) database left behind, and where its
// last durable record starts and the durable log ends.
struct Image {
  std::string log;
  Lsn last = kNullLsn;
  Lsn durable = kNullLsn;
};

// Commits 20 rows with fsync_log on, then either closes cleanly or crashes.
// `before_crash` runs on the open database just before the crash.
Image MakeImage(const std::string& dir, bool clean_close,
                const std::function<void(Database*, Table*)>& before_crash =
                    nullptr) {
  Options o = DefaultOptions();
  o.fsync_log = true;
  Image img;
  img.log = dir + "/wal.log";
  auto db = std::move(Database::Open(dir, o).value());
  Table* table = db->CreateTable("t", 2).value();
  for (int i = 0; i < 20; ++i) {
    Transaction* txn = db->Begin();
    EXPECT_TRUE(table->Insert(txn, {"k" + std::to_string(i), "v"}).ok());
    EXPECT_TRUE(db->Commit(txn).ok());
  }
  EXPECT_TRUE(db->wal()->FlushAll().ok());
  img.last = db->wal()->last_lsn();
  img.durable = db->wal()->flushed_lsn();
  if (clean_close) return img;  // ~Database closes and trims the slack
  if (before_crash) before_crash(db.get(), table);
  db->SimulateCrash();
  return img;
}

void WriteAt(const std::string& path, uint64_t off, const std::string& bytes) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(off));
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadAt(const std::string& path, uint64_t off, size_t n) {
  std::ifstream f(path, std::ios::binary);
  f.seekg(static_cast<std::streamoff>(off));
  std::string out(n, '\0');
  f.read(out.data(), static_cast<std::streamsize>(n));
  return out;
}

// The unsigned number that follows `key` in `text` (at or after `from`).
uint64_t NumberAfter(const std::string& text, const std::string& key,
                     size_t from = 0) {
  const size_t at = text.find(key, from);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no '" << key << "' in:\n" << text;
    return 0;
  }
  return std::stoull(text.substr(at + key.size()));
}

// Where each walker ends the log in `dir`; fsck's exit code in *fsck_exit.
struct Ends {
  Lsn open = 0;
  Lsn fsck = 0;
  Lsn dump = 0;
};

Ends WalkersEnds(const std::string& dir, int* fsck_exit) {
  Ends e;
  std::string fsck_out;
  *fsck_exit = RunFsck(dir, &fsck_out);
  e.fsck = NumberAfter(fsck_out, "durable end-of-log ");

  std::string dump_out;
  EXPECT_EQ(RunWalDump(dir, &dump_out), 0) << dump_out;
  const size_t last = dump_out.rfind("[lsn=");
  if (last == std::string::npos) {
    ADD_FAILURE() << "wal_dump printed no record:\n" << dump_out;
  } else {
    e.dump = NumberAfter(dump_out, "[lsn=", last) + kLogHeaderSize +
             NumberAfter(dump_out, " len=", last);
  }
  EXPECT_EQ(NumberAfter(dump_out, "end of log at LSN "), e.dump) << dump_out;

  // Last: Open trims the tail the other two only read.
  Metrics m;
  LogManager lm(dir + "/wal.log", &m, /*fsync_on_flush=*/false);
  EXPECT_TRUE(lm.Open().ok());
  e.open = lm.next_lsn();
  return e;
}

struct Row {
  const char* name;
  bool clean_close;
  bool fsck_clean;
  // Shapes the tail of `img` on disk; returns the expected end of the log.
  std::function<Lsn(const Image& img)> shape;
  std::function<void(Database*, Table*)> before_crash = nullptr;
};

TEST(LogEndAgreementTest, EveryWalkerEndsTheLogAtTheSameLsn) {
  const Row rows[] = {
      {"clean close", /*clean_close=*/true, /*fsck_clean=*/true,
       [](const Image& img) {
         return static_cast<Lsn>(std::filesystem::file_size(img.log));
       }},
      {"crash with zero slack", false, true,
       [](const Image& img) {
         EXPECT_GT(std::filesystem::file_size(img.log), img.durable);
         return img.durable;
       }},
      {"record torn mid-body at EOF", false, false,
       [](const Image& img) {
         std::filesystem::resize_file(img.log, img.durable - 5);
         return img.last;
       }},
      {"record torn inside the slack", false, false,
       [](const Image& img) { return img.durable; },
       [](Database* db, Table* table) {
         // The next flush writes 10 bytes of its first record into the
         // zeros, then fails: the commit is not acknowledged.
         FaultSpec spec;
         spec.kind = FaultKind::kPartialFlush;
         spec.site = FaultSite::kLogFlush;
         spec.keep_bytes = 10;
         db->fault_injector()->Arm(spec);
         Transaction* txn = db->Begin();
         EXPECT_TRUE(table->Insert(txn, {"torn", "v"}).ok());
         EXPECT_FALSE(db->Commit(txn).ok());
       }},
      {"20-byte header stub", false, false,
       [](const Image& img) {
         const std::string stub = ReadAt(img.log, img.last, 20);
         std::filesystem::resize_file(img.log, img.durable);
         WriteAt(img.log, img.durable, stub);
         return img.durable;
       }},
      {"non-zero bytes after a zero header", false, false,
       [](const Image& img) {
         WriteAt(img.log, img.durable + kLogHeaderSize + 100, "garbage");
         return img.durable;
       }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    TempDir dir("log_end");
    const Image img = MakeImage(dir.path(), row.clean_close, row.before_crash);
    const Lsn want = row.shape(img);
    int fsck_exit = -1;
    const Ends e = WalkersEnds(dir.path(), &fsck_exit);
    EXPECT_EQ(e.open, want);
    EXPECT_EQ(e.fsck, want);
    EXPECT_EQ(e.dump, want);
    EXPECT_EQ(fsck_exit, row.fsck_clean ? 0 : 1);
  }
}

}  // namespace
}  // namespace ariesim
