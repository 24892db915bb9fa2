#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "test_util.h"
#include "util/fault_injector.h"

namespace ariesim {
namespace {

using testing::TempDir;

LogRecord Update(TxnId txn, std::string payload) {
  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.rm = RmId::kHeap;
  rec.op = 1;
  rec.txn_id = txn;
  rec.page_id = 9;
  rec.payload = std::move(payload);
  return rec;
}

TEST(LogManagerTest, AppendAssignsMonotonicOffsets) {
  TempDir dir("wal_append");
  Metrics m;
  LogManager lm(dir.path() + "/wal", &m, /*fsync=*/false);
  ASSERT_OK(lm.Open());
  LogRecord a = Update(1, "aaa");
  LogRecord b = Update(1, "bbbb");
  Lsn la = lm.Append(&a).value();
  Lsn lb = lm.Append(&b).value();
  EXPECT_EQ(la, kLogFilePrologue);
  EXPECT_EQ(lb, la + a.SerializedSize());
  EXPECT_EQ(lm.last_lsn(), lb);
}

TEST(LogManagerTest, ReadFromTailBufferAndFile) {
  TempDir dir("wal_read");
  Metrics m;
  LogManager lm(dir.path() + "/wal", &m, false);
  ASSERT_OK(lm.Open());
  LogRecord a = Update(1, "first");
  Lsn la = lm.Append(&a).value();
  // Unflushed: served from the tail buffer.
  LogRecord out;
  ASSERT_OK(lm.ReadRecord(la, &out));
  EXPECT_EQ(out.payload, "first");
  ASSERT_OK(lm.FlushAll());
  // Flushed: served from the file.
  ASSERT_OK(lm.ReadRecord(la, &out));
  EXPECT_EQ(out.payload, "first");
}

TEST(LogManagerTest, FlushToMakesDurablePrefix) {
  TempDir dir("wal_flushto");
  Metrics m;
  std::string path = dir.path() + "/wal";
  Lsn la, lb;
  {
    LogManager lm(path, &m, false);
    ASSERT_OK(lm.Open());
    LogRecord a = Update(1, "durable");
    LogRecord b = Update(1, "volatile");
    la = lm.Append(&a).value();
    ASSERT_OK(lm.FlushTo(la + a.SerializedSize()));
    lb = lm.Append(&b).value();
    lm.DiscardUnflushed();  // crash: b is lost
    EXPECT_EQ(lm.next_lsn(), lb);
  }
  {
    LogManager lm(path, &m, false);
    ASSERT_OK(lm.Open());
    LogRecord out;
    ASSERT_OK(lm.ReadRecord(la, &out));
    EXPECT_EQ(out.payload, "durable");
    EXPECT_TRUE(lm.ReadRecord(lb, &out).IsNotFound());
    EXPECT_EQ(lm.next_lsn(), lb);  // append cursor after the durable prefix
  }
}

TEST(LogManagerTest, CommitFlushOfDiscardedRecordFails) {
  // With no flusher the committer flushes inline; a record the crash
  // discarded leaves nothing to flush, and the commit must not be
  // acknowledged.
  TempDir dir("wal_commit_discarded");
  Metrics m;
  LogManager lm(dir.path() + "/wal", &m, false);
  ASSERT_OK(lm.Open());
  ASSERT_FALSE(lm.flusher_running());
  LogRecord a = Update(1, "lost");
  Lsn la = lm.Append(&a).value();
  lm.DiscardUnflushed();
  Status s = lm.CommitFlush(la + a.SerializedSize());
  EXPECT_EQ(s.code(), Code::kIOError) << s.ToString();
  EXPECT_LT(lm.flushed_lsn(), la + a.SerializedSize());
}

TEST(LogManagerTest, ReaderScansAllRecords) {
  TempDir dir("wal_scan");
  Metrics m;
  LogManager lm(dir.path() + "/wal", &m, false);
  ASSERT_OK(lm.Open());
  for (int i = 0; i < 20; ++i) {
    LogRecord r = Update(static_cast<TxnId>(i + 1), "p" + std::to_string(i));
    ASSERT_TRUE(lm.Append(&r).ok());
  }
  ASSERT_OK(lm.FlushAll());
  LogManager::Reader reader(&lm, kLogFilePrologue);
  LogRecord rec;
  int n = 0;
  while (reader.Next(&rec).ok()) {
    EXPECT_EQ(rec.payload, "p" + std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, 20);
}

TEST(LogManagerTest, TornTailTruncatedOnReopen) {
  TempDir dir("wal_torn");
  Metrics m;
  std::string path = dir.path() + "/wal";
  Lsn la;
  size_t a_size;
  {
    LogManager lm(path, &m, false);
    ASSERT_OK(lm.Open());
    LogRecord a = Update(1, "good");
    la = lm.Append(&a).value();
    a_size = a.SerializedSize();
    LogRecord b = Update(1, "to-be-torn");
    ASSERT_TRUE(lm.Append(&b).ok());
    ASSERT_OK(lm.FlushAll());
  }
  // Tear the second record.
  ::truncate(path.c_str(), static_cast<off_t>(la + a_size + 7));
  {
    LogManager lm(path, &m, false);
    ASSERT_OK(lm.Open());
    EXPECT_EQ(lm.next_lsn(), la + a_size);
    LogRecord out;
    ASSERT_OK(lm.ReadRecord(la, &out));
    EXPECT_EQ(out.payload, "good");
  }
}

TEST(LogManagerTest, TruncationAtEveryTailBoundary) {
  // One durable base record plus a 5-record tail. For every record boundary
  // b[j] of the tail, truncating the file to b[j] (and to b[j] + a few
  // mid-record bytes) must reopen with exactly the j complete tail records
  // surviving and the append cursor at the last complete boundary.
  TempDir dir("wal_bounds");
  Metrics m;
  std::string path = dir.path() + "/wal";
  constexpr int kTail = 5;
  std::vector<Lsn> bounds;  // bounds[j] = end of the j-th boundary
  {
    LogManager lm(path, &m, false);
    ASSERT_OK(lm.Open());
    LogRecord base = Update(1, "base-record");
    Lsn cursor = lm.Append(&base).value() + base.SerializedSize();
    bounds.push_back(cursor);
    for (int i = 0; i < kTail; ++i) {
      LogRecord r = Update(static_cast<TxnId>(i + 2),
                           "tail-" + std::string(1 + 7 * i, 'x'));
      cursor = lm.Append(&r).value() + r.SerializedSize();
      bounds.push_back(cursor);
    }
    ASSERT_OK(lm.FlushAll());
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream full;
  full << in.rdbuf();
  const std::string image = full.str();
  ASSERT_EQ(image.size(), bounds.back());

  auto reopen_at = [&](uint64_t size, Lsn want_next, int want_records) {
    SCOPED_TRACE("truncate to " + std::to_string(size));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(size));
    out.close();
    Metrics m2;
    LogManager lm(path, &m2, false);
    ASSERT_OK(lm.Open());
    EXPECT_EQ(lm.next_lsn(), want_next)
        << "append cursor must sit at the last complete record boundary";
    EXPECT_EQ(lm.flushed_lsn(), want_next);
    LogManager::Reader reader(&lm, kLogFilePrologue);
    LogRecord rec;
    int n = 0;
    while (reader.Next(&rec).ok()) ++n;
    EXPECT_EQ(n, want_records);
  };

  for (int j = kTail; j >= 0; --j) {
    // Exactly at the boundary: 1 base + j tail records survive.
    reopen_at(bounds[static_cast<size_t>(j)], bounds[static_cast<size_t>(j)],
              1 + j);
    // A few bytes into the next record (if any): the torn record is clipped.
    if (j < kTail) {
      for (uint64_t extra : {1ull, 5ull, 11ull}) {
        uint64_t size = bounds[static_cast<size_t>(j)] + extra;
        if (size >= bounds[static_cast<size_t>(j) + 1]) continue;
        reopen_at(size, bounds[static_cast<size_t>(j)], 1 + j);
      }
    }
  }
}

TEST(LogManagerTest, MasterRecordRoundTrip) {
  TempDir dir("wal_master");
  Metrics m;
  LogManager lm(dir.path() + "/wal", &m, false);
  ASSERT_OK(lm.Open());
  EXPECT_TRUE(lm.ReadMaster().status().IsNotFound());
  ASSERT_OK(lm.WriteMaster(12345));
  EXPECT_EQ(lm.ReadMaster().value(), 12345u);
  ASSERT_OK(lm.WriteMaster(99999));
  EXPECT_EQ(lm.ReadMaster().value(), 99999u);
}

TEST(LogManagerTest, TailBufferSpillsAtCapacity) {
  TempDir dir("wal_spill");
  Metrics m;
  // Tiny capacity: every few appends must spill to the file on their own.
  LogManager lm(dir.path() + "/wal", &m, /*fsync=*/false,
                /*buffer_capacity=*/256);
  ASSERT_OK(lm.Open());
  for (int i = 0; i < 100; ++i) {
    LogRecord r = Update(1, "payload-" + std::to_string(i));
    ASSERT_TRUE(lm.Append(&r).ok());
  }
  EXPECT_GT(lm.flushed_lsn(), kLogFilePrologue)
      << "appends beyond capacity must auto-spill";
  EXPECT_GT(m.log_flushes.load(), 10u);
  // Every record — spilled or still buffered — remains readable in order.
  LogManager::Reader reader(&lm, kLogFilePrologue);
  LogRecord rec;
  int n = 0;
  while (reader.Next(&rec).ok()) {
    EXPECT_EQ(rec.payload, "payload-" + std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, 100);
}

TEST(LogManagerTest, ConcurrentAppendsAllSurvive) {
  TempDir dir("wal_mt");
  Metrics m;
  LogManager lm(dir.path() + "/wal", &m, false);
  ASSERT_OK(lm.Open());
  constexpr int kThreads = 4, kPer = 500;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&lm, t] {
      for (int i = 0; i < kPer; ++i) {
        LogRecord r = Update(static_cast<TxnId>(t + 1), "x");
        ASSERT_TRUE(lm.Append(&r).ok());
      }
    });
  }
  for (auto& t : ts) t.join();
  ASSERT_OK(lm.FlushAll());
  LogManager::Reader reader(&lm, kLogFilePrologue);
  LogRecord rec;
  int n = 0;
  while (reader.Next(&rec).ok()) ++n;
  EXPECT_EQ(n, kThreads * kPer);
}

uint64_t FileBytes(const std::string& path) {
  return std::filesystem::file_size(path);
}

// Every record from the prologue to the end of the log, payloads in order.
std::vector<std::string> Payloads(LogManager* lm) {
  LogManager::Reader reader(lm, kLogFilePrologue);
  LogRecord rec;
  std::vector<std::string> out;
  while (reader.Next(&rec).ok()) out.push_back(rec.payload);
  return out;
}

TEST(LogManagerTest, FsyncLogIsPreallocatedWhileOpenAndTrimmedOnClose) {
  TempDir dir("wal_prealloc");
  Metrics m;
  std::string path = dir.path() + "/wal";
  Lsn end;
  {
    LogManager lm(path, &m, /*fsync=*/true);
    ASSERT_OK(lm.Open());
    EXPECT_EQ(FileBytes(path), lm.next_lsn());
    LogRecord a = Update(1, "first");
    ASSERT_TRUE(lm.Append(&a).ok());
    ASSERT_OK(lm.FlushAll());
    EXPECT_GT(FileBytes(path), lm.next_lsn())
        << "a flush must zero-fill ahead of the append point";
    const uint64_t extended = FileBytes(path);
    LogRecord b = Update(1, "second");
    ASSERT_TRUE(lm.Append(&b).ok());
    ASSERT_OK(lm.FlushAll());
    EXPECT_EQ(FileBytes(path), extended)
        << "a flush inside the zeros must not change the file size";
    end = lm.next_lsn();
    lm.Close();
    EXPECT_EQ(FileBytes(path), end) << "a closed log is exactly its records";
  }
  LogManager lm(path, &m, true);
  ASSERT_OK(lm.Open());
  EXPECT_EQ(lm.next_lsn(), end);
  EXPECT_EQ(Payloads(&lm), (std::vector<std::string>{"first", "second"}));
}

TEST(LogManagerTest, NoPreallocationWithoutFsync) {
  TempDir dir("wal_no_prealloc");
  Metrics m;
  std::string path = dir.path() + "/wal";
  LogManager lm(path, &m, /*fsync=*/false);
  ASSERT_OK(lm.Open());
  for (int i = 0; i < 3; ++i) {
    LogRecord r = Update(1, "r" + std::to_string(i));
    ASSERT_TRUE(lm.Append(&r).ok());
    ASSERT_OK(lm.FlushAll());
    EXPECT_EQ(FileBytes(path), lm.next_lsn());
  }
}

TEST(LogManagerTest, ReopenOverZeroTailLandsOnFlushedLsn) {
  TempDir dir("wal_zero_tail");
  Metrics m;
  std::string path = dir.path() + "/wal";
  Lsn durable;
  {
    LogManager lm(path, &m, /*fsync=*/true);
    ASSERT_OK(lm.Open());
    LogRecord a = Update(1, "durable");
    ASSERT_TRUE(lm.Append(&a).ok());
    ASSERT_OK(lm.FlushAll());
    LogRecord b = Update(1, "volatile");
    ASSERT_TRUE(lm.Append(&b).ok());
    durable = lm.flushed_lsn();
    lm.DiscardUnflushed();  // crash: b is lost, the zeros stay on disk
  }
  ASSERT_GT(FileBytes(path), durable);
  LogManager lm(path, &m, true);
  ASSERT_OK(lm.Open());
  EXPECT_EQ(lm.next_lsn(), durable);
  EXPECT_EQ(lm.flushed_lsn(), durable);
  LogRecord c = Update(1, "after");
  EXPECT_EQ(lm.Append(&c).value(), durable);
  ASSERT_OK(lm.FlushAll());
  EXPECT_EQ(Payloads(&lm), (std::vector<std::string>{"durable", "after"}));
}

TEST(LogManagerTest, TearIntoPreallocatedRegionReopensAtTornRecord) {
  TempDir dir("wal_tear_slack");
  Metrics m;
  FaultInjector fault;
  std::string path = dir.path() + "/wal";
  Lsn lc;
  {
    LogManager lm(path, &m, /*fsync=*/true);
    lm.SetFaultInjector(&fault);
    ASSERT_OK(lm.Open());
    LogRecord a = Update(1, "a");
    ASSERT_TRUE(lm.Append(&a).ok());
    ASSERT_OK(lm.FlushAll());  // preallocates: b and c land in the zeros
    const Lsn durable = lm.flushed_lsn();
    LogRecord b = Update(1, "b");
    LogRecord c = Update(1, "c-is-torn");
    ASSERT_TRUE(lm.Append(&b).ok());
    lc = lm.Append(&c).value();
    FaultSpec spec;
    spec.kind = FaultKind::kPartialFlush;
    spec.site = FaultSite::kLogFlush;
    spec.keep_bytes = static_cast<uint32_t>(b.SerializedSize() + 5);
    fault.Arm(spec);
    EXPECT_FALSE(lm.FlushAll().ok());
    EXPECT_EQ(lm.flushed_lsn(), durable);
    lm.DiscardUnflushed();
  }
  fault.Disarm();
  LogManager lm(path, &m, true);
  ASSERT_OK(lm.Open());
  EXPECT_EQ(lm.next_lsn(), lc) << "the complete b survives, the torn c does not";
  EXPECT_EQ(Payloads(&lm), (std::vector<std::string>{"a", "b"}));
}

TEST(LogManagerTest, FailedFlushLeavesFlushedLsn) {
  TempDir dir("wal_failed_flush");
  Metrics m;
  FaultInjector fault;
  LogManager lm(dir.path() + "/wal", &m, /*fsync=*/true);
  lm.SetFaultInjector(&fault);
  ASSERT_OK(lm.Open());
  LogRecord a = Update(1, "a");
  ASSERT_TRUE(lm.Append(&a).ok());
  const Lsn before = lm.flushed_lsn();
  FaultSpec spec;
  spec.kind = FaultKind::kTransientError;
  spec.site = FaultSite::kLogFlush;
  fault.Arm(spec);
  EXPECT_FALSE(lm.FlushAll().ok());
  EXPECT_EQ(lm.flushed_lsn(), before);
  ASSERT_OK(lm.FlushAll());  // the device healed
  EXPECT_EQ(lm.flushed_lsn(), lm.next_lsn());
}

}  // namespace
}  // namespace ariesim
