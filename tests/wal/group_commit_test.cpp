// Group-commit correctness: the batching pipeline must not weaken the
// commit rule. N threads commit concurrently on each commit path (the
// flusher thread, which Database::Open starts when the log fsyncs, and the
// inline flush every other database uses); a seed-derived partial-flush
// fault kills the device mid-batch; after the crash every *acknowledged*
// commit must be recovered whole, every unacknowledged commit must be
// atomic (all or nothing), and the recovered database must hold no stray
// locks. Plus deterministic tests for the flusher start policy, flush
// coalescing, CommitAsync's lazy-durability window, error propagation to
// covered waiters, and the DiscardUnflushed-vs-flusher race.
//
// Reproduce one failing seed with:
//   ARIESIM_STRESS_SEEDS=<seed> ./group_commit_test
//       --gtest_filter='FlusherSeeds/GroupCommitDurabilityTest.*'
// Each seed records the commits and commit flushes it ran before the crash
// as the test properties group_commit_txns / group_commit_batches
// (--gtest_output=xml:<file>); more commits than flushes means the fault
// landed among multi-commit batches.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "fault_util.h"
#include "test_util.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "wal/log_manager.h"

namespace ariesim {
namespace {

using testing::StressSeeds;
using testing::TempDir;

// The two ways a commit record becomes durable. Database::Open picks the
// flusher iff wal_group_commit && fsync_log, so the options set the fsync.
enum class CommitPath : uint8_t { kFlusher = 0, kInline = 1 };

Options GroupCommitOptions(CommitPath path) {
  Options o = testing::FaultTestOptions();
  o.wal_group_commit = true;
  o.fsync_log = path == CommitPath::kFlusher;
  return o;
}

// ---------------------------------------------------------------------------
// Seeded crash suite: concurrent commits, a partial-flush fault at batch
// granularity, then recovery. Ground truth: a commit is acknowledged iff
// Database::Commit returned OK.
// ---------------------------------------------------------------------------

class GroupCommitDurabilityTest
    : public ::testing::TestWithParam<std::pair<uint64_t, CommitPath>> {};

TEST_P(GroupCommitDurabilityTest, AcknowledgedCommitsSurviveMidBatchCrash) {
  const auto [seed, path] = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  Random seed_rnd(seed);
  Options opts = GroupCommitOptions(path);
  TempDir dir("group_commit_" + std::to_string(seed));

  // Each transaction inserts TWO keys sharing an id, so recovery atomicity
  // is observable: "a<id>" present iff "b<id>" present.
  std::mutex mu;
  std::map<std::string, std::string> acked;    // key -> value
  std::vector<std::pair<std::string, std::string>> indoubt;  // key pair
  {
    auto db = std::move(Database::Open(dir.path(), opts)).value();
    Table* table = db->CreateTable("t", 2).value();
    ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());

    // Arm a partial log flush at a seed-chosen batch. With group commit the
    // kLogFlush site now fires at *batch* granularity: the torn prefix may
    // contain several transactions' commit records.
    FaultSpec spec;
    spec.kind = FaultKind::kPartialFlush;
    spec.site = FaultSite::kLogFlush;
    spec.nth = seed_rnd.Range(1, 10);
    spec.keep_bytes = static_cast<uint32_t>(seed_rnd.Range(0, 2000));
    db->fault_injector()->Arm(spec);

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Random rnd(seed * 31 + static_cast<uint64_t>(t));
        for (int i = 0; i < 24; ++i) {
          if (db->fault_injector()->tripped()) return;
          std::string id = std::to_string(t) + "-" + std::to_string(i);
          std::string value = "v" + std::to_string(rnd.Uniform(1000));
          Transaction* txn = db->Begin();
          Status s = table->Insert(txn, {"a" + id, value});
          if (s.ok()) s = table->Insert(txn, {"b" + id, value});
          if (!s.ok()) return;  // device frozen mid-op: txn stays in flight
          Status c = db->Commit(txn);
          std::lock_guard<std::mutex> g(mu);
          if (c.ok()) {
            acked["a" + id] = value;
            acked["b" + id] = value;
          } else {
            indoubt.emplace_back("a" + id, "b" + id);
            return;  // fail-stop: nothing more this thread can do
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(db->wal()->flusher_running(), path == CommitPath::kFlusher);
    RecordProperty("group_commit_txns",
                   std::to_string(db->metrics().group_commit_txns.load()));
    RecordProperty("group_commit_batches",
                   std::to_string(db->metrics().group_commit_batches.load()));
    ASSERT_OK(db->SimulateTornCrash(TornCrashSpec{}));
    testing::MaybeKeepCrashImage(dir.path());
  }

  Options reopen = opts;
  auto db = std::move(Database::Open(dir.path(), reopen)).value();
  Table* table = db->GetTable("t");
  ASSERT_NE(table, nullptr);

  Transaction* check = db->Begin();
  auto fetch = [&](const std::string& k) -> std::optional<std::string> {
    std::optional<Row> row;
    Status s = table->FetchByKey(check, "pk", k, &row);
    EXPECT_TRUE(s.ok()) << "fetch " << k << ": " << s.ToString();
    if (!s.ok() || !row.has_value()) return std::nullopt;
    return (*row)[1];
  };

  // (1) Every acknowledged commit survived the crash.
  for (const auto& [k, v] : acked) {
    EXPECT_EQ(fetch(k), std::optional<std::string>(v))
        << "acknowledged key " << k << " lost by the crash";
  }
  // (2) Unacknowledged commits recovered atomically: both keys or neither.
  for (const auto& [ka, kb] : indoubt) {
    auto a = fetch(ka);
    auto b = fetch(kb);
    EXPECT_EQ(a.has_value(), b.has_value())
        << "in-doubt txn (" << ka << ", " << kb << ") recovered NON-ATOMICALLY";
  }
  ASSERT_OK(db->Commit(check));

  // (3) No transaction — acknowledged or not — leaks locks into the
  // recovered database: one writer can X-lock every surviving row.
  Transaction* sweep = db->Begin();
  std::vector<std::pair<Rid, std::string>> rows;
  ASSERT_OK(table->heap()->ScanAll(&rows));
  for (const auto& [rid, data] : rows) {
    ASSERT_OK(table->Delete(sweep, rid));
  }
  ASSERT_OK(db->Rollback(sweep));
}

std::vector<std::pair<uint64_t, CommitPath>> SeedsOnPath(CommitPath path) {
  std::vector<std::pair<uint64_t, CommitPath>> out;
  for (uint64_t s : StressSeeds(12)) out.emplace_back(s, path);
  return out;
}

INSTANTIATE_TEST_SUITE_P(FlusherSeeds, GroupCommitDurabilityTest,
                         ::testing::ValuesIn(SeedsOnPath(CommitPath::kFlusher)));
// No flusher thread (fsync off): each committer leads its own inline flush,
// which covers every commit record appended before it took the log mutex.
INSTANTIATE_TEST_SUITE_P(LeaderSeeds, GroupCommitDurabilityTest,
                         ::testing::ValuesIn(SeedsOnPath(CommitPath::kInline)));

// ---------------------------------------------------------------------------
// Deterministic pipeline behaviors.
// ---------------------------------------------------------------------------

LogRecord SmallUpdate(TxnId txn) {
  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.rm = RmId::kHeap;
  rec.op = 1;
  rec.txn_id = txn;
  rec.page_id = 9;
  rec.payload = "x";
  return rec;
}

TEST(GroupCommitTest, FlusherRunsIffGroupCommitAndFsync) {
  TempDir dir("gc_policy");
  for (bool group : {false, true}) {
    for (bool fsync : {false, true}) {
      Options opts = testing::FaultTestOptions();
      opts.wal_group_commit = group;
      opts.fsync_log = fsync;
      auto db = std::move(Database::Open(dir.path() + "/db" +
                                             std::to_string(group) +
                                             std::to_string(fsync),
                                         opts))
                    .value();
      EXPECT_EQ(db->wal()->flusher_running(), group && fsync)
          << "wal_group_commit=" << group << " fsync_log=" << fsync;
    }
  }
}

TEST(GroupCommitTest, AsyncRequestsCoalesceIntoOneBatch) {
  TempDir dir("gc_coalesce");
  Metrics m;
  LogManager lm(dir.path() + "/wal", &m, /*fsync=*/false);
  ASSERT_OK(lm.Open());
  // Queue 10 durability requests while no flusher runs: nothing may flush.
  for (int i = 0; i < 10; ++i) {
    LogRecord r = SmallUpdate(static_cast<TxnId>(i + 1));
    Lsn lsn = lm.Append(&r).value();
    lm.RequestFlush(lsn + r.SerializedSize());
  }
  EXPECT_EQ(m.log_flushes.load(), 0u);
  EXPECT_EQ(m.group_commit_txns.load(), 10u);
  // Start the flusher: all 10 queued requests must ride ONE batch.
  lm.StartFlusher();
  Lsn want = lm.next_lsn();
  for (int spins = 0; lm.flushed_lsn() < want && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(lm.flushed_lsn(), want);
  EXPECT_EQ(m.log_flushes.load(), 1u);
  EXPECT_EQ(m.group_commit_batches.load(), 1u);
  lm.Close();
}

TEST(GroupCommitTest, ConcurrentCommitersAllDurableAndCounted) {
  TempDir dir("gc_mt");
  for (CommitPath path : {CommitPath::kFlusher, CommitPath::kInline}) {
    Metrics m;
    LogManager lm(dir.path() + "/wal_" +
                      std::to_string(static_cast<int>(path)),
                  &m, /*fsync=*/false);
    ASSERT_OK(lm.Open());
    if (path == CommitPath::kFlusher) lm.StartFlusher();
    constexpr int kThreads = 8, kPer = 40;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&lm, t] {
        for (int i = 0; i < kPer; ++i) {
          LogRecord r = SmallUpdate(static_cast<TxnId>(t + 1));
          Lsn lsn = lm.Append(&r).value();
          ASSERT_OK(lm.CommitFlush(lsn + r.SerializedSize()));
          ASSERT_GE(lm.flushed_lsn(), lsn + r.SerializedSize());
        }
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(m.group_commit_txns.load(), kThreads * kPer);
    EXPECT_GE(m.group_commit_batches.load(), 1u);
    EXPECT_LE(m.group_commit_batches.load(),
              static_cast<uint64_t>(kThreads) * kPer);
    lm.Close();
  }
}

TEST(GroupCommitTest, CommitAsyncReleasesLocksBeforeDurability) {
  TempDir dir("gc_async");
  // No flusher: an async commit's durability request sits untouched,
  // making the lazy window deterministic.
  Options opts = GroupCommitOptions(CommitPath::kInline);
  {
    auto db = std::move(Database::Open(dir.path(), opts)).value();
    Table* table = db->CreateTable("t", 2).value();
    ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());
    { // Durable base row.
      Transaction* txn = db->Begin();
      ASSERT_OK(table->Insert(txn, {"base", "v"}));
      ASSERT_OK(db->Commit(txn));
    }
    Transaction* lazy = db->Begin();
    ASSERT_OK(table->Insert(lazy, {"lazy", "v"}));
    ASSERT_OK(db->CommitAsync(lazy));
    // Locks were released before durability: another transaction can
    // X-lock the lazily committed row right now.
    Transaction* probe = db->Begin();
    std::optional<Row> row;
    Rid rid;
    ASSERT_OK(table->FetchByKey(probe, "pk", "lazy", &row, &rid));
    ASSERT_TRUE(row.has_value());
    ASSERT_OK(table->Delete(probe, rid));
    ASSERT_OK(db->Rollback(probe));
    // Crash inside the lazy window: the async commit must vanish whole.
    db->SimulateCrash();
  }
  auto db = std::move(Database::Open(dir.path(), opts)).value();
  Table* table = db->GetTable("t");
  Transaction* check = db->Begin();
  std::optional<Row> row;
  ASSERT_OK(table->FetchByKey(check, "pk", "base", &row));
  EXPECT_TRUE(row.has_value()) << "durable commit lost";
  row.reset();
  Status s = table->FetchByKey(check, "pk", "lazy", &row);
  ASSERT_OK(s);
  EXPECT_FALSE(row.has_value())
      << "async commit inside the lazy window must not survive a crash";
  ASSERT_OK(db->Commit(check));
}

TEST(GroupCommitTest, CommitAsyncHardensWithNextFlush) {
  TempDir dir("gc_async_hard");
  Options opts = GroupCommitOptions(CommitPath::kFlusher);
  {
    auto db = std::move(Database::Open(dir.path(), opts)).value();
    Table* table = db->CreateTable("t", 2).value();
    ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());
    Transaction* lazy = db->Begin();
    ASSERT_OK(table->Insert(lazy, {"lazy", "v"}));
    ASSERT_OK(db->CommitAsync(lazy));
    ASSERT_OK(db->wal()->FlushAll());  // the flush the request was riding
    db->SimulateCrash();
  }
  auto db = std::move(Database::Open(dir.path(), opts)).value();
  Transaction* check = db->Begin();
  std::optional<Row> row;
  ASSERT_OK(db->GetTable("t")->FetchByKey(check, "pk", "lazy", &row));
  EXPECT_TRUE(row.has_value()) << "flushed async commit must be durable";
  ASSERT_OK(db->Commit(check));
}

TEST(GroupCommitTest, FlushErrorReachesEveryCoveredWaiter) {
  TempDir dir("gc_error");
  for (CommitPath path : {CommitPath::kFlusher, CommitPath::kInline}) {
    Options opts = GroupCommitOptions(path);
    auto db = std::move(Database::Open(dir.path() + "/db" +
                                           std::to_string(static_cast<int>(path)),
                                       opts))
                  .value();
    Table* table = db->CreateTable("t", 2).value();
    ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());
    FaultSpec spec;
    spec.kind = FaultKind::kPartialFlush;
    spec.site = FaultSite::kLogFlush;
    spec.nth = 0;
    spec.keep_bytes = 10;
    db->fault_injector()->Arm(spec);
    Transaction* txn = db->Begin();
    ASSERT_OK(table->Insert(txn, {"k", "v"}));
    Status c = db->Commit(txn);
    EXPECT_FALSE(c.ok())
        << "a commit whose batch flush failed must not be acknowledged";
    db->SimulateCrash();
  }
}

TEST(GroupCommitTest, DiscardUnflushedRacesFlusherSafely) {
  // The crash-simulation path (StopFlusher + DiscardUnflushed) must be
  // race-free against committers blocked on the group pipeline: everyone
  // returns (durable => OK, discarded => error), nothing hangs or tears.
  TempDir dir("gc_discard_race");
  for (int round = 0; round < 20; ++round) {
    Metrics m;
    LogManager lm(dir.path() + "/wal_" + std::to_string(round), &m,
                  /*fsync=*/false);
    ASSERT_OK(lm.Open());
    lm.StartFlusher();
    std::atomic<bool> stop{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&lm, &stop, t] {
        while (!stop.load(std::memory_order_relaxed)) {
          LogRecord r = SmallUpdate(static_cast<TxnId>(t + 1));
          auto lsn = lm.Append(&r);
          if (!lsn.ok()) return;
          Lsn boundary = lsn.value() + r.SerializedSize();
          Status s = lm.CommitFlush(boundary);
          // OK means durable; an error means the tail was discarded out
          // from under us (checked by the whole-log scan below — the
          // boundary-vs-next_lsn relation is racy to re-probe here because
          // other threads keep appending).
          if (s.ok()) {
            ASSERT_GE(lm.flushed_lsn(), boundary);
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + round % 5));
    lm.StopFlusher();       // what Database::SimulateCrash does...
    lm.DiscardUnflushed();  // ...before discarding the tail
    stop.store(true);
    for (auto& t : ts) t.join();
    // The surviving prefix must be a clean sequence of whole records.
    ASSERT_OK(lm.FlushAll());
    LogManager::Reader reader(&lm, kLogFilePrologue);
    LogRecord rec;
    while (reader.Next(&rec).ok()) {
    }
    EXPECT_EQ(reader.position(), lm.flushed_lsn());
    lm.Close();
  }
}

}  // namespace
}  // namespace ariesim
