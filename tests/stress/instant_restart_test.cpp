// Instant-restart stress harness (PR 8; docs/ARCHITECTURE.md, "Instant
// restart"). The classic three-pass restart is the verification oracle:
//  (1) A/B: the same crash image recovered both ways must converge to
//      byte-identical data files and the same committed state;
//  (2) the deferred redo debt drains — by first-touch traffic, by
//      WaitForRecoveryDrain, or by the background sweeper — and every
//      scheduled page is recovered exactly once;
//  (3) nested crashes: crashing *during* instant restart (mid-lazy-replay,
//      mid-sweeper, right after a checkpoint that persisted the page index
//      with pages still pending, or onto a torn data page) must still
//      converge to the oracle state on the next recovery, classic or
//      instant.
//
// Reproduce one failing seed with:
//   ARIESIM_STRESS_SEEDS=<seed> ./instant_restart_test
//       --gtest_filter='Seeds/<Suite>*'
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "db/database.h"
#include "fault_util.h"
#include "test_util.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "wal/log_manager.h"

namespace ariesim {
namespace {

using testing::CheckRestartConsistency;
using testing::FaultTestOptions;
using testing::MaybeKeepCrashImage;
using testing::RunFaultWorkload;
using testing::StressSeeds;
using testing::TempDir;
using testing::VerifyDatabaseState;
using testing::WorkloadParams;
using testing::WorkloadTrace;

Options InstantOptions(bool sweep = false) {
  Options o = FaultTestOptions();
  o.buffer_pool_frames = 512;
  o.instant_restart = true;
  o.instant_restart_sweep = sweep;
  return o;
}

Options ClassicOptions() {
  Options o = FaultTestOptions();
  o.buffer_pool_frames = 512;
  return o;
}

/// Read a whole file; empty string if unreadable.
std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f.is_open()) return {};
  std::string out(static_cast<size_t>(f.tellg()), '\0');
  f.seekg(0);
  f.read(out.data(), static_cast<std::streamsize>(out.size()));
  return out;
}

class InstantRestartTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void Open(const std::string& tag) {
    dir_ = std::make_unique<TempDir>(tag + "_" + std::to_string(GetParam()));
    // Build the workload in instant mode so its random checkpoints persist
    // kPageIndex chunks — the crash images then exercise the chunk-merge
    // side of analysis, not just the tail-scan side.
    Options o = FaultTestOptions();
    o.instant_restart = true;
    db_ = std::move(Database::Open(dir_->path(), o)).value();
    table_ = db_->CreateTable("t", 2).value();
    ASSERT_TRUE(db_->CreateIndex("t", "pk", 0, true).ok());
  }

  void SeedBaseRows() {
    Random rnd(GetParam() ^ 0xba5eba5e);
    for (int t = 0; t < 3; ++t) {
      Transaction* txn = db_->Begin();
      for (int i = 0; i < 12; ++i) {
        std::string key =
            "t" + std::to_string(t) + "-" + rnd.Key(rnd.Uniform(40), 3);
        Status s = table_->Insert(txn, {key, "base"});
        if (s.ok()) {
          trace_.committed[key] = "base";
        } else {
          ASSERT_TRUE(s.IsDuplicate()) << s.ToString();
        }
      }
      ASSERT_OK(db_->Commit(txn));
    }
  }

  /// Seeded load with losers in flight, then a plain crash. Leaves `db_`
  /// crashed; the directory holds the crash image.
  void BuildCrashImage() {
    Open("instant");
    SeedBaseRows();
    WorkloadParams p;
    p.stop_on_trip = false;
    p.read_only_pct = 30;
    RunFaultWorkload(db_.get(), table_, GetParam(), p, &trace_);
    ASSERT_TRUE(trace_.indoubt.empty()) << "no fault was armed";
    // Leave one transaction in flight so the undo pass has a loser whose
    // CLRs both recovery modes must append identically — and a read-only
    // one across a checkpoint, which neither mode may count as a loser.
    Transaction* inflight = db_->Begin();
    ASSERT_OK(table_->Insert(inflight, {"zz-inflight", "boom"}));
    ASSERT_FALSE(trace_.committed.empty());
    Transaction* reader = db_->Begin();
    std::optional<Row> row;
    ASSERT_OK(table_->FetchByKey(reader, "pk", trace_.committed.begin()->first,
                                 &row));
    ASSERT_OK(db_->Checkpoint());
    ASSERT_OK(db_->wal()->FlushAll());
    db_->SimulateCrash();
    MaybeKeepCrashImage(dir_->path());
  }

  /// Reopen `dir` with `o`, stashing the handle in `db_` (and refreshing
  /// `table_`).
  void Reopen(const std::string& dir, const Options& o) {
    auto reopened = Database::Open(dir, o);
    ASSERT_OK(reopened.status());
    db_ = std::move(reopened).value();
    table_ = db_->GetTable("t");
    ASSERT_NE(table_, nullptr);
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  WorkloadTrace trace_;
};

// ---------------------------------------------------------------------------
// Oracle A/B: recover the identical crash image with the classic three-pass
// restart and with instant restart; after a full drain and a clean close the
// two data files must be byte-identical, and both must satisfy the
// committed-state reference model.
using OracleABTest = InstantRestartTest;

TEST_P(OracleABTest, ByteIdenticalToClassicRestart) {
  BuildCrashImage();
  const std::string dir_a = dir_->path();
  const std::string dir_b = dir_a + "-b";
  std::filesystem::remove_all(dir_b);
  std::filesystem::copy(dir_a, dir_b,
                        std::filesystem::copy_options::recursive);

  // A: classic oracle.
  Reopen(dir_a, ClassicOptions());
  EXPECT_FALSE(db_->restart_stats().instant);
  EXPECT_EQ(db_->restart_stats().loser_txns, 1u);
  VerifyDatabaseState(db_.get(), &trace_, GetParam());
  CheckRestartConsistency(db_.get(), GetParam());
  db_.reset();  // clean close: checkpoint + flush

  // B: instant restart, drained deterministically (no sweeper).
  Reopen(dir_b, InstantOptions());
  EXPECT_TRUE(db_->restart_stats().instant);
  EXPECT_EQ(db_->restart_stats().loser_txns, 1u);
  EXPECT_EQ(db_->restart_stats().redo_records, 0u)
      << "instant restart must not run the sequential redo pass";
  const uint64_t scheduled = db_->restart_stats().lazy_pages_scheduled;
  EXPECT_EQ(db_->PendingRecoveryPages() +
                db_->metrics().pages_recovered_lazily.load(),
            scheduled)
      << "every scheduled page is either still pending or recovered";
  ASSERT_OK(db_->WaitForRecoveryDrain());
  EXPECT_EQ(db_->PendingRecoveryPages(), 0u);
  EXPECT_EQ(db_->metrics().pages_recovered_lazily.load(), scheduled);
  VerifyDatabaseState(db_.get(), &trace_, GetParam());
  CheckRestartConsistency(db_.get(), GetParam());
  db_.reset();

  std::string a = Slurp(dir_a + "/data.db");
  std::string b = Slurp(dir_b + "/data.db");
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size()) << "data files diverged in size";
  if (a != b) {
    const size_t ps = FaultTestOptions().page_size;
    for (size_t off = 0; off < a.size(); off += ps) {
      if (a.compare(off, ps, b, off, ps) != 0) {
        PageView va(a.data() + off, ps);
        PageView vb(b.data() + off, ps);
        std::string ranges;
        for (size_t i = 0; i < ps; ++i) {
          if (a[off + i] == b[off + i]) continue;
          size_t j = i;
          while (j < ps && a[off + j] != b[off + j]) ++j;
          ranges += " [" + std::to_string(i) + "," + std::to_string(j) + "):";
          for (size_t k = i; k < j && k < i + 8; ++k) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "%02x/%02x,",
                          static_cast<unsigned char>(a[off + k]),
                          static_cast<unsigned char>(b[off + k]));
            ranges += buf;
          }
          i = j;
        }
        FAIL() << "first divergent page " << off / ps
               << " between classic and instant recovery: classic type="
               << static_cast<int>(va.type()) << " page_lsn=" << va.page_lsn()
               << ", instant type=" << static_cast<int>(vb.type())
               << " page_lsn=" << vb.page_lsn()
               << ", differing classic/instant bytes:" << ranges;
      }
    }
  }
  std::filesystem::remove_all(dir_b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleABTest,
                         ::testing::ValuesIn(StressSeeds(8)));

// ---------------------------------------------------------------------------
// The background sweeper drains the debt without any foreground traffic.
using SweeperTest = InstantRestartTest;

TEST_P(SweeperTest, SweeperDrainsDebt) {
  BuildCrashImage();
  Reopen(dir_->path(), InstantOptions(/*sweep=*/true));
  ASSERT_OK(db_->WaitForRecoveryDrain());
  EXPECT_EQ(db_->PendingRecoveryPages(), 0u);
  EXPECT_EQ(db_->metrics().pages_recovered_lazily.load(),
            db_->restart_stats().lazy_pages_scheduled);
  VerifyDatabaseState(db_.get(), &trace_, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweeperTest,
                         ::testing::ValuesIn(StressSeeds(4)));

// ---------------------------------------------------------------------------
// First-touch traffic alone retires the debt: with the sweeper off, reading
// the whole committed state through the normal access paths recovers every
// page the verification touches, and the explicit drain finishes the rest.
using FirstTouchTest = InstantRestartTest;

TEST_P(FirstTouchTest, TrafficDrainsDebt) {
  BuildCrashImage();
  Reopen(dir_->path(), InstantOptions());
  const uint64_t scheduled = db_->restart_stats().lazy_pages_scheduled;
  // Verification reads every committed key through index + heap: each fetch
  // of a pending page replays its chain on the spot.
  VerifyDatabaseState(db_.get(), &trace_, GetParam());
  if (scheduled > 0) {
    EXPECT_GT(db_->metrics().pages_recovered_lazily.load(), 0u)
        << "foreground reads never hit a pending page";
  }
  ASSERT_OK(db_->WaitForRecoveryDrain());
  EXPECT_EQ(db_->PendingRecoveryPages(), 0u);
  // New transactions work while (and after) the debt drains.
  Transaction* txn = db_->Begin();
  ASSERT_OK(table_->Insert(txn, {"zz-post-restart", "alive"}));
  ASSERT_OK(db_->Commit(txn));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirstTouchTest,
                         ::testing::ValuesIn(StressSeeds(4)));

// ---------------------------------------------------------------------------
// Nested crash mid-lazy-replay: crash again while pages are still pending
// (after some were recovered by first-touch reads and new transactions
// committed on top). Both a classic and an instant reopen of that second
// crash image must converge to the reference state.
using NestedCrashTest = InstantRestartTest;

TEST_P(NestedCrashTest, CrashMidLazyReplayRecoversBothWays) {
  BuildCrashImage();
  Reopen(dir_->path(), InstantOptions());
  // Partially drain: touch a few committed keys so some (not all) pending
  // pages recover, then commit fresh work on top of the half-recovered pool.
  Transaction* reader = db_->Begin();
  int touched = 0;
  for (const auto& kv : trace_.committed) {
    std::optional<Row> row;
    ASSERT_OK(table_->FetchByKey(reader, "pk", kv.first, &row));
    if (++touched >= 5) break;
  }
  ASSERT_OK(db_->Commit(reader));
  Transaction* writer = db_->Begin();
  ASSERT_OK(table_->Insert(writer, {"zz-nested", "mid-replay"}));
  ASSERT_OK(db_->Commit(writer));
  trace_.committed["zz-nested"] = "mid-replay";
  ASSERT_OK(db_->wal()->FlushAll());
  db_->SimulateCrash();
  MaybeKeepCrashImage(dir_->path());

  const std::string dir_a = dir_->path();
  const std::string dir_b = dir_a + "-b";
  std::filesystem::remove_all(dir_b);
  std::filesystem::copy(dir_a, dir_b,
                        std::filesystem::copy_options::recursive);

  // Classic oracle on the nested crash image.
  Reopen(dir_a, ClassicOptions());
  VerifyDatabaseState(db_.get(), &trace_, GetParam());
  CheckRestartConsistency(db_.get(), GetParam());
  db_.reset();

  // Instant recovery of a crashed instant recovery.
  Reopen(dir_b, InstantOptions());
  ASSERT_OK(db_->WaitForRecoveryDrain());
  VerifyDatabaseState(db_.get(), &trace_, GetParam());
  db_.reset();
  std::filesystem::remove_all(dir_b);
}

TEST_P(NestedCrashTest, CrashMidSweeperRecovers) {
  BuildCrashImage();
  // Sweeper on: crash races the drain (StopSweeper serializes the race, as
  // a real crash's process death would).
  Reopen(dir_->path(), InstantOptions(/*sweep=*/true));
  db_->SimulateCrash();
  Reopen(dir_->path(), ClassicOptions());
  VerifyDatabaseState(db_.get(), &trace_, GetParam());
  CheckRestartConsistency(db_.get(), GetParam());
}

TEST_P(NestedCrashTest, CrashAfterCheckpointWithPendingPages) {
  BuildCrashImage();
  Reopen(dir_->path(), InstantOptions());
  if (db_->PendingRecoveryPages() > 0) {
    // Checkpoint while the debt is outstanding: its DPT (and the persisted
    // page-index chunks) must carry the pending pages' recLSNs.
    ASSERT_OK(db_->Checkpoint());
  }
  db_->SimulateCrash();
  Reopen(dir_->path(), InstantOptions());
  ASSERT_OK(db_->WaitForRecoveryDrain());
  EXPECT_EQ(db_->PendingRecoveryPages(), 0u);
  VerifyDatabaseState(db_.get(), &trace_, GetParam());
}

TEST_P(NestedCrashTest, RepeatedInstantCrashesConverge) {
  BuildCrashImage();
  for (int round = 0; round < 3; ++round) {
    Reopen(dir_->path(), InstantOptions());
    db_->SimulateCrash();
  }
  Reopen(dir_->path(), ClassicOptions());
  VerifyDatabaseState(db_.get(), &trace_, GetParam());
  CheckRestartConsistency(db_.get(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedCrashTest,
                         ::testing::ValuesIn(StressSeeds(8)));

// ---------------------------------------------------------------------------
// Torn data page under instant restart: the crash leaves one materialized
// page torn; the lazy replay's fetch trips the CRC and the online repair
// path rebuilds it inside the same quarantine — no restart-time redo sweep
// exists to find it first.
using TornPageTest = InstantRestartTest;

TEST_P(TornPageTest, TornPageRepairsDuringLazyReplay) {
  Random rnd(GetParam());
  Open("instant_torn");
  SeedBaseRows();
  WorkloadParams p;
  p.stop_on_trip = false;
  RunFaultWorkload(db_.get(), table_, GetParam(), p, &trace_);
  ASSERT_TRUE(trace_.indoubt.empty()) << "no fault was armed";
  ASSERT_OK(db_->wal()->FlushAll());

  auto dpt = db_->pool()->DirtyPageTable();
  if (dpt.empty()) {
    db_->SimulateCrash();
    GTEST_SKIP() << "no dirty pages to tear for this seed";
  }
  // Materialize everything, then tear one page that carried redo debt.
  ASSERT_OK(db_->FlushAllPages());
  TornCrashSpec spec;
  spec.target = TornCrashSpec::Target::kDataPage;
  spec.page_id = dpt[rnd.Uniform(dpt.size())].first;
  spec.keep_bytes = static_cast<uint32_t>(
      rnd.Range(0, FaultTestOptions().page_size - 64));
  SCOPED_TRACE("spec " + spec.ToString());
  ASSERT_OK(db_->SimulateTornCrash(spec));
  MaybeKeepCrashImage(dir_->path());

  Reopen(dir_->path(), InstantOptions());
  ASSERT_OK(db_->WaitForRecoveryDrain());
  {
    // The torn page may not lie on any verification path (e.g. a space-map
    // page): touch it explicitly so the repair must have happened.
    auto guard = db_->pool()->FetchPage(spec.page_id, LatchMode::kShared);
    ASSERT_OK(guard.status());
  }
  EXPECT_GE(db_->metrics().pages_repaired_online.load(), 1u)
      << "page " << spec.page_id << " was torn on disk";
  VerifyDatabaseState(db_.get(), &trace_, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TornPageTest,
                         ::testing::ValuesIn(StressSeeds(8)));

}  // namespace
}  // namespace ariesim
