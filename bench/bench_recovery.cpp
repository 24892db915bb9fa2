// Experiment C4 (see DESIGN.md §3): restart-recovery performance.
//
// The paper's claims: redo is always page-oriented (no index traversals at
// restart), undo is page-oriented whenever possible, and checkpoints bound
// the work. Sweeps:
//   - BM_Restart/N        : crash after N committed row-inserts, measure
//                           restart wall time + records analyzed/redone.
//   - BM_RestartLosers/N  : crash with N uncommitted inserts (undo pass),
//                           report page-oriented vs logical undo counts.
//   - BM_RestartCheckpointed : same as BM_Restart but with a checkpoint
//                           right before the crash — analysis/redo collapse.
//   - BM_RestartInstant/N  : same crash image as BM_Restart, opened with
//                           Options::instant_restart — measures how long
//                           until the engine accepts transactions when redo
//                           is deferred to first touch.
//
// `bench_recovery --recovery_json[=FILE]` skips Google Benchmark and runs
// the instant-restart sweep instead: log size × {classic, instant} on
// copies of the same crash image, emitting one JSON row per run with
// time-to-first-commit and the lazy-replay counters (default FILE
// BENCH_recovery.json; driver: tools/run_recovery_bench.sh).
#include <chrono>
#include <fstream>

#include "bench_common.h"

namespace ariesim {
namespace {

using benchutil::BenchOptions;
using benchutil::FreshDir;

void BuildAndCrash(const std::string& dir, int committed, int losers,
                   bool checkpoint_before_crash,
                   Options opts = BenchOptions()) {
  auto db = std::move(Database::Open(dir, opts).value());
  db->CreateTable("t", 2).value();
  db->CreateIndex("t", "pk", 0, true).value();
  Table* table = db->GetTable("t");
  Transaction* txn = db->Begin();
  for (int i = 0; i < committed; ++i) {
    (void)table->Insert(txn, {"c" + Random(0).Key(static_cast<uint64_t>(i), 7),
                              "v"});
    if (i % 500 == 499) {
      (void)db->Commit(txn);
      txn = db->Begin();
    }
  }
  (void)db->Commit(txn);
  if (checkpoint_before_crash) {
    (void)db->FlushAllPages();
    (void)db->Checkpoint();
  }
  Transaction* loser = db->Begin();
  for (int i = 0; i < losers; ++i) {
    (void)table->Insert(loser,
                        {"l" + Random(0).Key(static_cast<uint64_t>(i), 7), "v"});
  }
  (void)db->wal()->FlushAll();
  if (losers > 0) {
    (void)db->FlushAllPages();  // losers on disk: undo genuinely needed
  }
  // With losers == 0 the dirty pages stay unflushed, so redo has real work.
  db->SimulateCrash();
}

void BM_Restart(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = FreshDir("restart");
    BuildAndCrash(dir, /*committed=*/n, /*losers=*/0,
                  /*checkpoint_before_crash=*/false);
    Options opts = BenchOptions();
    state.ResumeTiming();
    auto db = std::move(Database::Open(dir, opts).value());
    state.PauseTiming();
    const RestartStats& rs = db->restart_stats();
    state.counters["analysis_records"] =
        benchmark::Counter(static_cast<double>(rs.analysis_records));
    state.counters["redo_applied"] =
        benchmark::Counter(static_cast<double>(rs.redo_applied));
    state.counters["analysis_us"] =
        benchmark::Counter(static_cast<double>(rs.analysis_us));
    state.counters["redo_us"] =
        benchmark::Counter(static_cast<double>(rs.redo_us));
    state.counters["undo_us"] =
        benchmark::Counter(static_cast<double>(rs.undo_us));
    state.counters["logical_undos"] = benchmark::Counter(
        static_cast<double>(db->metrics().logical_undos.load()));
    // Page-oriented redo: the restart performed no tree traversals.
    state.counters["traversal_restarts"] = benchmark::Counter(
        static_cast<double>(db->metrics().traversal_restarts.load()));
    fprintf(stderr, "BM_Restart/%d: %s\n", n, rs.ToString().c_str());
    db.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_Restart)->Arg(1000)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_RestartLosers(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = FreshDir("restart_losers");
    BuildAndCrash(dir, /*committed=*/2000, /*losers=*/n,
                  /*checkpoint_before_crash=*/false);
    Options opts = BenchOptions();
    state.ResumeTiming();
    auto db = std::move(Database::Open(dir, opts).value());
    state.PauseTiming();
    const RestartStats& rs = db->restart_stats();
    state.counters["undo_records"] =
        benchmark::Counter(static_cast<double>(rs.undo_records));
    state.counters["undo_us"] =
        benchmark::Counter(static_cast<double>(rs.undo_us));
    state.counters["page_oriented_undos"] = benchmark::Counter(
        static_cast<double>(db->metrics().page_oriented_undos.load()));
    state.counters["logical_undos"] = benchmark::Counter(
        static_cast<double>(db->metrics().logical_undos.load()));
    fprintf(stderr, "BM_RestartLosers/%d: %s\n", n, rs.ToString().c_str());
    db.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_RestartLosers)->Arg(100)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_RestartCheckpointed(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = FreshDir("restart_ckpt");
    BuildAndCrash(dir, /*committed=*/n, /*losers=*/0,
                  /*checkpoint_before_crash=*/true);
    Options opts = BenchOptions();
    state.ResumeTiming();
    auto db = std::move(Database::Open(dir, opts).value());
    state.PauseTiming();
    const RestartStats& rs = db->restart_stats();
    state.counters["analysis_records"] =
        benchmark::Counter(static_cast<double>(rs.analysis_records));
    state.counters["redo_applied"] =
        benchmark::Counter(static_cast<double>(rs.redo_applied));
    state.counters["total_us"] =
        benchmark::Counter(static_cast<double>(rs.total_us));
    fprintf(stderr, "BM_RestartCheckpointed/%d: %s\n", n,
            rs.ToString().c_str());
    db.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_RestartCheckpointed)->Arg(20000)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

// Torn log tail: the crash truncates wal.log halfway through the unflushed
// loser tail (usually mid-record). Restart must clip the torn record,
// treat the in-flight transaction as a loser, and pay the usual
// analysis/redo/undo — measures recovery cost when the log itself is
// damaged, not just the data pages.
void BM_RestartTornTail(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = FreshDir("restart_torn");
    {
      Options opts = BenchOptions();
      auto db = std::move(Database::Open(dir, opts).value());
      db->CreateTable("t", 2).value();
      db->CreateIndex("t", "pk", 0, true).value();
      Table* table = db->GetTable("t");
      Transaction* txn = db->Begin();
      for (int i = 0; i < n; ++i) {
        (void)table->Insert(
            txn, {"c" + Random(0).Key(static_cast<uint64_t>(i), 7), "v"});
        if (i % 500 == 499) {
          (void)db->Commit(txn);
          txn = db->Begin();
        }
      }
      (void)db->Commit(txn);
      Lsn committed = db->wal()->flushed_lsn();
      Transaction* loser = db->Begin();
      for (int i = 0; i < 500; ++i) {
        (void)table->Insert(
            loser, {"l" + Random(0).Key(static_cast<uint64_t>(i), 7), "v"});
      }
      (void)db->wal()->FlushAll();
      Lsn end = db->wal()->next_lsn();
      TornCrashSpec spec;
      spec.target = TornCrashSpec::Target::kLogTail;
      spec.truncate_to = committed + (end - committed) / 2;
      (void)db->SimulateTornCrash(spec);
    }
    Options opts = BenchOptions();
    state.ResumeTiming();
    auto db = std::move(Database::Open(dir, opts).value());
    state.PauseTiming();
    const RestartStats& rs = db->restart_stats();
    state.counters["analysis_records"] =
        benchmark::Counter(static_cast<double>(rs.analysis_records));
    state.counters["undo_records"] =
        benchmark::Counter(static_cast<double>(rs.undo_records));
    state.counters["loser_txns"] =
        benchmark::Counter(static_cast<double>(rs.loser_txns));
    state.counters["undo_us"] =
        benchmark::Counter(static_cast<double>(rs.undo_us));
    fprintf(stderr, "BM_RestartTornTail/%d: %s\n", n, rs.ToString().c_str());
    db.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_RestartTornTail)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

// Same crash image as BM_Restart, opened with instant restart: the timed
// region covers analysis + loser undo only; the redo debt is deferred to
// first touch. Compare wall time against BM_Restart/N at the same N.
void BM_RestartInstant(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = FreshDir("restart_instant");
    Options opts = BenchOptions();
    opts.instant_restart = true;  // also during the build: checkpoints
                                  // persist the page index
    opts.instant_restart_sweep = false;
    BuildAndCrash(dir, /*committed=*/n, /*losers=*/0,
                  /*checkpoint_before_crash=*/false, opts);
    state.ResumeTiming();
    auto db = std::move(Database::Open(dir, opts).value());
    state.PauseTiming();
    const RestartStats& rs = db->restart_stats();
    state.counters["analysis_records"] =
        benchmark::Counter(static_cast<double>(rs.analysis_records));
    state.counters["lazy_pages_scheduled"] =
        benchmark::Counter(static_cast<double>(rs.lazy_pages_scheduled));
    fprintf(stderr, "BM_RestartInstant/%d: %s\n", n, rs.ToString().c_str());
    (void)db->WaitForRecoveryDrain();
    db.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_RestartInstant)->Arg(1000)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

// ---------------------------------------------------------------------------
// --recovery_json sweep: classic vs instant time-to-first-commit.
namespace recoverybench {

struct Row {
  int rows = 0;
  const char* mode = "classic";
  uint64_t log_bytes = 0;
  uint64_t open_us = 0;   ///< Database::Open wall time
  uint64_t ttfc_us = 0;   ///< open + one insert + one commit
  uint64_t redo_applied = 0;
  uint64_t lazy_scheduled = 0;
  uint64_t lazy_recovered = 0;
  uint64_t chain_fallbacks = 0;
  uint64_t drain_us = 0;  ///< instant only: explicit full drain after TTFC
  /// Per-segment attribution of the first commit after restart — shows
  /// whether the TTFC tail is log-append or durability-wait (PR 9).
  benchutil::CommitBreakdownSnap breakdown;
};

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Periodic fuzzy checkpoints bound the analysis tail without flushing any
/// pages — the redo debt at the crash still grows with the row count, which
/// is exactly the regime where classic restart pays and instant defers.
Options SweepOptions() {
  Options o = BenchOptions();
  o.checkpoint_interval_bytes = 256 * 1024;
  // Build in instant mode so the periodic checkpoints persist the page
  // index; Measure() overrides the flag per recovery mode.
  o.instant_restart = true;
  return o;
}

Row Measure(const std::string& dir, int rows, bool instant) {
  Options o = SweepOptions();
  o.instant_restart = instant;
  o.instant_restart_sweep = false;  // drain measured explicitly below
  Row r;
  r.rows = rows;
  r.mode = instant ? "instant" : "classic";
  r.log_bytes =
      static_cast<uint64_t>(std::filesystem::file_size(dir + "/wal.log"));
  const uint64_t t0 = NowUs();
  auto db = std::move(Database::Open(dir, o).value());
  r.open_us = NowUs() - t0;
  Table* table = db->GetTable("t");
  benchutil::CommitBreakdownSnap::ResetIn(db.get());  // restart's own commits out
  Transaction* txn = db->Begin();
  (void)table->Insert(txn, {"zzz-first-commit", "v"});
  (void)db->Commit(txn);
  r.ttfc_us = NowUs() - t0;
  r.breakdown = benchutil::CommitBreakdownSnap::Take(db.get());
  const RestartStats& rs = db->restart_stats();
  r.redo_applied = rs.redo_applied;
  r.lazy_scheduled = rs.lazy_pages_scheduled;
  if (instant) {
    const uint64_t d0 = NowUs();
    (void)db->WaitForRecoveryDrain();
    r.drain_us = NowUs() - d0;
  }
  r.lazy_recovered = db->metrics().pages_recovered_lazily.load();
  r.chain_fallbacks = db->metrics().lazy_chain_fallbacks.load();
  fprintf(stderr, "recovery_sweep rows=%d mode=%s ttfc=%lluus %s\n", rows,
          r.mode, static_cast<unsigned long long>(r.ttfc_us),
          rs.ToString().c_str());
  return r;
}

int RunRecoverySweep(const std::string& json_path) {
  std::vector<Row> out_rows;
  for (int n : {2000, 8000, 32000}) {
    // One crash image per size; both modes recover byte-identical copies.
    std::string dir = FreshDir("recovery_sweep");
    BuildAndCrash(dir, /*committed=*/n, /*losers=*/0,
                  /*checkpoint_before_crash=*/false, SweepOptions());
    std::string dir_instant = dir + "_instant";
    std::filesystem::remove_all(dir_instant);
    std::filesystem::copy(dir, dir_instant,
                          std::filesystem::copy_options::recursive);
    out_rows.push_back(Measure(dir, n, /*instant=*/false));
    out_rows.push_back(Measure(dir_instant, n, /*instant=*/true));
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir_instant);
  }
  std::ofstream out(json_path);
  if (!out.is_open()) {
    fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << "[\n";
  for (size_t i = 0; i < out_rows.size(); ++i) {
    const Row& r = out_rows[i];
    out << "  {\"rows\": " << r.rows << ", \"mode\": \"" << r.mode
        << "\", \"log_bytes\": " << r.log_bytes
        << ", \"open_us\": " << r.open_us << ", \"ttfc_us\": " << r.ttfc_us
        << ", \"redo_applied\": " << r.redo_applied
        << ", \"lazy_pages_scheduled\": " << r.lazy_scheduled
        << ", \"pages_recovered_lazily\": " << r.lazy_recovered
        << ", \"lazy_chain_fallbacks\": " << r.chain_fallbacks
        << ", \"drain_us\": " << r.drain_us;
    r.breakdown.WriteJsonFields(out);
    out << "}" << (i + 1 < out_rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace recoverybench

}  // namespace
}  // namespace ariesim

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--recovery_json", 0) == 0) {
      std::string path = "BENCH_recovery.json";
      size_t eq = arg.find('=');
      if (eq != std::string::npos && eq + 1 < arg.size()) {
        path = arg.substr(eq + 1);
      }
      return ariesim::recoverybench::RunRecoverySweep(path);
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
