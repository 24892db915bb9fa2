// Experiment C3 (see DESIGN.md §3): multithreaded mixed-workload throughput
// across locking protocols and thread counts.
//
// Workload: each transaction does 4 operations over a shared table with a
// unique index (60% point fetch, 25% insert, 15% delete) on a moderately
// contended keyspace. Reported: committed transactions per second and the
// deadlock-victim rate. The paper's qualitative prediction: data-only
// locking ≥ index-specific > KVL (coarser value locks serialize readers
// against writers of the same value and take more locks per op).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace ariesim {
namespace {

using benchutil::BenchOptions;
using benchutil::FreshDir;
using benchutil::ProtocolName;

void RunMix(benchmark::State& state, LockingProtocolKind proto) {
  int threads = static_cast<int>(state.range(0));
  auto db = std::move(
      Database::Open(FreshDir(std::string("tp_") + ProtocolName(proto)),
                     BenchOptions())
          .value());
  db->CreateTable("t", 2).value();
  db->CreateIndexWithProtocol("t", "pk", 0, true, proto).value();
  Table* table = db->GetTable("t");
  {
    Transaction* txn = db->Begin();
    for (int i = 0; i < 2000; ++i) {
      (void)table->Insert(txn, {"k" + Random(0).Key(static_cast<uint64_t>(i), 6),
                                "seed"});
    }
    (void)db->Commit(txn);
  }

  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> commits{0}, deadlocks{0};
    benchutil::CommitBreakdownSnap::ResetIn(db.get());
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        Random rnd(1000 + static_cast<uint64_t>(t));
        while (!stop.load()) {
          Transaction* txn = db->Begin();
          bool dead = false;
          for (int op = 0; op < 4 && !dead; ++op) {
            std::string key = "k" + rnd.Key(rnd.Uniform(4000), 6);
            uint32_t dice = static_cast<uint32_t>(rnd.Uniform(100));
            if (dice < 60) {
              std::optional<Row> row;
              Status s = table->FetchByKey(txn, "pk", key, &row);
              if (s.IsDeadlock()) dead = true;
            } else if (dice < 85) {
              Status s = table->Insert(txn, {key, "v"});
              if (s.IsDeadlock()) dead = true;
            } else {
              std::optional<Row> row;
              Rid rid;
              Status s = table->FetchByKey(txn, "pk", key, &row, &rid);
              if (s.IsDeadlock()) {
                dead = true;
              } else if (s.ok() && row.has_value()) {
                s = table->Delete(txn, rid);
                if (s.IsDeadlock()) dead = true;
              }
            }
          }
          if (dead) {
            deadlocks.fetch_add(1);
            (void)db->Rollback(txn);
          } else if (db->Commit(txn).ok()) {
            commits.fetch_add(1);
          }
        }
      });
    }
    auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    stop = true;
    for (auto& t : ts) t.join();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    state.counters["txns_per_sec"] =
        benchmark::Counter(static_cast<double>(commits.load()) / secs);
    state.counters["deadlocks_per_sec"] =
        benchmark::Counter(static_cast<double>(deadlocks.load()) / secs);
    state.counters["lock_waits"] = benchmark::Counter(
        static_cast<double>(db->metrics().lock_waits.load()));
    benchutil::AttachForensics(state, db.get());
    benchutil::AttachCommitBreakdown(state, db.get());
  }
}

void BM_Mix_DataOnly(benchmark::State& s) {
  RunMix(s, LockingProtocolKind::kDataOnly);
}
void BM_Mix_IndexSpecific(benchmark::State& s) {
  RunMix(s, LockingProtocolKind::kIndexSpecific);
}
void BM_Mix_KVL(benchmark::State& s) {
  RunMix(s, LockingProtocolKind::kKeyValue);
}
BENCHMARK(BM_Mix_DataOnly)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Mix_IndexSpecific)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Mix_KVL)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Hot nonunique values: the §1 KVL criticism made measurable.
//
// A nonunique index over a handful of hot category values. Readers fetch a
// key of category C (current-key S lock); writers insert rows of category C.
// Under ARIES/KVL the lock name is the *value* C: a reader's S conflicts
// with every uncommitted inserter's IX on C, serializing the hot value.
// Under data-only (and index-specific) locking each key/RID has its own
// name, so readers and writers of different rows sharing C do not conflict.
// ---------------------------------------------------------------------------

void RunHotValues(benchmark::State& state, LockingProtocolKind proto) {
  int threads = static_cast<int>(state.range(0));
  auto db = std::move(
      Database::Open(FreshDir(std::string("hot_") + ProtocolName(proto)),
                     BenchOptions())
          .value());
  db->CreateTable("t", 2).value();
  db->CreateIndexWithProtocol("t", "by_cat", 1, /*unique=*/false, proto).value();
  Table* table = db->GetTable("t");
  constexpr int kCategories = 8;
  {
    Transaction* txn = db->Begin();
    for (int i = 0; i < 800; ++i) {
      (void)table->Insert(txn, {"row" + std::to_string(i),
                                "cat" + std::to_string(i % kCategories)});
    }
    (void)db->Commit(txn);
  }

  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> commits{0}, deadlocks{0};
    benchutil::CommitBreakdownSnap::ResetIn(db.get());
    std::atomic<uint64_t> next_row{100000};
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        Random rnd(500 + static_cast<uint64_t>(t));
        BTree* ix = db->GetIndex("by_cat");
        while (!stop.load()) {
          Transaction* txn = db->Begin();
          bool dead = false;
          std::string cat = "cat" + std::to_string(rnd.Uniform(kCategories));
          if (rnd.Percent(70)) {
            // Read one key of the hot category.
            FetchResult r;
            Status s = ix->Fetch(txn, cat, FetchCond::kGe, &r);
            if (s.IsDeadlock()) dead = true;
          } else {
            Status s = table->Insert(
                txn, {"row" + std::to_string(next_row.fetch_add(1)), cat});
            if (s.IsDeadlock()) dead = true;
          }
          if (dead) {
            deadlocks.fetch_add(1);
            (void)db->Rollback(txn);
          } else if (db->Commit(txn).ok()) {
            commits.fetch_add(1);
          }
        }
      });
    }
    auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    stop = true;
    for (auto& t : ts) t.join();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    state.counters["txns_per_sec"] =
        benchmark::Counter(static_cast<double>(commits.load()) / secs);
    state.counters["lock_waits"] = benchmark::Counter(
        static_cast<double>(db->metrics().lock_waits.load()));
    state.counters["deadlocks_per_sec"] =
        benchmark::Counter(static_cast<double>(deadlocks.load()) / secs);
    benchutil::AttachForensics(state, db.get());
    benchutil::AttachCommitBreakdown(state, db.get());
  }
}

void BM_HotValues_DataOnly(benchmark::State& s) {
  RunHotValues(s, LockingProtocolKind::kDataOnly);
}
void BM_HotValues_IndexSpecific(benchmark::State& s) {
  RunHotValues(s, LockingProtocolKind::kIndexSpecific);
}
void BM_HotValues_KVL(benchmark::State& s) {
  RunHotValues(s, LockingProtocolKind::kKeyValue);
}
BENCHMARK(BM_HotValues_DataOnly)
    ->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_HotValues_IndexSpecific)
    ->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_HotValues_KVL)
    ->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Commit-throughput sweep: the group-commit experiment, machine-readable.
//
// threads × {group_off, group_on, async} with the log fsync ENABLED — this
// is the one benchmark here that measures the disk, because the commit rule
// is the one place the protocol must wait for it. Each transaction inserts
// one fresh key (disjoint per-thread keyspaces, so commits/s is flush-bound,
// not lock-bound). Emits a JSON array for the bench trajectory:
//
//   ./bench_throughput --commit_json=BENCH_commit.json
//
// (tools/run_commit_bench.sh wraps this.) Without the flag the binary runs
// the usual google-benchmark suites.
// ---------------------------------------------------------------------------

namespace commitbench {

struct CommitRow {
  int threads;
  std::string mode;
  double seconds;
  uint64_t commits;
  uint64_t log_flushes;
  uint64_t gc_batches;
  uint64_t gc_txns;
  HistogramSnapshot commit_lat;  // Metrics::commit_latency over the run
  HistogramSnapshot fsync_lat;   // Metrics::log_flush_latency over the run
  benchutil::CommitBreakdownSnap breakdown;  // per-segment attribution
};

CommitRow RunCommitConfig(int threads, const std::string& mode,
                          int duration_ms) {
  Options o;
  o.buffer_pool_frames = 4096;
  o.fsync_log = true;  // the whole point: commits must pay for durability
  o.index_locking = LockingProtocolKind::kNone;
  o.wal_group_commit = mode != "group_off";
  auto db = std::move(
      Database::Open(FreshDir("commit_" + mode + std::to_string(threads)), o)
          .value());
  db->CreateTable("t", 2).value();
  db->CreateIndex("t", "pk", 0, true).value();
  Table* table = db->GetTable("t");

  Metrics& m = db->metrics();
  uint64_t flushes0 = m.log_flushes.load();
  uint64_t batches0 = m.group_commit_batches.load();
  uint64_t gctxns0 = m.group_commit_txns.load();
  // Histograms cannot be delta'd like the counters above; reset them so the
  // percentiles cover only the measured region (setup commits excluded).
  m.commit_latency.Reset();
  m.log_flush_latency.Reset();
  benchutil::CommitBreakdownSnap::ResetIn(db.get());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> ts;
  auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      uint64_t i = 0;
      const std::string prefix = "t" + std::to_string(t) + "-";
      while (!stop.load(std::memory_order_relaxed)) {
        Transaction* txn = db->Begin();
        Status s = table->Insert(txn, {prefix + std::to_string(i++), "v"});
        if (s.ok()) {
          s = mode == "async" ? db->CommitAsync(txn) : db->Commit(txn);
          if (s.ok()) commits.fetch_add(1, std::memory_order_relaxed);
        } else {
          (void)db->Rollback(txn);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop = true;
  for (auto& t : ts) t.join();
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  (void)db->wal()->FlushAll();  // drain async tails before teardown

  CommitRow row;
  row.threads = threads;
  row.mode = mode;
  row.seconds = secs;
  row.commits = commits.load();
  row.log_flushes = m.log_flushes.load() - flushes0;
  row.gc_batches = m.group_commit_batches.load() - batches0;
  row.gc_txns = m.group_commit_txns.load() - gctxns0;
  row.commit_lat = m.commit_latency.Snapshot();
  row.fsync_lat = m.log_flush_latency.Snapshot();
  row.breakdown = benchutil::CommitBreakdownSnap::Take(db.get());
  return row;
}

int RunCommitSweep(const std::string& json_path) {
  std::vector<CommitRow> rows;
  for (int threads : {1, 2, 4, 8}) {
    for (const char* mode : {"group_off", "group_on", "async"}) {
      CommitRow r = RunCommitConfig(threads, mode, /*duration_ms=*/400);
      double cps = static_cast<double>(r.commits) / r.seconds;
      fprintf(stderr,
              "commit sweep: threads=%d mode=%-9s commits/s=%10.0f "
              "flushes=%llu commit p50/p99=%.0f/%.0fus fsync p50/p99=%.0f/%.0fus "
              "path_p50=%.0fus (%.0f%% of commit p50)\n",
              r.threads, r.mode.c_str(), cps,
              static_cast<unsigned long long>(r.log_flushes),
              r.commit_lat.p50_us(), r.commit_lat.p99_us(),
              r.fsync_lat.p50_us(), r.fsync_lat.p99_us(),
              r.breakdown.PathP50Us(),
              r.commit_lat.p50_us() > 0
                  ? 100.0 * r.breakdown.PathP50Us() / r.commit_lat.p50_us()
                  : 0.0);
      rows.push_back(std::move(r));
    }
  }
  std::ofstream out(json_path);
  if (!out.is_open()) {
    fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const CommitRow& r = rows[i];
    double cps = static_cast<double>(r.commits) / r.seconds;
    double batch = r.gc_batches > 0 ? static_cast<double>(r.gc_txns) /
                                          static_cast<double>(r.gc_batches)
                                    : 0.0;
    out << "  {\"threads\": " << r.threads << ", \"mode\": \"" << r.mode
        << "\", \"seconds\": " << r.seconds << ", \"commits\": " << r.commits
        << ", \"commits_per_sec\": " << static_cast<uint64_t>(cps)
        << ", \"log_flushes\": " << r.log_flushes
        << ", \"group_commit_batches\": " << r.gc_batches
        << ", \"group_commit_txns\": " << r.gc_txns
        << ", \"avg_batch_size\": " << batch
        << ", \"commit_p50_us\": " << r.commit_lat.p50_us()
        << ", \"commit_p95_us\": " << r.commit_lat.p95_us()
        << ", \"commit_p99_us\": " << r.commit_lat.p99_us()
        << ", \"commit_max_us\": " << r.commit_lat.max_us()
        << ", \"fsync_p50_us\": " << r.fsync_lat.p50_us()
        << ", \"fsync_p95_us\": " << r.fsync_lat.p95_us()
        << ", \"fsync_p99_us\": " << r.fsync_lat.p99_us();
    r.breakdown.WriteJsonFields(out);
    out << ", \"path_p50_us\": " << r.breakdown.PathP50Us()
        << ", \"path_p50_share\": "
        << (r.commit_lat.p50_us() > 0
                ? r.breakdown.PathP50Us() / r.commit_lat.p50_us()
                : 0.0)
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace commitbench

}  // namespace
}  // namespace ariesim

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--commit_json", 0) == 0) {
      std::string path = "BENCH_commit.json";
      size_t eq = arg.find('=');
      if (eq != std::string::npos && eq + 1 < arg.size()) {
        path = arg.substr(eq + 1);
      }
      return ariesim::commitbench::RunCommitSweep(path);
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
