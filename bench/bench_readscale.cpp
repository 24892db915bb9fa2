// Read-scaling sweep: a 95/5 fetch/insert mix at 1/2/4/8 threads, run once
// with the optimistic read path (options.optimistic_reads, the default) and
// once with the classic pessimistic latch-coupled descent, emitting
// BENCH_readscale.json for the trajectory alongside BENCH_commit.json:
//
//   ./bench_readscale [--readscale_json=BENCH_readscale.json]
//
// (tools/run_readscale_bench.sh wraps this.) The point under test: the
// pessimistic descent latches every page on the path (~3.0 page-latch
// acquisitions/op measured), each a read-modify-write of that latch word's
// shared cache line, while the optimistic descent only loads the words
// above the leaf to validate their versions and latches just the leaf
// (~1.1/op). Each row carries the latch-wait and read-descent histograms
// plus the olc_* and page_latch_acquisitions counter deltas so the
// mechanism, not just the throughput, is visible — see
// docs/CONCURRENCY.md, "Knobs, metrics, evidence". Locking protocol is
// kNone and the tree is fully cached: the physical (latch) path is
// isolated from the orthogonal logical-lock and I/O paths, which are
// identical in both modes.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/histogram.h"
#include "db/database.h"
#include "util/random.h"

namespace ariesim {
namespace {

using benchutil::FreshDir;

constexpr int kPreloadKeys = 20000;
constexpr int kDurationMs = 400;
constexpr int kReadPercent = 95;

std::string PreKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

struct ReadScaleRow {
  int threads = 0;
  std::string mode;
  double seconds = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t olc_descents = 0;
  uint64_t olc_restarts = 0;
  uint64_t olc_fallbacks = 0;
  uint64_t page_latches = 0;
  HistogramSnapshot latch_wait;    // Metrics::latch_wait_latency over the run
  HistogramSnapshot read_descent;  // Metrics::read_descent_latency over the run
  /// Writer-commit attribution over the measured region (PR 9): in this
  /// fsync-off bench the log_append share should dominate the commit path.
  benchutil::CommitBreakdownSnap breakdown;
};

ReadScaleRow RunConfig(int threads, bool optimistic) {
  Options o = benchutil::BenchOptions();  // 4 KiB pages, 4096 frames, no fsync
  o.index_locking = LockingProtocolKind::kNone;
  o.optimistic_reads = optimistic;
  const std::string mode = optimistic ? "olc" : "pessimistic";
  auto db = std::move(
      Database::Open(FreshDir("readscale_" + mode + std::to_string(threads)),
                     o)
          .value());
  db->CreateTable("t", 1).value();
  BTree* tree = db->CreateIndexWithProtocol("t", "ix", 0, /*unique=*/false,
                                            LockingProtocolKind::kNone)
                    .value();
  {
    Transaction* txn = db->Begin();
    for (int i = 0; i < kPreloadKeys; ++i) {
      Status s = tree->Insert(txn, PreKey(i),
                              Rid{static_cast<PageId>(1 + i / 100),
                                  static_cast<uint16_t>(i % 100)});
      if (!s.ok()) {
        fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
    (void)db->Commit(txn);
  }

  Metrics& m = db->metrics();
  const uint64_t descents0 = m.olc_descents.load();
  const uint64_t restarts0 = m.olc_restarts.load();
  const uint64_t fallbacks0 = m.olc_fallbacks.load();
  const uint64_t latches0 = m.page_latch_acquisitions.load();
  // Histograms cannot be delta'd; reset so percentiles cover the measured
  // region only (the preload excluded).
  m.latch_wait_latency.Reset();
  m.read_descent_latency.Reset();
  benchutil::CommitBreakdownSnap::ResetIn(db.get());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0}, writes{0};
  std::vector<std::thread> ts;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Random rnd(42 + static_cast<uint64_t>(t));
      uint64_t fresh = 0;
      const std::string prefix = "w" + std::to_string(t) + "-";
      // Reads share one long-lived transaction per thread (protocol kNone:
      // no lock state accumulates), so the measured loop is descents, not
      // Begin/Commit bookkeeping; inserts commit individually as real
      // transactions do.
      Transaction* read_txn = db->Begin();
      while (!stop.load(std::memory_order_relaxed)) {
        if (rnd.Percent(kReadPercent)) {
          FetchResult r;
          Status s = tree->Fetch(
              read_txn, PreKey(static_cast<int>(rnd.Uniform(kPreloadKeys))),
              FetchCond::kGe, &r);
          if (s.ok()) reads.fetch_add(1, std::memory_order_relaxed);
        } else {
          Transaction* txn = db->Begin();
          Status s =
              tree->Insert(txn, prefix + std::to_string(fresh++),
                           Rid{static_cast<PageId>(9000 + t),
                               static_cast<uint16_t>(fresh % 1000)});
          if (s.ok()) writes.fetch_add(1, std::memory_order_relaxed);
          (void)db->Commit(txn);
        }
      }
      (void)db->Commit(read_txn);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(kDurationMs));
  stop = true;
  for (auto& th : ts) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ReadScaleRow row;
  row.threads = threads;
  row.mode = mode;
  row.seconds = secs;
  row.reads = reads.load();
  row.writes = writes.load();
  row.olc_descents = m.olc_descents.load() - descents0;
  row.olc_restarts = m.olc_restarts.load() - restarts0;
  row.olc_fallbacks = m.olc_fallbacks.load() - fallbacks0;
  row.page_latches = m.page_latch_acquisitions.load() - latches0;
  row.latch_wait = m.latch_wait_latency.Snapshot();
  row.read_descent = m.read_descent_latency.Snapshot();
  row.breakdown = benchutil::CommitBreakdownSnap::Take(db.get());
  return row;
}

int RunSweep(const std::string& json_path) {
  std::vector<ReadScaleRow> rows;
  for (int threads : {1, 2, 4, 8}) {
    for (bool optimistic : {true, false}) {
      ReadScaleRow r = RunConfig(threads, optimistic);
      double ops =
          static_cast<double>(r.reads + r.writes) / r.seconds;
      fprintf(stderr,
              "readscale: threads=%d mode=%-11s ops/s=%10.0f reads=%llu "
              "olc(descents=%llu restarts=%llu fallbacks=%llu) "
              "latch_waits=%llu descent p50/p99=%.1f/%.1fus\n",
              r.threads, r.mode.c_str(), ops,
              static_cast<unsigned long long>(r.reads),
              static_cast<unsigned long long>(r.olc_descents),
              static_cast<unsigned long long>(r.olc_restarts),
              static_cast<unsigned long long>(r.olc_fallbacks),
              static_cast<unsigned long long>(r.latch_wait.count),
              r.read_descent.p50_us(), r.read_descent.p99_us());
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
    const ReadScaleRow& r = rows[i];
    double ops = static_cast<double>(r.reads + r.writes) / r.seconds;
    out << "  {\"threads\": " << r.threads << ", \"mode\": \"" << r.mode
        << "\", \"seconds\": " << r.seconds << ", \"reads\": " << r.reads
        << ", \"writes\": " << r.writes
        << ", \"ops_per_sec\": " << static_cast<uint64_t>(ops)
        << ", \"olc_descents\": " << r.olc_descents
        << ", \"olc_restarts\": " << r.olc_restarts
        << ", \"olc_fallbacks\": " << r.olc_fallbacks
        << ", \"page_latch_acquisitions\": " << r.page_latches
        << ", \"latch_wait_count\": " << r.latch_wait.count
        << ", \"latch_wait_p50_us\": " << r.latch_wait.p50_us()
        << ", \"latch_wait_p99_us\": " << r.latch_wait.p99_us()
        << ", \"read_descent_count\": " << r.read_descent.count
        << ", \"read_descent_p50_us\": " << r.read_descent.p50_us()
        << ", \"read_descent_p99_us\": " << r.read_descent.p99_us();
    r.breakdown.WriteJsonFields(out);
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ariesim

int main(int argc, char** argv) {
  std::string path = "BENCH_readscale.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--readscale_json", 0) == 0) {
      size_t eq = arg.find('=');
      if (eq != std::string::npos && eq + 1 < arg.size()) {
        path = arg.substr(eq + 1);
      }
    }
  }
  return ariesim::RunSweep(path);
}
