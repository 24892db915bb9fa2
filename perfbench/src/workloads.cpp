#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ariesim::BTree;
using ariesim::FetchCond;
using ariesim::Rid;
using ariesim::TableScan;

// ---------------------------------------------------------------------------
// Workload shapes. BENCHMARK.json describes the same numbers, with the
// loaded page counts that every run prints as loaded_pages.

constexpr int kClients = 4;           // closed-loop clients, one per core
constexpr int kSetups = 3;            // setup_s is the median of this many
constexpr uint64_t kLoadBatch = 250;  // rows per load transaction
constexpr double kSliceS = 0.25;      // traced/untraced alternation (trace=1)

constexpr uint64_t kPointRows = 100000;
constexpr size_t kPointFrames = 8192;  // room for every loaded page
constexpr int kPointWritePct = 5;
constexpr double kZipfTheta = 0.99;

constexpr uint64_t kCommitRows = 10000;
constexpr uint64_t kCrashRequests = 250;  // per client, checkpoint to crash

constexpr uint64_t kScanRows = 400000;
constexpr size_t kScanLoadFrames = 32768;  // load with the data cached ...
constexpr int kScanLength = 50;            // ... then measure at 1024 frames
constexpr int kScanInsertPct = 10;

constexpr uint64_t kLosers = 100;  // inserts of the one loser at the crash
constexpr uint64_t kLoserBase = 90000000000;  // ids above every client's
constexpr uint64_t kFirstCommitId = kLoserBase - 1;

#define PB_TRY(expr)                 \
  do {                               \
    ::ariesim::Status _s = (expr);   \
    if (!_s.ok()) return _s;         \
  } while (0)

using Clients = std::vector<std::unique_ptr<Client>>;

struct Db {
  std::unique_ptr<Database> db;
  Table* table = nullptr;
  BTree* pk = nullptr;
};

/// One set-up database and the clients that drive it.
struct Env {
  std::string dir;
  Db d;
  Clients clients;
  double loaded_pages = 0;  ///< size of data.db after the load, in pages
};

Status OpenDb(const std::string& dir, const Options& o, bool create, Db* out) {
  auto r = Database::Open(dir, o);
  if (!r.ok()) return r.status();
  out->db = std::move(r).value();
  if (create) {
    auto t = out->db->CreateTable("t", 2);
    if (!t.ok()) return t.status();
    auto ix = out->db->CreateIndex("t", "pk", 0, /*unique=*/true);
    if (!ix.ok()) return ix.status();
  }
  out->table = out->db->GetTable("t");
  out->pk = out->db->GetIndex("pk");
  if (out->table == nullptr || out->pk == nullptr) {
    return Status::Corruption("table t or index pk missing in " + dir);
  }
  return Status::OK();
}

void Shuffle(std::vector<uint64_t>* v, Random& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

/// Insert ids [lo, hi) in a seeded random order, `threads` loaders each
/// owning a contiguous slice, kLoadBatch rows per transaction. A batch that
/// loses a deadlock is rolled back and retried.
Status Load(Db& d, uint64_t lo, uint64_t hi, uint64_t seed, int threads) {
  std::vector<Status> st(static_cast<size_t>(threads));
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      const uint64_t a = lo + (hi - lo) * uint64_t(t) / uint64_t(threads);
      const uint64_t b = lo + (hi - lo) * uint64_t(t + 1) / uint64_t(threads);
      std::vector<uint64_t> ids(b - a);
      std::iota(ids.begin(), ids.end(), a);
      Random rng(seed * 7919 + uint64_t(t));
      Shuffle(&ids, rng);
      for (size_t i = 0; i < ids.size(); i += kLoadBatch) {
        const size_t end = std::min(ids.size(), i + kLoadBatch);
        for (int attempt = 0;; ++attempt) {
          Transaction* txn = d.db->Begin();
          Status s;
          for (size_t j = i; j < end && s.ok(); ++j) {
            s = d.table->Insert(txn, RowOf(ids[j], 0));
          }
          if (s.ok()) {
            s = d.db->Commit(txn);
            if (!s.ok()) st[size_t(t)] = s;
            break;
          }
          (void)d.db->Rollback(txn);
          if (!s.IsDeadlock() || attempt == 20) {
            st[size_t(t)] = s;
            return;
          }
        }
        if (!st[size_t(t)].ok()) return;
      }
    });
  }
  for (auto& th : ts) th.join();
  for (const Status& s : st) PB_TRY(s);
  return Status::OK();
}

/// Run `build` in a child process and wait for it. What the child allocates
/// (a load pool larger than the measured one, the loaders' buffers) stays
/// out of this process's peak RSS. No database may be open here, so the
/// calling thread is the only one the child inherits; the child dies with
/// this process.
Status InChild(const std::function<Status()>& build) {
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const Status s = ::getppid() == parent ? build() : Status::IOError("orphaned");
    if (!s.ok()) std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    std::fflush(stderr);
    ::_exit(s.ok() ? 0 : 1);
  }
  int ws = 0;
  if (::waitpid(pid, &ws, 0) != pid || !WIFEXITED(ws) || WEXITSTATUS(ws) != 0) {
    return Status::IOError("load process failed");
  }
  return Status::OK();
}

Clients MakeClients(uint64_t seed) {
  Clients cs;
  for (int i = 0; i < kClients; ++i) {
    cs.push_back(std::make_unique<Client>(i, seed, Client::kSampleCap));
  }
  return cs;
}

/// Create env->dir and load ids [0, rows) into it with `load_opts` in a
/// child process, flushed and checkpointed so that opening it needs no
/// redo; then open it here with `run_opts` and make the clients.
Status LoadAndOpen(const RunArgs& a, uint64_t rows, const Options& load_opts,
                   const Options& run_opts, Env* env) {
  const Status loaded = InChild([&]() -> Status {
    Db d;
    PB_TRY(OpenDb(env->dir, load_opts, /*create=*/true, &d));
    PB_TRY(Load(d, 0, rows, a.seed, kClients));
    PB_TRY(d.db->FlushAllPages());
    return d.db->Checkpoint();
  });
  if (!loaded.ok()) return loaded;
  std::error_code ec;
  const auto bytes = fs::file_size(env->dir + "/data.db", ec);
  env->loaded_pages = ec ? 0 : double(bytes) / double(run_opts.page_size);
  PB_TRY(OpenDb(env->dir, run_opts, /*create=*/false, &env->d));
  env->clients = MakeClients(a.seed);
  return Status::OK();
}

Status Mismatch(Client& c, std::string what) {
  if (c.error.empty()) c.error = std::move(what);
  return Status::Corruption("wrong result");
}

// ---------------------------------------------------------------------------
// Requests. A request is one transaction: Begin, its statements, Commit. Its
// latency runs from Begin until Commit returns; key and row generation
// happen before it starts.

/// Like any client of a locking engine, a request that loses a deadlock is
/// rolled back and retried; its latency includes every attempt.
template <typename Body>
bool Txn(Client& c, Database* db, bool traced, ReqKind kind, Body&& body) {
  constexpr int kMaxAttempts = 20;
  const uint64_t t0 = NowNs();
  c.trace.BeginRequest(traced, t0);
  for (int attempt = 1;; ++attempt) {
    Transaction* txn = c.trace.Time(Span::kBegin, [&] { return db->Begin(); });
    Status s = body(txn);
    if (s.ok()) {
      const uint64_t c0 = NowNs();
      s = db->Commit(txn);
      const uint64_t c1 = NowNs();
      c.trace.Record(Span::kCommit, c0, c1);
      c.trace.EndRequest(c1);
      if (s.ok()) {
        c.RecordOk(kind, c1 - t0, c1 - c0);
        return true;
      }
      ++c.failed;
      Mismatch(c, "commit failed: " + s.ToString());
      return false;
    }
    c.trace.Time(Span::kRollback, [&] { return db->Rollback(txn); });
    if (!s.IsDeadlock() || attempt == kMaxAttempts) break;
    ++c.rollbacks;
  }
  c.trace.EndRequest(NowNs());
  ++c.failed;
  return false;
}

Status FetchChecked(Client& c, Db& d, Transaction* txn, uint64_t id,
                    const std::string& key, Rid* rid) {
  std::optional<Row> row;
  PB_TRY(c.trace.Time(Span::kFetchByKey, [&] {
    return d.table->FetchByKey(txn, "pk", key, &row, rid);
  }));
  if (!row.has_value() || !RowMatches(*row, id)) {
    return Mismatch(c, "fetch of " + key + " returned a wrong row");
  }
  return Status::OK();
}

void ReadRequest(Client& c, Db& d, bool traced, uint64_t id) {
  const std::string key = KeyOf(id);
  Txn(c, d.db.get(), traced, ReqKind::kRead, [&](Transaction* txn) {
    return FetchChecked(c, d, txn, id, key, nullptr);
  });
}

void UpdateRequest(Client& c, Db& d, bool traced, uint64_t id) {
  const Row next = RowOf(id, c.rng.Next());
  Txn(c, d.db.get(), traced, ReqKind::kWrite, [&](Transaction* txn) {
    Rid rid;
    PB_TRY(FetchChecked(c, d, txn, id, next[0], &rid));
    return c.trace.Time(Span::kUpdate,
                        [&] { return d.table->Update(txn, rid, next); });
  });
}

/// Insert the client's next new row: ids first_new + client + k*kClients.
void InsertRequest(Client& c, Db& d, bool traced, uint64_t first_new) {
  const uint64_t id = first_new + uint64_t(c.id) + kClients * c.inserts_issued++;
  const Row row = RowOf(id, 0);
  const bool ok = Txn(c, d.db.get(), traced, ReqKind::kWrite, [&](Transaction* txn) {
    return c.trace.Time(Span::kInsert,
                        [&] { return d.table->Insert(txn, row); });
  });
  if (ok) c.acked_inserts.push_back(id);
}

/// Scan kScanLength rows upward from `start`; every row must decode, match
/// its key, and come in strictly ascending key order.
void ScanRequest(Client& c, Db& d, bool traced, uint64_t start) {
  const std::string from = KeyOf(start);
  uint64_t rows = 0;
  const bool ok = Txn(c, d.db.get(), traced, ReqKind::kScan, [&](Transaction* txn) {
    TableScan scan(d.table, d.pk);
    PB_TRY(c.trace.Time(Span::kScanOpen,
                        [&] { return scan.Open(txn, from, FetchCond::kGe); }));
    uint64_t prev = start;
    for (int i = 0; i < kScanLength; ++i) {
      Row row;
      bool done = false;
      PB_TRY(c.trace.Time(Span::kScanNext,
                          [&] { return scan.Next(txn, &row, nullptr, &done); }));
      if (done) break;
      uint64_t id = 0;
      if (row.empty() || !ParseKey(row[0], &id) || !RowMatches(row, id) ||
          id < prev || (i > 0 && id == prev)) {
        return Mismatch(c, "scan from " + from + " returned a wrong row");
      }
      prev = id;
      ++rows;
    }
    return Status::OK();
  });
  if (ok) c.rows_scanned += rows;
}

// ---------------------------------------------------------------------------
// Driving the clients.

/// Every client makes `n` requests back to back, the clients in parallel:
/// request(client, i) for i in [0, n).
template <typename Fn>
void RunEach(Clients& clients, uint64_t n, Fn&& request) {
  std::vector<std::thread> ts;
  for (auto& c : clients) {
    ts.emplace_back([&, cp = c.get()] {
      for (uint64_t i = 0; i < n; ++i) request(*cp, i);
    });
  }
  for (auto& th : ts) th.join();
}

uint64_t FailedOf(const Clients& clients) {
  uint64_t n = 0;
  for (const auto& c : clients) n += c->failed;
  return n;
}

struct LoopStats {
  double seconds = 0;
  double traced_s = 0, untraced_s = 0;
  uint64_t ok = 0, failed = 0, traced_ok = 0;

  /// Throughput lost while requests were traced, relative to untraced.
  double TraceOverhead() const {
    const uint64_t untraced_ok = ok - traced_ok;
    if (traced_s <= 0 || untraced_s <= 0 || untraced_ok == 0) return 0;
    return 1.0 - (double(traced_ok) / traced_s) /
                     (double(untraced_ok) / untraced_s);
  }
};

/// Every client runs `request(client, traced)` back to back until `seconds`
/// have passed. With `trace`, requests alternate between untraced and
/// traced slices of kSliceS, so one run yields the tracing overhead.
template <typename Fn>
LoopStats ClosedLoop(Clients& clients, double seconds, bool trace, Fn&& request) {
  std::vector<uint64_t> ok0, failed0, traced0;
  for (auto& c : clients) {
    ok0.push_back(c->ok);
    failed0.push_back(c->failed);
    traced0.push_back(c->traced_ok);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> phase{0};  // odd = traced slice
  LoopStats st;
  const uint64_t t0 = NowNs();
  std::vector<std::thread> ts;
  for (auto& c : clients) {
    ts.emplace_back([&, cp = c.get()] {
      while (!stop.load(std::memory_order_relaxed)) {
        const bool traced = trace && (phase.load(std::memory_order_relaxed) & 1);
        const uint64_t before = cp->ok;
        request(*cp, traced);
        if (traced && cp->ok != before) ++cp->traced_ok;
      }
    });
  }
  const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t slice = trace ? static_cast<uint64_t>(kSliceS * 1e9) : end - t0;
  for (int i = 0;; ++i) {
    const uint64_t s0 = NowNs();
    if (s0 >= end) break;
    phase.store(i, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min(slice, end - s0)));
    ((i & 1) ? st.traced_s : st.untraced_s) += double(NowNs() - s0) / 1e9;
  }
  stop.store(true);
  for (auto& th : ts) th.join();
  st.seconds = double(NowNs() - t0) / 1e9;
  for (size_t i = 0; i < clients.size(); ++i) {
    st.ok += clients[i]->ok - ok0[i];
    st.failed += clients[i]->failed - failed0[i];
    st.traced_ok += clients[i]->traced_ok - traced0[i];
  }
  return st;
}

// ---------------------------------------------------------------------------
// Checks.

/// BTree::Validate passes, the index holds exactly the ids in `expected`
/// (sorted), and every row of `fetch` reads back and matches its key.
void VerifyTable(Db& d, const std::vector<uint64_t>& expected,
                 const std::vector<uint64_t>& fetch, const std::string& when,
                 Report* r) {
  size_t keys = 0;
  Status s = d.pk->Validate(&keys);
  if (!s.ok()) {
    r->Error(when + ": BTree::Validate: " + s.ToString());
    return;
  }
  std::vector<std::pair<std::string, Rid>> all;
  s = d.pk->CollectAll(&all);
  if (!s.ok()) {
    r->Error(when + ": collecting index keys: " + s.ToString());
    return;
  }
  if (all.size() != expected.size() || keys != expected.size()) {
    r->Error(when + ": index holds " + std::to_string(all.size()) +
             " keys, expected " + std::to_string(expected.size()));
    return;
  }
  for (size_t i = 0; i < all.size(); ++i) {
    uint64_t id = 0;
    if (!ParseKey(all[i].first, &id) || id != expected[i]) {
      r->Error(when + ": unexpected key " + all[i].first);
      return;
    }
  }
  Client checker(0, 0, 0);
  for (size_t i = 0; i < fetch.size(); i += 500) {
    Transaction* txn = d.db->Begin();
    for (size_t j = i; j < std::min(fetch.size(), i + 500) && s.ok(); ++j) {
      s = FetchChecked(checker, d, txn, fetch[j], KeyOf(fetch[j]), nullptr);
    }
    if (!s.ok()) {
      (void)d.db->Rollback(txn);
      r->Error(when + ": " + (checker.error.empty() ? s.ToString() : checker.error));
      return;
    }
    if (s = d.db->Commit(txn); !s.ok()) {
      r->Error(when + ": commit of a read-back: " + s.ToString());
      return;
    }
  }
}

/// The ids a closed-loop table must hold: [0, preload) plus every
/// acknowledged insert.
std::vector<uint64_t> ExpectedIds(uint64_t preload, const Clients& clients) {
  std::vector<uint64_t> ids(preload);
  std::iota(ids.begin(), ids.end(), 0);
  for (const auto& c : clients) {
    ids.insert(ids.end(), c->acked_inserts.begin(), c->acked_inserts.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Rows to read back after the run: every acknowledged insert plus a seeded
/// sample of the preload.
std::vector<uint64_t> FetchSample(uint64_t preload, const Clients& clients,
                                  uint64_t seed) {
  std::vector<uint64_t> ids;
  Random rng(seed ^ 0x5eedull);
  for (int i = 0; i < 2000; ++i) ids.push_back(rng.Uniform(preload));
  for (const auto& c : clients) {
    ids.insert(ids.end(), c->acked_inserts.begin(), c->acked_inserts.end());
  }
  return ids;
}

// ---------------------------------------------------------------------------
// Reporting.

std::vector<uint32_t> Sorted(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::string QuantileNote(const Quantile& q) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g of %zu", q.q * 100.0, q.n);
  return buf;
}

/// `<prefix>_p50_us` and `<prefix>_p99_us` of `sorted` (nanoseconds). Only
/// a p50 of the end-to-end set goes into the JSON result: on a shared 4-vCPU
/// host the p99s spread too much between runs to carry a bound.
void Percentiles(Report* r, bool e2e, const std::string& prefix,
                 const std::vector<uint32_t>& sorted) {
  const Quantile p50 = ExactQuantile(sorted, 0.50);
  const Quantile p99 = ExactQuantile(sorted, 0.99);
  (r->*(e2e ? &Report::E2E : &Report::Extra))(prefix + "_p50_us", p50.us(),
                                               "us", QuantileNote(p50));
  r->Extra(prefix + "_p99_us", p99.us(), "us", QuantileNote(p99));
}

/// Recovery figures for the per-layer report (zero where a workload runs
/// no restart).
struct RecoveryFigures {
  double analysis_ms = 0, redo_ms = 0, undo_ms = 0;
  double redo_applied = 0, undo_records = 0;
  double instant_open_ms = 0, pages_recovered_lazily = 0;
  double lazy_replay_p99_us = 0, lazy_chain_fallbacks = 0;
};

RecoveryFigures FromRestartStats(const ariesim::RestartStats& rs) {
  RecoveryFigures f;
  f.analysis_ms = double(rs.analysis_us) / 1e3;
  f.redo_ms = double(rs.redo_us) / 1e3;
  f.undo_ms = double(rs.undo_us) / 1e3;
  f.redo_applied = double(rs.redo_applied);
  f.undo_records = double(rs.undo_records);
  return f;
}

std::vector<uint32_t> SpanDurations(std::vector<Tracer*> tracers, Span k) {
  std::vector<uint32_t> all;
  for (Tracer* t : tracers) {
    const auto& d = t->durations(k);
    all.insert(all.end(), d.begin(), d.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

/// Every per-layer metric, in BENCHMARK.json order.
void PerLayer(Report* r, const EngineDelta& d, double ops,
              std::vector<Tracer*> tracers, const RecoveryFigures& rec,
              double data_bytes_per_user_byte, double trace_overhead) {
  auto span = [&](const char* name, Span k, double q) {
    const Quantile v = ExactQuantile(SpanDurations(tracers, k), q);
    r->Layer(name, v.us(), "us", QuantileNote(v));
  };
  auto per_op = [&](const char* name, Counter c) {
    r->Layer(name, ops > 0 ? double(d.count(c)) / ops : 0, "1/op");
  };
  auto per_kop = [&](const char* name, double n) {
    r->Layer(name, ops > 0 ? n * 1000.0 / ops : 0, "1/kop");
  };
  auto hist = [&](const char* name, Hist h, double q) {
    r->Layer(name, d.quantile_us(h, q), "us",
             std::to_string(d.samples(h)) + " samples");
  };

  span("txn.begin_p50_us", Span::kBegin, 0.5);
  span("txn.commit_p50_us", Span::kCommit, 0.5);
  span("txn.commit_p99_us", Span::kCommit, 0.99);
  hist("txn.commit_wakeup_p50_us", H_commit_seg_wakeup, 0.5);

  span("db.fetch_by_key_p50_us", Span::kFetchByKey, 0.5);
  span("db.fetch_by_key_p99_us", Span::kFetchByKey, 0.99);
  span("db.update_p50_us", Span::kUpdate, 0.5);
  span("db.insert_p50_us", Span::kInsert, 0.5);
  span("db.insert_p99_us", Span::kInsert, 0.99);
  span("db.scan_open_p50_us", Span::kScanOpen, 0.5);
  span("db.scan_next_p50_us", Span::kScanNext, 0.5);
  span("db.request_self_p50_us", Span::kRequestSelf, 0.5);

  per_op("lock.requests_per_op", C_lock_requests);
  per_kop("lock.waits_per_kop", double(d.count(C_lock_waits)));
  hist("lock.wait_p99_us", H_lock_wait_latency, 0.99);
  per_kop("lock.conditional_denied_per_kop",
          double(d.count(C_lock_conditional_denied)));
  r->Layer("lock.deadlocks", double(d.count(C_deadlocks)), "count");

  per_op("buffer.page_latches_per_op", C_page_latch_acquisitions);
  per_kop("buffer.latch_waits_per_kop", double(d.samples(H_latch_wait_latency)));
  hist("buffer.latch_wait_p99_us", H_latch_wait_latency, 0.99);
  per_op("buffer.misses_per_op", C_pages_read);
  hist("buffer.miss_p50_us", H_page_miss_latency, 0.5);
  hist("buffer.miss_p99_us", H_page_miss_latency, 0.99);
  per_op("buffer.writebacks_per_op", C_pages_written);

  hist("btree.descent_p50_us", H_read_descent_latency, 0.5);
  hist("btree.descent_p99_us", H_read_descent_latency, 0.99);
  const double olc_attempts = double(d.count(C_olc_descents) +
                                     d.count(C_olc_restarts) +
                                     d.count(C_olc_fallbacks));
  r->Layer("btree.olc_success_frac",
           olc_attempts > 0 ? double(d.count(C_olc_descents)) / olc_attempts : 0,
           "frac");
  per_kop("btree.olc_restarts_per_kop", double(d.count(C_olc_restarts)));
  per_kop("btree.backoffs_per_kop", double(d.count(C_btree_backoffs)));
  per_kop("btree.traversal_restarts_per_kop",
          double(d.count(C_traversal_restarts)));
  per_kop("btree.splits_per_kop", double(d.count(C_smo_splits)));
  hist("btree.smo_p99_us", H_smo_latency, 0.99);
  per_kop("btree.smo_waits_per_kop", double(d.count(C_smo_waits)));
  hist("btree.tree_latch_hold_p99_us", H_tree_latch_hold_latency, 0.99);

  r->Layer("wal.log_bytes_per_op",
           ops > 0 ? double(d.count(C_log_bytes)) / ops : 0, "B/op");
  per_op("wal.records_per_op", C_log_records);
  per_kop("wal.flushes_per_kop", double(d.count(C_log_flushes)));
  const uint64_t batches = d.count(C_group_commit_batches);
  r->Layer("wal.batch_size",
           batches > 0 ? double(d.count(C_group_commit_txns)) / double(batches) : 0,
           "txn");
  hist("wal.append_p50_us", H_commit_seg_log_append, 0.5);
  hist("wal.append_p99_us", H_commit_seg_log_append, 0.99);
  hist("wal.queue_wait_p50_us", H_commit_seg_queue_wait, 0.5);
  hist("wal.batch_write_p50_us", H_commit_seg_batch_write, 0.5);
  hist("wal.fsync_p50_us", H_commit_seg_fsync, 0.5);
  hist("wal.fsync_p99_us", H_commit_seg_fsync, 0.99);

  r->Layer("storage.data_bytes_per_user_byte", data_bytes_per_user_byte, "ratio");
  r->Layer("storage.io_retries", double(d.count(C_io_retries)), "count");

  r->Layer("recovery.analysis_ms", rec.analysis_ms, "ms");
  r->Layer("recovery.redo_ms", rec.redo_ms, "ms");
  r->Layer("recovery.undo_ms", rec.undo_ms, "ms");
  r->Layer("recovery.redo_applied", rec.redo_applied, "count");
  r->Layer("recovery.undo_records", rec.undo_records, "count");
  r->Layer("recovery.instant_open_ms", rec.instant_open_ms, "ms");
  r->Layer("recovery.pages_recovered_lazily", rec.pages_recovered_lazily, "count");
  r->Layer("recovery.lazy_replay_p99_us", rec.lazy_replay_p99_us, "us");
  r->Layer("recovery.lazy_chain_fallbacks", rec.lazy_chain_fallbacks, "count");

  r->Layer("trace.overhead_frac", trace_overhead, "frac");
}

/// Bytes of the data file per byte of live user data (key + value).
double StorageRatio(const std::string& dir, uint64_t rows) {
  std::error_code ec;
  const auto bytes = fs::file_size(dir + "/data.db", ec);
  if (ec || rows == 0) return 0;
  return double(bytes) / double(rows * (KeyOf(0).size() + kValueBytes));
}

/// Chrome trace_event JSON (loadable in Perfetto) of the kept spans.
void WriteTrace(const std::string& path, const std::vector<Tracer*>& tracers) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  uint64_t origin = UINT64_MAX;
  for (Tracer* t : tracers) {
    for (const SpanRecord& s : t->kept()) origin = std::min(origin, s.start_ns);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (size_t tid = 0; tid < tracers.size(); ++tid) {
    for (const SpanRecord& s : tracers[tid]->kept()) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << SpanName(s.kind)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << double(s.start_ns - origin) / 1e3
          << ",\"dur\":" << double(s.dur_ns) / 1e3
          << ",\"args\":{\"request\":" << s.request << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

std::vector<Tracer*> TracersOf(Clients& clients) {
  std::vector<Tracer*> ts;
  for (auto& c : clients) ts.push_back(&c->trace);
  return ts;
}

/// Set the workload up kSetups times; keep the last. Returns setup_s.
Status SetUpRepeatedly(const RunArgs& a,
                       const std::function<Status(Env*)>& setup, Env* out,
                       double* setup_s) {
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    Env e;
    e.dir = a.dir + "/" + a.workload + "-" + std::to_string(i);
    fs::remove_all(e.dir);
    const uint64_t t0 = NowNs();
    Status s = setup(&e);
    times.push_back(double(NowNs() - t0) / 1e9);
    if (!s.ok()) return s;
    if (i + 1 == kSetups) {
      *out = std::move(e);
    } else {
      const std::string dir = e.dir;
      e = Env();
      fs::remove_all(dir);
      malloc_trim(0);  // so peak RSS is one setup's, not the sum of several
    }
  }
  *setup_s = Median(times);
  return Status::OK();
}

/// A set-up workload: its preload and its request mix.
struct ClosedLoopSpec {
  uint64_t preload = 0;
  std::function<void(Client&, Db&, bool)> request;
  /// Post-run checks beyond VerifyTable; may crash and reopen the database.
  std::function<void(Env&, Report*, RecoveryFigures*)> check;
};

/// Measure a set-up workload, check its results and report it.
void RunClosedLoopWorkload(const RunArgs& a, Env& e, double setup_s,
                           const ClosedLoopSpec& spec, Report* r) {
  // Peak RSS of open and warm-up. The load ran in a child process, the
  // sample buffers are not touched yet, and the run, whose memory grows
  // with the work it does, is left out.
  const double rss = PeakRssMb();
  for (auto& c : e.clients) c->recording = true;
  const EngineSnap before = EngineSnap::Take(e.d.db->metrics());
  const LoopStats loop = ClosedLoop(
      e.clients, a.seconds, a.trace,
      [&](Client& c, bool traced) { spec.request(c, e.d, traced); });
  EngineDelta engine;
  engine.Add(before, EngineSnap::Take(e.d.db->metrics()));

  // Client samples by request kind.
  std::vector<uint32_t> op, read, write, scan, commit;
  uint64_t rows_scanned = 0, rollbacks = 0;
  for (auto& c : e.clients) {
    c->recording = false;
    for (size_t i = 0; i < c->op_ns.size(); ++i) {
      op.push_back(c->op_ns[i]);
      commit.push_back(c->commit_ns[i]);
      switch (c->kinds[i]) {
        case ReqKind::kRead: read.push_back(c->op_ns[i]); break;
        case ReqKind::kWrite: write.push_back(c->op_ns[i]); break;
        case ReqKind::kScan: scan.push_back(c->op_ns[i]); break;
      }
    }
    rows_scanned += c->rows_scanned;
    rollbacks += c->rollbacks;
  }

  // Checks: the live tree, then the workload's own (which may restart).
  VerifyTable(e.d, ExpectedIds(spec.preload, e.clients),
              FetchSample(spec.preload, e.clients, a.seed), "after the run", r);
  RecoveryFigures rec;
  if (spec.check && r->errors.empty()) spec.check(e, r, &rec);
  for (auto& c : e.clients) {
    if (!c->error.empty()) {
      r->Error("client " + std::to_string(c->id) + ": " + c->error);
    }
  }
  e.d = Db();  // clean shutdown: checkpoint + flush, so the file is complete
  const double storage =
      StorageRatio(e.dir, ExpectedIds(spec.preload, e.clients).size());

  r->attempted = loop.ok + loop.failed;
  r->failed = loop.failed;

  r->E2E("setup_s", setup_s, "s", "median of " + std::to_string(kSetups));
  r->E2E("ops_per_s", double(loop.ok) / loop.seconds, "1/s");
  Percentiles(r, true, "op", Sorted(op));
  Percentiles(r, true, "write", Sorted(write));
  Percentiles(r, true, "commit", Sorted(commit));
  r->E2E("peak_rss_mb", rss, "MiB", "through open and warm-up");
  if (!read.empty()) Percentiles(r, false, "read", Sorted(read));
  if (!scan.empty()) {
    Percentiles(r, false, "scan", Sorted(scan));
    r->Extra("scan_rows_per_s", double(rows_scanned) / loop.seconds, "1/s");
  }
  // Failed requests plus retried deadlock victims, over transaction attempts.
  r->Extra("failed_ops_frac",
           double(r->failed + rollbacks) / double(r->attempted + rollbacks),
           "frac", std::to_string(rollbacks) + " deadlock retries");
  r->Extra("loaded_pages", e.loaded_pages, "pages", "data.db after the load");
  if (a.trace) {
    PerLayer(r, engine, double(loop.ok), TracersOf(e.clients), rec, storage,
             loop.TraceOverhead());
    WriteTrace(a.trace_file, TracersOf(e.clients));
  }
}

// ---------------------------------------------------------------------------
// point_read: YCSB-B over a cached table.

void PointRead(const RunArgs& a, Report* r) {
  const ScrambledZipfian zipf(kPointRows, kZipfTheta);
  Options o;
  o.fsync_log = false;
  o.buffer_pool_frames = kPointFrames;
  Env e;
  double setup_s = 0;
  Status s = SetUpRepeatedly(a, [&](Env* env) {
    PB_TRY(LoadAndOpen(a, kPointRows, o, o, env));
    // Warm-up: one read pass over every key.
    RunEach(env->clients, kPointRows / kClients, [&](Client& c, uint64_t i) {
      ReadRequest(c, env->d, false, i * kClients + uint64_t(c.id));
    });
    for (auto& c : env->clients) {
      if (c->failed > 0) return Status::Corruption("warm-up read failed: " + c->error);
    }
    return Status::OK();
  }, &e, &setup_s);
  if (!s.ok()) return r->Error("setup: " + s.ToString());

  ClosedLoopSpec spec;
  spec.preload = kPointRows;
  spec.request = [&](Client& c, Db& d, bool traced) {
    const uint64_t id = zipf.Next(c.rng);
    if (c.rng.Uniform(100) < kPointWritePct) {
      UpdateRequest(c, d, traced, id);
    } else {
      ReadRequest(c, d, traced, id);
    }
  };
  RunClosedLoopWorkload(a, e, setup_s, spec, r);
}

// ---------------------------------------------------------------------------
// commit_bound: durable single-row writes with engine defaults, then a crash
// and both kinds of restart.

/// Copy directory `from` to `to` and make the copy durable, so that writing
/// the copy back is not charged to the restart that opens it.
Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) return Status::IOError("copy " + from + ": " + ec.message());
  for (const auto& entry : fs::directory_iterator(to)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    const bool ok = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!ok) return Status::IOError("fsync " + entry.path().string());
  }
  return Status::OK();
}

/// A crash image of the same size whatever the run's throughput: the run's
/// pages are flushed and checkpointed, every client then makes
/// kCrashRequests more acknowledged requests whose pages stay dirty, and one
/// loser's inserts reach the log. A copy restarts classically; the original
/// restarts instantly and commits once. Both must hold exactly the
/// acknowledged rows.
void CrashAndRestart(const RunArgs& a, const Options& o,
                     const std::function<void(Client&, Db&, bool)>& request,
                     Env& env, Report* r, RecoveryFigures* rec) {
  if (Status s = env.d.db->FlushAllPages(); !s.ok()) {
    return r->Error("flush before the crash: " + s.ToString());
  }
  if (Status s = env.d.db->Checkpoint(); !s.ok()) {
    return r->Error("checkpoint before the crash: " + s.ToString());
  }
  const uint64_t failed = FailedOf(env.clients);
  RunEach(env.clients, kCrashRequests,
          [&](Client& c, uint64_t) { request(c, env.d, false); });
  if (FailedOf(env.clients) != failed) {
    return r->Error("a request between the checkpoint and the crash failed");
  }
  Transaction* loser = env.d.db->Begin();
  for (uint64_t i = 0; i < kLosers; ++i) {
    if (Status s = env.d.table->Insert(loser, RowOf(kLoserBase + i, 0)); !s.ok()) {
      return r->Error("loser insert: " + s.ToString());
    }
  }
  if (Status s = env.d.db->wal()->FlushAll(); !s.ok()) {
    return r->Error("log flush: " + s.ToString());
  }
  env.d.db->SimulateCrash();
  env.d = Db();
  const std::string copy = env.dir + "-classic";
  if (Status s = CopyDir(env.dir, copy); !s.ok()) return r->Error(s.ToString());
  std::vector<uint64_t> expected = ExpectedIds(kCommitRows, env.clients);
  std::vector<uint64_t> sample = FetchSample(kCommitRows, env.clients, a.seed);

  Db classic;
  uint64_t t0 = NowNs();
  Status s = OpenDb(copy, o, /*create=*/false, &classic);
  if (!s.ok()) return r->Error("classic restart: " + s.ToString());
  r->Extra("restart_open_ms", double(NowNs() - t0) / 1e6, "ms", "classic");
  *rec = FromRestartStats(classic.db->restart_stats());
  VerifyTable(classic, expected, sample, "after classic restart", r);
  classic = Db();
  fs::remove_all(copy);

  Options instant = o;
  instant.instant_restart = true;
  t0 = NowNs();
  s = OpenDb(env.dir, instant, /*create=*/false, &env.d);
  const uint64_t t1 = NowNs();
  if (!s.ok()) return r->Error("instant restart: " + s.ToString());
  Transaction* txn = env.d.db->Begin();
  s = env.d.table->Insert(txn, RowOf(kFirstCommitId, 0));
  if (s.ok()) s = env.d.db->Commit(txn);
  const uint64_t t2 = NowNs();
  if (!s.ok()) return r->Error("first commit after instant restart: " + s.ToString());
  r->Extra("ttfc_ms", double(t2 - t0) / 1e6, "ms", "instant restart + 1 commit");
  EngineDelta since_open;
  since_open.Add(EngineSnap(), EngineSnap::Take(env.d.db->metrics()));
  rec->instant_open_ms = double(t1 - t0) / 1e6;
  rec->pages_recovered_lazily = double(since_open.count(C_pages_recovered_lazily));
  rec->lazy_replay_p99_us = since_open.quantile_us(H_lazy_replay_latency, 0.99);
  rec->lazy_chain_fallbacks = double(since_open.count(C_lazy_chain_fallbacks));
  expected.push_back(kFirstCommitId);
  std::sort(expected.begin(), expected.end());
  sample.push_back(kFirstCommitId);
  VerifyTable(env.d, expected, sample, "after instant restart", r);
}

void CommitBound(const RunArgs& a, Report* r) {
  const Options o;  // fsync_log, group commit: all defaults
  Env e;
  double setup_s = 0;
  Status s = SetUpRepeatedly(a, [&](Env* env) {
    return LoadAndOpen(a, kCommitRows, o, o, env);
  }, &e, &setup_s);
  if (!s.ok()) return r->Error("setup: " + s.ToString());

  ClosedLoopSpec spec;
  spec.preload = kCommitRows;
  spec.request = [&](Client& c, Db& d, bool traced) {
    if (c.rng.Uniform(2) == 0) {
      InsertRequest(c, d, traced, kCommitRows);
    } else {
      UpdateRequest(c, d, traced, c.rng.Uniform(kCommitRows));
    }
  };
  spec.check = [&](Env& env, Report* rep, RecoveryFigures* rec) {
    CrashAndRestart(a, o, spec.request, env, rep, rec);
  };
  RunClosedLoopWorkload(a, e, setup_s, spec, r);
}

// ---------------------------------------------------------------------------
// scan_cold: short range scans over a table many times the buffer pool.

void ScanCold(const RunArgs& a, Report* r) {
  Options load_opts;
  load_opts.fsync_log = false;
  load_opts.buffer_pool_frames = kScanLoadFrames;
  Options o = load_opts;
  o.buffer_pool_frames = Options().buffer_pool_frames;
  Env e;
  double setup_s = 0;
  auto request = [&](Client& c, Db& d, bool traced) {
    if (c.rng.Uniform(100) < kScanInsertPct) {
      InsertRequest(c, d, traced, kScanRows);
    } else {
      ScanRequest(c, d, traced, c.rng.Uniform(kScanRows));
    }
  };
  Status s = SetUpRepeatedly(a, [&](Env* env) {
    // Load in random key order with the data cached, then measure at the
    // default pool size.
    PB_TRY(LoadAndOpen(a, kScanRows, load_opts, o, env));
    // Warm-up: run the mix until misses per request level off.
    double prev = -1;
    for (int w = 0; w < 12; ++w) {
      const EngineSnap before = EngineSnap::Take(env->d.db->metrics());
      const LoopStats st = ClosedLoop(env->clients, 0.25, false,
                                      [&](Client& c, bool) { request(c, env->d, false); });
      EngineDelta d;
      d.Add(before, EngineSnap::Take(env->d.db->metrics()));
      if (st.failed > 0) return Status::Corruption("warm-up request failed");
      const double misses =
          double(d.count(C_pages_read)) / double(std::max<uint64_t>(st.ok, 1));
      if (prev > 0 && std::fabs(misses - prev) <= 0.05 * prev) break;
      prev = misses;
    }
    return Status::OK();
  }, &e, &setup_s);
  if (!s.ok()) return r->Error("setup: " + s.ToString());

  ClosedLoopSpec spec;
  spec.preload = kScanRows;
  spec.request = request;
  RunClosedLoopWorkload(a, e, setup_s, spec, r);
}

struct Workload {
  const char* name;
  void (*run)(const RunArgs&, Report*);
};

constexpr Workload kWorkloads[] = {
    {"point_read", PointRead},
    {"commit_bound", CommitBound},
    {"scan_cold", ScanCold},
};

}  // namespace

bool IsWorkload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

void RunWorkload(const RunArgs& args, Report* report) {
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) return w.run(args, report);
  }
}

}  // namespace perfbench
