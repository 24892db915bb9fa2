// Shared scaffolding for the fault-injection crash-recovery harness
// (tests/stress/fault_injection_test.cpp and friends):
//  - seed-list parsing so a failing seed can be replayed in isolation via
//    ARIESIM_STRESS_SEEDS (see docs/FAULT_INJECTION.md);
//  - a multi-threaded workload driver that records exactly what was
//    committed, and which commits are *in doubt* (the commit record was
//    appended but the flush reported failure — after a crash either outcome
//    is legal, as long as it is atomic);
//  - a verifier that compares the recovered database against that record;
//  - an offline CRC scan of the data file (same predicate the buffer pool
//    applies on load) to predict torn-page repairs;
//  - restart-stats / metrics consistency checks.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "test_util.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace ariesim {
namespace testing {

/// Seeds for parameterized stress suites. Defaults to 1..n; the environment
/// variable ARIESIM_STRESS_SEEDS overrides it with a comma-separated list of
/// seeds and/or inclusive ranges ("7", "1,2,9", "1-32,41").
inline std::vector<uint64_t> StressSeeds(size_t n) {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("ARIESIM_STRESS_SEEDS");
  if (env != nullptr && *env != '\0') {
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (tok.empty()) continue;
      size_t dash = tok.find('-', 1);
      char* end = nullptr;
      uint64_t lo = std::strtoull(tok.c_str(), &end, 10);
      if (dash == std::string::npos) {
        seeds.push_back(lo);
      } else {
        uint64_t hi = std::strtoull(tok.c_str() + dash + 1, &end, 10);
        for (uint64_t s = lo; s <= hi && s - lo < 4096; ++s) seeds.push_back(s);
      }
    }
  }
  if (seeds.empty()) {
    for (uint64_t s = 1; s <= n; ++s) seeds.push_back(s);
  }
  return seeds;
}

/// Options for the fault harness: tiny pages (cheap SMOs), a pool small
/// enough that the workload steals/evicts dirty pages (exercising the
/// eviction write-back path under faults), and no index locks — the worker
/// threads use disjoint key ranges, and after a fail-stop fault freezes the
/// device a thread abandons its transaction without releasing locks, which
/// under next-key locking could park a neighbour forever.
inline Options FaultTestOptions() {
  Options o;
  o.page_size = 512;
  o.buffer_pool_frames = 32;
  o.fsync_log = false;
  o.index_locking = LockingProtocolKind::kNone;
  return o;
}

/// With ARIESIM_KEEP_CRASH_IMAGE set, copy the crashed database directory
/// to `<dir>.pre-recovery` before restart runs, so a failing seed's exact
/// on-disk image can be replayed offline (see docs/FAULT_INJECTION.md).
/// The copy survives the TempDir cleanup.
inline void MaybeKeepCrashImage(const std::string& dir) {
  if (std::getenv("ARIESIM_KEEP_CRASH_IMAGE") == nullptr) return;
  std::error_code ec;
  std::filesystem::remove_all(dir + ".pre-recovery", ec);
  std::filesystem::copy(dir, dir + ".pre-recovery", ec);
}

/// What the workload knows it did. `committed` is ground truth; each entry
/// of `indoubt` is one transaction whose Commit() returned an error — its
/// commit record sits in the possibly-torn log tail, so after recovery the
/// transaction must be either fully applied or fully rolled back.
struct WorkloadTrace {
  std::map<std::string, std::string> committed;
  std::vector<std::map<std::string, std::optional<std::string>>> indoubt;
  std::mutex mu;
};

struct WorkloadParams {
  int threads = 3;
  int txns_per_thread = 12;
  int keys_per_thread = 40;
  /// Fail-stop faults: once the injector trips, every worker winds down
  /// (further I/O fails anyway). Off for transient faults.
  bool stop_on_trip = true;
  /// Transient faults: retry Commit/Rollback until the error heals, so every
  /// transaction reaches a definite outcome. Off for fail-stop faults.
  bool retry_errors = false;
  /// Percent chance, before each update transaction, of a read-only one
  /// (reads of the thread's own keys, a checkpoint while it is open, then
  /// commit or rollback). It logs nothing, so restart must never see it.
  int read_only_pct = 0;
};

/// Run a randomized multi-threaded insert/delete workload against `table`.
/// Thread t only touches keys with prefix "t<t>-", so traces compose without
/// cross-thread write conflicts. Faults surface as op/commit errors; the
/// trace records how each transaction ended.
inline void RunFaultWorkload(Database* db, Table* table, uint64_t seed,
                             const WorkloadParams& p, WorkloadTrace* trace) {
  FaultInjector* inj = db->fault_injector();
  auto worker = [&](int t) {
    Random rnd(seed * 2654435761u + static_cast<uint64_t>(t));
    const std::string prefix = "t" + std::to_string(t) + "-";
    auto pick_key = [&] {
      return prefix +
             rnd.Key(rnd.Uniform(static_cast<uint64_t>(p.keys_per_thread)), 3);
    };
    for (int txn_i = 0; txn_i < p.txns_per_thread; ++txn_i) {
      if (p.stop_on_trip && inj->tripped()) return;
      if (p.read_only_pct > 0 && rnd.Percent(p.read_only_pct)) {
        Transaction* reader = db->Begin();
        Status s;
        for (int op = static_cast<int>(rnd.Range(1, 4)); op > 0 && s.ok();
             --op) {
          std::optional<Row> row;
          s = table->FetchByKey(reader, "pk", pick_key(), &row);
          if (s.ok() && rnd.Percent(30)) (void)db->Checkpoint();
        }
        s = s.ok() && rnd.Percent(75) ? db->Commit(reader)
                                      : db->Rollback(reader);
        if (!s.ok()) {
          if (!inj->tripped()) {
            ADD_FAILURE() << "read-only transaction failed without a fault: "
                          << s.ToString();
          }
          return;
        }
      }
      Transaction* txn = db->Begin();
      std::map<std::string, std::optional<std::string>> intents;
      bool op_failed = false;
      int nops = static_cast<int>(rnd.Range(1, 6));
      for (int op = 0; op < nops && !op_failed; ++op) {
        std::string key = pick_key();
        Status s;
        if (rnd.Percent(60)) {
          std::string value = "v" + std::to_string(rnd.Uniform(1000));
          s = table->Insert(txn, {key, value});
          if (s.ok()) intents[key] = value;
          if (s.IsDuplicate()) s = Status::OK();  // key already live — fine
        } else {
          std::optional<Row> row;
          Rid rid;
          s = table->FetchByKey(txn, "pk", key, &row, &rid);
          if (s.ok() && row.has_value()) {
            s = table->Delete(txn, rid);
            if (s.ok()) intents[key] = std::nullopt;
          }
        }
        op_failed = !s.ok();
        if (!op_failed && rnd.Percent(15)) {
          (void)db->FlushPage(rnd.Uniform(100));  // steal: flush some page
        }
        if (!op_failed && rnd.Percent(5)) (void)db->Checkpoint();
      }
      if (op_failed) {
        // An op failed mid-transaction: nothing of it may survive. Under a
        // fail-stop fault the device is gone — abandon the transaction
        // in-flight (restart undo will erase it). Otherwise roll back,
        // retrying through transient errors.
        if (p.stop_on_trip && inj->tripped()) return;
        Status rb = db->Rollback(txn);
        for (int tries = 0; !rb.ok() && p.retry_errors && tries < 200;
             ++tries) {
          rb = db->Rollback(txn);
        }
        if (!rb.ok()) {
          if (p.stop_on_trip && inj->tripped()) return;
          ADD_FAILURE() << "rollback failed without an armed fault: "
                        << rb.ToString();
          return;
        }
        continue;
      }
      if (rnd.Percent(25)) {
        Status rb = db->Rollback(txn);
        for (int tries = 0; !rb.ok() && p.retry_errors && tries < 200;
             ++tries) {
          rb = db->Rollback(txn);
        }
        if (!rb.ok()) return;  // fail-stop: txn stays in flight
        continue;
      }
      Status c = db->Commit(txn);
      for (int tries = 0; !c.ok() && p.retry_errors && tries < 200; ++tries) {
        c = db->Commit(txn);
      }
      std::lock_guard<std::mutex> g(trace->mu);
      if (c.ok()) {
        for (auto& [k, v] : intents) {
          if (v.has_value()) {
            trace->committed[k] = *v;
          } else {
            trace->committed.erase(k);
          }
        }
      } else {
        trace->indoubt.push_back(std::move(intents));
        return;  // device is fail-stopped; nothing more this thread can do
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < p.threads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
}

/// Verify `db` (recovered, or live with faults disarmed) against `trace`.
/// In-doubt transactions are resolved by probing their informative keys:
/// each must read back either entirely pre-transaction or entirely
/// post-transaction. Then every key of the resulting effective map must be
/// present with the right value, and the index/heap must contain nothing
/// else.
inline void VerifyDatabaseState(Database* db, WorkloadTrace* trace,
                                uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Table* table = db->GetTable("t");
  ASSERT_NE(table, nullptr);
  BTree* tree = db->GetIndex("pk");
  ASSERT_NE(tree, nullptr);

  Transaction* check = db->Begin();
  auto fetch = [&](const std::string& k) -> std::optional<std::string> {
    std::optional<Row> row;
    Status s = table->FetchByKey(check, "pk", k, &row);
    EXPECT_TRUE(s.ok()) << "fetch " << k << ": " << s.ToString();
    if (!s.ok() || !row.has_value()) return std::nullopt;
    EXPECT_EQ(row->size(), 2u);
    return row->size() == 2 ? std::optional<std::string>((*row)[1])
                            : std::nullopt;
  };

  std::map<std::string, std::string> effective = trace->committed;
  for (size_t i = 0; i < trace->indoubt.size(); ++i) {
    const auto& intents = trace->indoubt[i];
    int verdict = -1;  // -1 unknown, 0 rolled back, 1 applied
    for (const auto& [k, v] : intents) {
      std::optional<std::string> base;
      auto it = trace->committed.find(k);
      if (it != trace->committed.end()) base = it->second;
      if (v == base) continue;  // uninformative intent
      std::optional<std::string> got = fetch(k);
      bool as_applied = got == v;
      bool as_base = got == base;
      ASSERT_TRUE(as_applied || as_base)
          << "in-doubt txn " << i << " key " << k << ": read back '"
          << got.value_or("<absent>") << "', expected '"
          << v.value_or("<absent>") << "' (applied) or '"
          << base.value_or("<absent>") << "' (rolled back)";
      int this_verdict = as_applied == as_base ? -1 : (as_applied ? 1 : 0);
      if (this_verdict < 0) continue;
      if (verdict < 0) verdict = this_verdict;
      ASSERT_EQ(verdict, this_verdict)
          << "in-doubt txn " << i << " recovered NON-ATOMICALLY at key " << k;
    }
    if (verdict == 1) {
      for (const auto& [k, v] : intents) {
        if (v.has_value()) {
          effective[k] = *v;
        } else {
          effective.erase(k);
        }
      }
    }
  }

  for (const auto& [k, v] : effective) {
    std::optional<std::string> got = fetch(k);
    EXPECT_EQ(got, std::optional<std::string>(v)) << "committed key " << k;
  }
  size_t keys = 0;
  ASSERT_OK(tree->Validate(&keys));
  EXPECT_EQ(keys, effective.size())
      << "index holds a different key count than the committed state";
  std::vector<std::pair<Rid, std::string>> rows;
  ASSERT_OK(table->heap()->ScanAll(&rows));
  EXPECT_EQ(rows.size(), effective.size())
      << "heap holds a different row count than the committed state";
  ASSERT_OK(db->Commit(check));
}

/// Scan the raw data file and return the ids of pages that would fail the
/// buffer pool's load-time CRC check — the same strict predicate FetchFrame
/// applies: a typed page must carry a matching checksum, an untyped page
/// must be entirely zero. Run it on the closed/crashed file to predict
/// restart's torn-page repairs.
inline std::vector<PageId> CorruptPagesOnDisk(const std::string& dir,
                                              size_t page_size) {
  std::vector<PageId> bad;
  std::ifstream f(dir + "/data.db", std::ios::binary | std::ios::ate);
  if (!f.is_open()) return bad;
  size_t size = static_cast<size_t>(f.tellg());
  f.seekg(0);
  std::string data(size, '\0');
  f.read(data.data(), static_cast<std::streamsize>(size));
  // Pad the trailing partial page with zeros, as DiskManager::ReadPage does.
  data.resize(((size + page_size - 1) / page_size) * page_size, '\0');
  for (size_t off = 0; off < data.size(); off += page_size) {
    PageView v(&data[off], page_size);
    bool corrupt;
    if (v.type() == PageType::kInvalid) {
      corrupt = std::string_view(&data[off], page_size)
                    .find_first_not_of('\0') != std::string_view::npos;
    } else {
      uint32_t crc = crc32c::Value(&data[off + 4], page_size - 4);
      corrupt = v.checksum() != crc32c::Mask(crc);
    }
    if (corrupt) bad.push_back(static_cast<PageId>(off / page_size));
  }
  return bad;
}

/// Restart bookkeeping must be internally consistent: the recovery stats and
/// the engine metrics count the same events.
inline void CheckRestartConsistency(Database* db, uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const RestartStats& st = db->restart_stats();
  Metrics& m = db->metrics();
  EXPECT_LE(st.redo_applied, st.redo_records)
      << "cannot apply more redo records than were scanned";
  EXPECT_EQ(m.redo_records_applied.load(), st.redo_applied);
  // Every scanned redoable record is applied, skipped, or consumed by a
  // torn-page repair (the triggering record: RepairPage rolls the whole
  // page forward, so redo just moves on past it).
  EXPECT_EQ(m.redo_records_applied.load() + m.redo_records_skipped.load() +
                st.torn_pages_repaired,
            st.redo_records);
  EXPECT_EQ(m.torn_pages_repaired.load(), st.torn_pages_repaired);
  // The metric counts records physically undone; the stat also counts the
  // CLRs and state markers traversed by the backward sweep.
  EXPECT_LE(m.undo_records.load(), st.undo_records);
}

}  // namespace testing
}  // namespace ariesim
