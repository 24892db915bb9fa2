// Concurrency forensics (PR 5, docs/OBSERVABILITY.md):
//  - a forced two-transaction deadlock leaves a postmortem naming both txns
//    and both lock names, and the victim's Status carries the cycle summary;
//  - the postmortem ring is bounded and keeps the newest entries;
//  - the blocked-waiter watchdog fires exactly once per contention episode
//    and re-arms after the episode drains;
//  - a three-transaction cycle over names in three different lock-table
//    shards is detected once and leaves exactly one postmortem;
//  - Snapshot() is internally consistent under an 8-thread storm (every
//    waits-for edge endpoint exists, every blocked txn's queue is present),
//    and under raw 4-thread lock/unlock churn its queues stay sorted and
//    every granted holder is listed in `txns`;
//  - the waits-for DOT export is a well-formed digraph;
//  - Snapshot() latches the highest-index name shard too (TSan reports a
//    race with lock churn there if it does not).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "db/database.h"
#include "lock/lock_manager.h"
#include "test_util.h"
#include "util/random.h"

namespace ariesim {
namespace {

using testing::SmallPageOptions;
using testing::TempDir;

const LockName kNameA = LockName::Record(1, Rid{1, 0});
const LockName kNameB = LockName::Record(1, Rid{2, 0});

// Drive txn `older` and txn `younger` into an A/B-ordered cycle. The
// younger (larger id) txn is the victim; returns its kDeadlock status.
// Both txns are fully released before returning.
Status ForceTwoTxnDeadlock(LockManager& lm, TxnId older, TxnId younger) {
  EXPECT_TRUE(lm.Lock(older, kNameA, LockMode::kX, LockDuration::kManual,
                      /*conditional=*/false)
                  .ok());
  EXPECT_TRUE(lm.Lock(younger, kNameB, LockMode::kX, LockDuration::kManual,
                      /*conditional=*/false)
                  .ok());
  std::thread blocker([&] {
    // Waits until the victim's abort releases kNameB.
    Status s = lm.Lock(older, kNameB, LockMode::kX, LockDuration::kManual,
                       /*conditional=*/false);
    EXPECT_TRUE(s.ok()) << s.ToString();
  });
  // Let the older txn's wait on B get queued so the cycle closes as soon as
  // the younger txn blocks on A. (The 5 ms detector poll closes any race.)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Status victim = lm.Lock(younger, kNameA, LockMode::kX, LockDuration::kManual,
                          /*conditional=*/false);
  lm.ReleaseAll(younger);
  blocker.join();
  lm.ReleaseAll(older);
  return victim;
}

TEST(LockForensics, TwoTxnDeadlockPostmortemNamesBothSides) {
  Metrics metrics;
  LockManager lm(&metrics);
  Status victim = ForceTwoTxnDeadlock(lm, /*older=*/1, /*younger=*/2);
  ASSERT_TRUE(victim.IsDeadlock()) << victim.ToString();
  // The returned status carries the one-line cycle summary.
  EXPECT_NE(victim.ToString().find("cycle[len=2]"), std::string::npos)
      << victim.ToString();
  EXPECT_NE(victim.ToString().find("txn1"), std::string::npos);
  EXPECT_NE(victim.ToString().find("txn2"), std::string::npos);

  std::vector<DeadlockPostmortem> pms = lm.Postmortems();
  ASSERT_EQ(pms.size(), 1u);
  const DeadlockPostmortem& pm = pms[0];
  EXPECT_EQ(pm.seq, 1u);
  EXPECT_EQ(pm.victim, 2u);
  ASSERT_EQ(pm.cycle.size(), 2u);
  std::unordered_set<TxnId> txns;
  std::unordered_set<std::string> names;
  for (const DeadlockCycleNode& n : pm.cycle) {
    txns.insert(n.txn);
    names.insert(n.name.ToString());
    EXPECT_EQ(n.requested, LockMode::kX);
  }
  EXPECT_TRUE(txns.count(1) && txns.count(2));
  EXPECT_TRUE(names.count(kNameA.ToString()) && names.count(kNameB.ToString()));
  // Distributions fed: one 2-cycle, two member txns, one victim wait sample.
  std::vector<uint64_t> lens = lm.CycleLengthCounts();
  ASSERT_GT(lens.size(), 2u);
  EXPECT_EQ(lens[2], 1u);
  EXPECT_EQ(metrics.deadlock_cycle_txns.load(), 2u);
  EXPECT_EQ(metrics.deadlock_victim_wait.Snapshot().count, 1u);
  // JSON carries the victim and both members.
  std::string json = pm.ToJson();
  EXPECT_NE(json.find("\"victim\":2"), std::string::npos) << json;
  EXPECT_NE(json.find(kNameA.ToString()), std::string::npos) << json;
}

TEST(LockForensics, ThreeTxnCycleAcrossShardsRecordedOnce) {
  // One name per shard, so the cycle's edges live in three shards.
  std::vector<LockName> names;
  std::unordered_set<size_t> shards;
  for (uint16_t slot = 0; names.size() < 3; ++slot) {
    LockName n = LockName::Record(1, Rid{7, slot});
    if (shards.insert(LockManager::ShardIndex(n)).second) names.push_back(n);
  }
  Metrics metrics;
  LockManager lm(&metrics);
  for (TxnId t = 1; t <= 3; ++t) {
    ASSERT_TRUE(lm.Lock(t, names[t - 1], LockMode::kX, LockDuration::kManual,
                        /*conditional=*/false)
                    .ok());
  }
  // 1 waits for 2, 2 waits for 3; 3 closing the cycle is the victim.
  std::thread t1([&] {
    EXPECT_TRUE(lm.Lock(1, names[1], LockMode::kX, LockDuration::kManual,
                        /*conditional=*/false)
                    .ok());
  });
  std::thread t2([&] {
    EXPECT_TRUE(lm.Lock(2, names[2], LockMode::kX, LockDuration::kManual,
                        /*conditional=*/false)
                    .ok());
    lm.ReleaseAll(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Status victim = lm.Lock(3, names[0], LockMode::kX, LockDuration::kManual,
                          /*conditional=*/false);
  // Let the other members' detector polls see the cycle before it breaks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm.ReleaseAll(3);
  t2.join();
  t1.join();
  lm.ReleaseAll(1);

  ASSERT_TRUE(victim.IsDeadlock()) << victim.ToString();
  EXPECT_NE(victim.ToString().find("cycle[len=3]"), std::string::npos)
      << victim.ToString();
  std::vector<DeadlockPostmortem> pms = lm.Postmortems();
  ASSERT_EQ(pms.size(), 1u);
  EXPECT_EQ(pms[0].victim, 3u);
  ASSERT_EQ(pms[0].cycle.size(), 3u);
  std::unordered_set<std::string> waited_on;
  for (const DeadlockCycleNode& n : pms[0].cycle) {
    waited_on.insert(n.name.ToString());
  }
  EXPECT_EQ(waited_on.size(), 3u);
  EXPECT_EQ(lm.CycleLengthCounts()[3], 1u);
  EXPECT_EQ(metrics.deadlocks.load(), 1u);
  EXPECT_TRUE(lm.Snapshot().queues.empty());
}

TEST(LockForensics, PostmortemRingKeepsNewestEntries) {
  Metrics metrics;
  LockManager lm(&metrics);
  lm.SetPostmortemCapacity(3);
  for (TxnId base = 10; base < 22; base += 2) {
    Status victim = ForceTwoTxnDeadlock(lm, base, base + 1);
    ASSERT_TRUE(victim.IsDeadlock()) << victim.ToString();
  }
  std::vector<DeadlockPostmortem> pms = lm.Postmortems();
  ASSERT_EQ(pms.size(), 3u);  // 6 deadlocks recorded, ring keeps 3
  EXPECT_EQ(pms.back().seq, 6u);
  for (size_t i = 1; i < pms.size(); ++i) {
    EXPECT_EQ(pms[i].seq, pms[i - 1].seq + 1);  // oldest-first, contiguous
  }
  EXPECT_EQ(pms.front().seq, 4u);
}

TEST(LockForensics, WatchdogFiresOncePerEpisodeAndRearms) {
  Metrics metrics;
  LockManager lm(&metrics);
  std::atomic<int> fires{0};
  std::string last_dump;
  std::mutex dump_mu;
  lm.ConfigureWatchdog(/*threshold_ms=*/10, [&](const std::string& dump) {
    fires.fetch_add(1);
    std::lock_guard<std::mutex> g(dump_mu);
    last_dump = dump;
  });
  for (int episode = 0; episode < 2; ++episode) {
    ASSERT_TRUE(lm.Lock(1, kNameA, LockMode::kX, LockDuration::kManual, false)
                    .ok());
    std::thread w1([&] {
      EXPECT_TRUE(
          lm.Lock(2, kNameA, LockMode::kS, LockDuration::kManual, false).ok());
    });
    std::thread w2([&] {
      EXPECT_TRUE(
          lm.Lock(3, kNameA, LockMode::kS, LockDuration::kManual, false).ok());
    });
    // Two waiters both cross the 10 ms threshold across many 5 ms polls;
    // the episode must still fire exactly once.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_EQ(fires.load(), episode + 1);
    lm.ReleaseAll(1);
    w1.join();
    w2.join();
    lm.ReleaseAll(2);
    lm.ReleaseAll(3);
    // Episode drained: the watchdog re-arms for the next iteration.
  }
  EXPECT_EQ(fires.load(), 2);
  EXPECT_EQ(metrics.lock_watchdog_dumps.load(), 2u);
  std::lock_guard<std::mutex> g(dump_mu);
  EXPECT_NE(last_dump.find("digraph waits_for"), std::string::npos);
  EXPECT_NE(last_dump.find(kNameA.ToString()), std::string::npos);
}

TEST(LockForensics, SnapshotAndDotShowBlockedWaiter) {
  Metrics metrics;
  LockManager lm(&metrics);
  ASSERT_TRUE(
      lm.Lock(7, kNameA, LockMode::kX, LockDuration::kManual, false).ok());
  std::thread waiter([&] {
    EXPECT_TRUE(
        lm.Lock(8, kNameA, LockMode::kS, LockDuration::kManual, false).ok());
  });
  // Let the waiter enqueue.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  LockTableSnapshot snap = lm.Snapshot();
  ASSERT_EQ(snap.queues.size(), 1u);
  ASSERT_EQ(snap.queues[0].requests.size(), 2u);
  EXPECT_TRUE(snap.queues[0].requests[0].granted);
  EXPECT_FALSE(snap.queues[0].requests[1].granted);
  EXPECT_GT(snap.queues[0].requests[1].wait_us, 0u);
  ASSERT_EQ(snap.edges.size(), 1u);
  EXPECT_EQ(snap.edges[0].waiter, 8u);
  EXPECT_EQ(snap.edges[0].holder, 7u);
  bool saw_blocked = false;
  for (const TxnLockInfo& t : snap.txns) {
    if (t.txn == 8) {
      saw_blocked = true;
      EXPECT_TRUE(t.blocked);
      EXPECT_EQ(t.blocked_on, kNameA);
      EXPECT_EQ(t.blocked_mode, LockMode::kS);
    }
  }
  EXPECT_TRUE(saw_blocked);

  // DOT export: a well-formed digraph with one labeled edge.
  std::string dot = snap.ToDot();
  EXPECT_EQ(dot.rfind("digraph waits_for", 0), 0u) << dot;
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}"), std::string::npos);
  EXPECT_NE(dot.find("txn8"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find(kNameA.ToString()), std::string::npos);
  // Text dump names the blocked txn; DumpState is the same formatter.
  EXPECT_NE(snap.ToString().find("txn8"), std::string::npos);
  EXPECT_EQ(lm.DumpState().substr(0, 20), snap.ToString().substr(0, 20));

  lm.ReleaseAll(7);
  waiter.join();
  lm.ReleaseAll(8);
  // The blocked wait landed in the contention sketch.
  std::vector<LockManager::Contention::Entry> hot = lm.TopContention(5);
  ASSERT_FALSE(hot.empty());
  EXPECT_EQ(hot[0].key, kNameA);
  EXPECT_GE(hot[0].waits, 1u);
  EXPECT_GT(hot[0].wait_ns, 0u);
}

// Invariants every snapshot must satisfy, storm or not.
void CheckSnapshotConsistent(const LockTableSnapshot& snap) {
  std::unordered_set<TxnId> queue_txns;
  std::unordered_set<std::string> queue_names;
  for (const LockQueueInfo& q : snap.queues) {
    queue_names.insert(q.name.ToString());
    for (const LockRequestInfo& r : q.requests) queue_txns.insert(r.txn);
  }
  for (const WaitsForEdge& e : snap.edges) {
    // Edge endpoints must exist in some captured queue.
    EXPECT_TRUE(queue_txns.count(e.waiter)) << "edge waiter not in any queue";
    EXPECT_TRUE(queue_txns.count(e.holder)) << "edge holder not in any queue";
    EXPECT_TRUE(queue_names.count(e.name.ToString()));
    EXPECT_NE(e.waiter, e.holder);
  }
  for (const TxnLockInfo& t : snap.txns) {
    if (!t.blocked) continue;
    // A blocked txn's queue must appear, holding its non-granted (or
    // converting) request.
    bool found = false;
    for (const LockQueueInfo& q : snap.queues) {
      if (!(q.name == t.blocked_on)) continue;
      for (const LockRequestInfo& r : q.requests) {
        if (r.txn == t.txn && (!r.granted || r.converting)) found = true;
      }
    }
    EXPECT_TRUE(found) << "blocked txn " << t.txn << " has no waiting request";
  }
}

TEST(LockForensics, SnapshotConsistentUnderStorm) {
  TempDir dir("forensics_storm");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* table = db->CreateTable("t", 2).value();
  ASSERT_TRUE(db->CreateIndex("t", "pk", 0, false).ok());

  constexpr int kThreads = 8;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Random rnd(1000 + static_cast<uint64_t>(w));
      while (!stop.load()) {
        Transaction* txn = db->Begin();
        bool aborted = false;
        for (int i = 0; i < 3 && !aborted; ++i) {
          std::string key = "hot" + std::to_string(rnd.Uniform(6));
          Status s = table->Insert(txn, {key, "v"});
          if (!s.ok() && !s.IsDuplicate()) {
            EXPECT_TRUE(db->Rollback(txn).ok());
            aborted = true;
          }
        }
        if (!aborted) (void)db->Commit(txn);
      }
    });
  }
  // Sample the lock table mid-storm; every capture must be consistent.
  for (int i = 0; i < 50; ++i) {
    CheckSnapshotConsistent(db->locks()->Snapshot());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // The aggregated forensics JSON is live mid-storm too.
  std::string json = db->LockForensicsJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"snapshot\""), std::string::npos);
  EXPECT_NE(json.find("\"contention\""), std::string::npos);
  stop = true;
  for (auto& t : workers) t.join();
  // After every txn resolved (committed or deadlock-aborted) the waits-for
  // graph must have dissolved: no edges, no blocked txns. (Mid-storm a
  // transient cycle may exist for up to one detector tick, so acyclicity is
  // only asserted once drained.)
  LockTableSnapshot drained = db->locks()->Snapshot();
  EXPECT_TRUE(drained.edges.empty());
  for (const TxnLockInfo& t : drained.txns) EXPECT_FALSE(t.blocked);
  // Stats() carries the same forensics section.
  EXPECT_NE(db->Stats().ToJson().find("\"locks\""), std::string::npos);
}

TEST(LockForensics, SnapshotSortedAndCompleteUnderChurn) {
  constexpr int kThreads = 4;
  constexpr int kNames = 24;
  Metrics metrics;
  LockManager lm(&metrics);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Random rnd(77 + static_cast<uint64_t>(w));
      // Each worker runs a fresh transaction id per round.
      for (TxnId txn = 100 * (w + 1); !stop.load(); txn += 1000) {
        for (int i = 0; i < 6; ++i) {
          LockName n = LockName::Record(
              2, Rid{static_cast<PageId>(rnd.Uniform(kNames)), 0});
          LockMode m = rnd.Uniform(3) == 0 ? LockMode::kX : LockMode::kS;
          Status s = lm.Lock(txn, n, m, LockDuration::kManual,
                             /*conditional=*/false);
          if (s.IsDeadlock()) break;
          ASSERT_TRUE(s.ok()) << s.ToString();
          if (rnd.Uniform(3) == 0) lm.Unlock(txn, n);
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  auto before = [](const LockName& a, const LockName& b) {
    return std::tie(a.space, a.object, a.a, a.b) <
           std::tie(b.space, b.object, b.a, b.b);
  };
  for (int i = 0; i < 200; ++i) {
    LockTableSnapshot snap = lm.Snapshot();
    CheckSnapshotConsistent(snap);
    std::unordered_set<TxnId> listed;
    for (const TxnLockInfo& t : snap.txns) listed.insert(t.txn);
    for (size_t q = 0; q < snap.queues.size(); ++q) {
      if (q > 0) {
        EXPECT_TRUE(before(snap.queues[q - 1].name, snap.queues[q].name))
            << "queues not sorted at " << q;
      }
      for (const LockRequestInfo& r : snap.queues[q].requests) {
        if (r.granted) {
          EXPECT_TRUE(listed.count(r.txn))
              << "granted holder txn" << r.txn << " missing from txns";
        }
      }
    }
    // DumpState() renders the same sorted queues: "rec:2:<page>:0: ...".
    std::istringstream dump(lm.DumpState());
    long prev_page = -1;
    for (std::string line; std::getline(dump, line);) {
      if (line.rfind("rec:2:", 0) != 0) continue;
      long page = std::stol(line.substr(6));
      EXPECT_LT(prev_page, page) << "DumpState queues not sorted: " << line;
      prev_page = page;
    }
  }
  stop = true;
  for (auto& t : workers) t.join();
  EXPECT_TRUE(lm.Snapshot().queues.empty());
}

TEST(LockForensics, SnapshotLatchesTheLastShard) {
  // Names whose queues live in the highest-index shard, the one an
  // off-by-one in AllShards would leave unlatched.
  std::vector<LockName> last;
  for (PageId page = 0; last.size() < 4; ++page) {
    LockName n = LockName::Record(1, Rid{page, 0});
    if (LockManager::ShardIndex(n) == LockManager::kNameShards - 1) {
      last.push_back(n);
    }
  }
  Metrics metrics;
  LockManager lm(&metrics);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    // Each Lock creates the name's queue and each Unlock erases it.
    for (size_t i = 0; !stop.load(); ++i) {
      const LockName& n = last[i % last.size()];
      EXPECT_TRUE(lm.Lock(1, n, LockMode::kX, LockDuration::kManual,
                          /*conditional=*/false)
                      .ok());
      lm.Unlock(1, n);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    for (const LockQueueInfo& q : lm.Snapshot().queues) {
      EXPECT_EQ(q.requests.size(), 1u) << q.name.ToString();
      if (!q.requests.empty()) EXPECT_TRUE(q.requests[0].granted);
    }
  }
  stop = true;
  churn.join();
  EXPECT_TRUE(lm.Snapshot().queues.empty());
}

}  // namespace
}  // namespace ariesim
