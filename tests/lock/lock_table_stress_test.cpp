// Lock-table stress: 4 threads on names confined to 3 name shards, so their
// heads share each shard's open-addressing table and grow, shift and empty
// it. Requests draw all five modes, instant and commit duration,
// conditional and unconditional, and S->X / IS->IX conversions; deadlock
// victims release everything. A checker thread's Snapshot() asserts, for
// every capture:
//  - no name has two incompatible granted modes, and no name is listed
//    twice or with an empty queue;
//  - each transaction's held count equals the names it holds granted;
//  - no waiter is left behind that the granted modes would admit (the
//    first waiter when no conversion is pending, or a pending conversion).
// Afterwards the table is empty and every name is grantable in X.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "lock/lock_manager.h"
#include "util/random.h"

namespace ariesim {
namespace {

constexpr int kThreads = 4;
constexpr int kShards = 3;
constexpr int kNamesPerShard = 6;
constexpr int kTxnsPerThread = 1500;
constexpr int kRequestsPerTxn = 8;
constexpr auto kDeadline = std::chrono::seconds(120);
constexpr auto kGraceAfterViolation = std::chrono::seconds(5);

/// kNamesPerShard record names in each of the first kShards shards hit.
std::vector<LockName> ConfinedNames() {
  std::map<size_t, std::vector<LockName>> by_shard;
  std::vector<LockName> names;
  for (PageId page = 0; names.size() < kShards * kNamesPerShard; ++page) {
    LockName n = LockName::Record(1, Rid{page, 0});
    const size_t shard = LockManager::ShardIndex(n);
    if (by_shard.size() == kShards && by_shard.count(shard) == 0) continue;
    if (by_shard[shard].size() == kNamesPerShard) continue;
    by_shard[shard].push_back(n);
    names.push_back(n);
  }
  return names;
}

/// The first violated invariant in `snap`, or an empty string.
std::string CheckSnapshot(const LockTableSnapshot& snap) {
  std::map<TxnId, size_t> granted_names;
  std::set<std::string> seen;
  for (const LockQueueInfo& q : snap.queues) {
    const std::string name = q.name.ToString();
    if (!seen.insert(name).second) return name + " listed twice";
    if (q.requests.empty()) return name + " has an empty queue";
    bool converting = false;
    for (size_t i = 0; i < q.requests.size(); ++i) {
      const LockRequestInfo& r = q.requests[i];
      if (!r.granted) continue;
      granted_names[r.txn]++;
      converting |= r.converting;
      for (size_t j = i + 1; j < q.requests.size(); ++j) {
        const LockRequestInfo& g = q.requests[j];
        if (g.granted && !LockCompatible(r.mode, g.mode)) {
          return name + ": txn" + std::to_string(r.txn) + " " +
                 LockModeName(r.mode) + " granted with txn" +
                 std::to_string(g.txn) + " " + LockModeName(g.mode);
        }
      }
    }
    // Admissible against the granted modes of the others?
    auto admissible = [&](const LockRequestInfo& w, LockMode want) {
      for (const LockRequestInfo& g : q.requests) {
        if (&g != &w && g.granted && !LockCompatible(g.mode, want)) {
          return false;
        }
      }
      return true;
    };
    for (const LockRequestInfo& r : q.requests) {
      if (r.converting && admissible(r, r.conv_target)) {
        return name + ": admissible conversion of txn" +
               std::to_string(r.txn) + " left pending";
      }
      if (!r.granted) {
        if (!converting && admissible(r, r.mode)) {
          return name + ": admissible waiter txn" + std::to_string(r.txn) +
                 " left waiting";
        }
        break;  // only the first waiter can be next
      }
    }
  }
  for (const TxnLockInfo& t : snap.txns) {
    if (t.held != granted_names[t.txn]) {
      return "txn" + std::to_string(t.txn) + " held=" +
             std::to_string(t.held) + " but holds " +
             std::to_string(granted_names[t.txn]) + " names";
    }
  }
  return {};
}

TEST(LockTableStressTest, ConfinedShardsKeepTheTableConsistent) {
  const std::vector<LockName> names = ConfinedNames();
  Metrics metrics;
  LockManager lm(&metrics);
  std::atomic<int> running{kThreads};
  std::atomic<uint64_t> deadlocks{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Random rnd(4242 + static_cast<uint64_t>(w));
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const TxnId txn = static_cast<TxnId>(i) * kThreads + w + 1;
        LockName last = names[0];
        LockMode last_mode = LockMode::kX;
        for (int r = 0; r < kRequestsPerTxn; ++r) {
          LockName name = names[rnd.Uniform(names.size())];
          LockMode mode = static_cast<LockMode>(rnd.Uniform(5));
          // Explicit upgrades of the previous request's name.
          if (r > 0 && rnd.Uniform(4) == 0 &&
              (last_mode == LockMode::kS || last_mode == LockMode::kIS)) {
            name = last;
            mode = last_mode == LockMode::kS ? LockMode::kX : LockMode::kIX;
          }
          const LockDuration duration = rnd.Uniform(4) == 0
                                            ? LockDuration::kInstant
                                            : LockDuration::kCommit;
          const bool conditional = rnd.Uniform(3) == 0;
          Status s = lm.Lock(txn, name, mode, duration, conditional);
          if (s.IsDeadlock()) {
            deadlocks.fetch_add(1);
            break;
          }
          if (s.IsBusy() && conditional) continue;
          ASSERT_TRUE(s.ok()) << s.ToString();
          last = name;
          last_mode = mode;
        }
        lm.ReleaseAll(txn);
      }
      running.fetch_sub(1);
    });
  }
  std::string violation;
  std::atomic<bool> violated{false};
  int captures = 0;
  std::thread checker([&] {
    while (running.load() > 0 && violation.empty()) {
      violation = CheckSnapshot(lm.Snapshot());
      ++captures;
    }
    violated = !violation.empty();
  });
  // A broken table can leave a waiter that nothing wakes; fail instead of
  // hanging the suite.
  auto deadline = std::chrono::steady_clock::now() + kDeadline;
  bool grace = false;
  while (running.load() > 0) {
    if (violated.load() && !grace) {
      grace = true;
      deadline = std::min(deadline, std::chrono::steady_clock::now() +
                                        kGraceAfterViolation);
    }
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "workers stuck; first violation: %s\n",
                   violated.load() ? violation.c_str() : "none");
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  checker.join();
  for (auto& t : workers) t.join();
  EXPECT_EQ(violation, "");
  EXPECT_GT(captures, 0);
  const LockTableSnapshot drained = lm.Snapshot();
  EXPECT_TRUE(drained.queues.empty());
  EXPECT_TRUE(drained.txns.empty());
  // No count outlived its requests: every name is free for X.
  const TxnId probe = static_cast<TxnId>(kTxnsPerThread + 1) * kThreads + 1;
  for (const LockName& n : names) {
    EXPECT_TRUE(
        lm.Lock(probe, n, LockMode::kX, LockDuration::kCommit, true).ok())
        << n.ToString();
  }
  EXPECT_EQ(lm.HeldCount(probe), names.size());
  lm.ReleaseAll(probe);
  std::printf("captures=%d deadlocks=%llu waits=%llu detect_rounds=%llu\n",
              captures, static_cast<unsigned long long>(deadlocks.load()),
              static_cast<unsigned long long>(metrics.lock_waits.load()),
              static_cast<unsigned long long>(
                  metrics.lock_detect_rounds.load()));
}

}  // namespace
}  // namespace ariesim
