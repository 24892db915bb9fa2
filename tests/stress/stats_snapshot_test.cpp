// Stats() under concurrent commits: one document must describe one instant.
// Its `metrics` and `commit_breakdown` sections both report the number of
// commits (histograms.commit_latency.count and accounted.commit_count); read
// from separate passes over the registry they drift apart as commits land
// in between.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "db/database.h"
#include "test_util.h"

namespace ariesim {
namespace {

using ariesim::testing::DefaultOptions;
using ariesim::testing::TempDir;

// The unsigned integer right after `key` in `json`.
uint64_t NumberAfter(const std::string& json, const std::string& key) {
  size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + key.size(), 20));
}

TEST(StatsSnapshot, CommitCountsAgreeWithinOneDocument) {
  constexpr int kWriters = 4;
  constexpr int kDocuments = 200;
  TempDir dir("stats_snapshot");
  auto db = std::move(Database::Open(dir.path(), DefaultOptions()).value());
  Table* table = db->CreateTable("t", 2).value();
  ASSERT_TRUE(db->CreateIndex("t", "pk", 0, true).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
        Transaction* txn = db->Begin();
        std::string key = "w" + std::to_string(w) + "-" + std::to_string(n);
        if (table->Insert(txn, {key, "v"}).ok() && db->Commit(txn).ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        } else {
          db->Rollback(txn);
        }
      }
    });
  }
  while (commits.load() < 100) std::this_thread::yield();

  int mismatches = 0;
  uint64_t first = 0, last = 0;
  for (int i = 0; i < kDocuments; ++i) {
    std::string j = db->Stats().ToJson();
    std::string err;
    ASSERT_TRUE(ParseJson(j, nullptr, &err)) << err;
    uint64_t accounted = NumberAfter(j, "\"accounted\":{\"commit_count\":");
    uint64_t histogram = NumberAfter(j, "\"commit_latency\":{\"count\":");
    if (accounted != histogram) ++mismatches;
    if (i == 0) first = histogram;
    last = histogram;
  }
  stop = true;
  for (auto& t : writers) t.join();

  EXPECT_EQ(mismatches, 0) << "of " << kDocuments << " Stats() documents";
  EXPECT_GT(last, first) << "no commits landed while the documents were taken";
}

}  // namespace
}  // namespace ariesim
