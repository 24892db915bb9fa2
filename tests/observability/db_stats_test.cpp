// End-to-end stats/trace surface: a seeded crash-recovery run must populate
// the commit/fsync histograms, the per-pass RestartStats, and — with
// tracing on — a Perfetto-loadable dump with distinct analysis/redo/undo
// spans (the ISSUE 4 acceptance scenario).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/trace.h"
#include "db/database.h"
#include "test_util.h"

namespace ariesim {
namespace {

using ariesim::testing::DefaultOptions;
using ariesim::testing::TempDir;

// Committed rows + an unflushed loser, then a crash: the reopen pays all
// three recovery passes.
void SeedAndCrash(const std::string& dir) {
  auto db = std::move(Database::Open(dir, DefaultOptions()).value());
  db->CreateTable("t", 2).value();
  db->CreateIndex("t", "pk", 0, true).value();
  Table* table = db->GetTable("t");
  Transaction* txn = db->Begin();
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(table->Insert(txn, {"k" + std::to_string(10000 + i), "v"}));
  }
  ASSERT_OK(db->Commit(txn));
  Transaction* loser = db->Begin();
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(table->Insert(loser, {"l" + std::to_string(10000 + i), "v"}));
  }
  ASSERT_OK(db->wal()->FlushAll());
  ASSERT_OK(db->FlushAllPages());  // losers on disk: undo has real work
  db->SimulateCrash();
}

TEST(DbStats, CommitHistogramPopulated) {
  TempDir dir("stats_commit");
  auto db = std::move(Database::Open(dir.path(), DefaultOptions()).value());
  db->CreateTable("t", 2).value();
  Table* table = db->GetTable("t");
  for (int i = 0; i < 20; ++i) {
    Transaction* txn = db->Begin();
    ASSERT_OK(table->Insert(txn, {"k" + std::to_string(i), "v"}));
    ASSERT_OK(db->Commit(txn));
  }
  HistogramSnapshot s = db->metrics().commit_latency.Snapshot();
  // DDL paths may commit internal transactions too, hence >=.
  EXPECT_GE(s.count, 20u);
  EXPECT_GT(s.max_ns, 0u);
  EXPECT_LE(s.p99_ns, s.max_ns);
}

TEST(DbStats, RestartStatsCarryPassDurations) {
  TempDir dir("stats_restart");
  SeedAndCrash(dir.path());
  auto db = std::move(Database::Open(dir.path(), DefaultOptions()).value());
  const RestartStats& rs = db->restart_stats();
  EXPECT_GT(rs.analysis_records, 0u);
  EXPECT_GT(rs.undo_records, 0u);
  EXPECT_EQ(rs.loser_txns, 1u);
  EXPECT_GT(rs.total_us, 0u);
  // total covers the passes plus the post-restart checkpoint.
  EXPECT_GE(rs.total_us, rs.analysis_us + rs.redo_us + rs.undo_us);
  EXPECT_NE(rs.ToString().find("losers=1"), std::string::npos);
}

TEST(DbStats, StatsJsonShape) {
  TempDir dir("stats_json");
  SeedAndCrash(dir.path());
  auto db = std::move(Database::Open(dir.path(), DefaultOptions()).value());
  DatabaseStats st = db->Stats();
  EXPECT_EQ(st.health, EngineHealth::kHealthy);
  std::string j = st.ToJson();
  for (const char* key :
       {"\"metrics\":", "\"counters\":", "\"histograms\":", "\"health\":",
        "\"restart\":", "\"analysis_us\":", "\"redo_us\":", "\"undo_us\":",
        "\"loser_txns\":1", "\"trace\":", "\"enabled\":"}) {
    EXPECT_NE(j.find(key), std::string::npos) << key << " missing: " << j;
  }
  EXPECT_NE(j.find("\"health\":\"healthy\""), std::string::npos) << j;
}

// The health reason is free-form engine prose: control characters in it
// must come out escaped, or the whole Stats() document stops parsing.
TEST(DbStats, StatsJsonParsesWithControlCharsInReason) {
  TempDir dir("stats_escape");
  auto db = std::move(Database::Open(dir.path(), DefaultOptions()).value());
  const std::string reason = "log device failed:\n\tEIO";
  db->ctx()->health->Trip(EngineHealth::kReadOnly, reason);
  std::map<std::string, std::string> fields;
  std::string err;
  std::string j = db->Stats().ToJson();
  ASSERT_TRUE(ParseJson(j, &fields, &err)) << err << "\n" << j;
  EXPECT_EQ(fields["health"], "read-only");
  EXPECT_EQ(fields["health_reason"], reason);
}

TEST(DbStats, DefaultStatsJsonParses) {
  std::string err;
  std::string j = DatabaseStats{}.ToJson();
  EXPECT_TRUE(ParseJson(j, nullptr, &err)) << err << "\n" << j;
}

// Stats() renders its metrics sections from the one snapshot it carries,
// byte-for-byte as Metrics::ToJson / CommitBreakdownJson would.
TEST(DbStats, MetricsSectionsRenderTheCarriedSnapshot) {
  Metrics m;
  m.pages_read.store(12);
  m.commit_latency.Record(40'000);
  m.commit_seg_fsync.Record(30'000);
  DatabaseStats st;
  st.metrics = m.Snapshot();
  const std::string prefix = "{\"metrics\":" + m.ToJson() +
                             ",\"commit_breakdown\":" +
                             m.CommitBreakdownJson() + ",\"health\":";
  EXPECT_EQ(st.ToJson().compare(0, prefix.size(), prefix), 0) << st.ToJson();
}

#if ARIESIM_TRACE_COMPILED
TEST(DbStats, TraceCapturesRecoveryPasses) {
  TempDir dir("stats_trace");
  SeedAndCrash(dir.path());

  Tracer::Instance().Clear();
  Tracer::Instance().Enable();
  auto db = std::move(Database::Open(dir.path(), DefaultOptions()).value());
  db->SetTracing(false);

  EXPECT_TRUE(db->Stats().trace.recorded > 0);
  std::string path = dir.path() + "/trace.json";
  ASSERT_OK(db->DumpTrace(path));
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::stringstream ss;
  ss << f.rdbuf();
  std::string json = ss.str();
  // The three restart passes appear as distinct spans, under the recovery
  // category, in Chrome trace_event form.
  EXPECT_NE(json.find("\"recovery.analysis\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery.redo\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery.undo\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery.restart\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  Tracer::Instance().Clear();
}

TEST(DbStats, SetTracingRoundTrip) {
  TempDir dir("stats_toggle");
  auto db = std::move(Database::Open(dir.path(), DefaultOptions()).value());
  EXPECT_FALSE(db->tracing());
  db->SetTracing(true);
  EXPECT_TRUE(db->tracing());
  EXPECT_TRUE(db->Stats().tracing_enabled);
  db->SetTracing(false);
  EXPECT_FALSE(db->tracing());
}
#endif  // ARIESIM_TRACE_COMPILED

}  // namespace
}  // namespace ariesim
