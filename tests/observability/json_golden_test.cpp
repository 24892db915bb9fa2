// Byte-for-byte goldens for every engine JSON (and the OpenMetrics) surface:
// each emitter is fed fixed inputs and its output is compared against a file
// under tests/observability/golden/. Formatting changes — comma placement,
// escaping, decimal rounding, key order — show up here as a diff.
//
// Regenerate (only for a deliberate format change) by running
// `observability_test --gtest_filter='JsonGolden.*'` from the build tree
// with ARIESIM_GOLDEN_UPDATE=1 set in the environment.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "common/blackbox.h"
#include "common/metrics.h"
#include "common/metrics_sampler.h"
#include "db/database.h"
#include "lock/lock_forensics.h"
#include "test_util.h"
#include "util/fault_injector.h"

namespace ariesim {
namespace {

using ariesim::testing::DefaultOptions;
using ariesim::testing::TempDir;

void ExpectGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(ARIESIM_GOLDEN_DIR) + "/" + name;
  if (std::getenv("ARIESIM_GOLDEN_UPDATE") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(actual, want.str()) << "golden " << name << " differs";
}

// Counter i holds i+1; every histogram holds the same five fixed values
// scaled by its index, so each object renders distinct numbers.
void FillMetrics(Metrics* m) {
  uint64_t next = 0;
#define ARIESIM_GOLDEN_SET(name) \
  m->name.store(++next, std::memory_order_relaxed);
  ARIESIM_METRICS_COUNTERS(ARIESIM_GOLDEN_SET)
#undef ARIESIM_GOLDEN_SET
  uint64_t h = 0;
#define ARIESIM_GOLDEN_RECORD(name)                                      \
  ++h;                                                                   \
  for (uint64_t v : {uint64_t{250}, uint64_t{37'001}, uint64_t{1'234'567}, \
                     uint64_t{2'500'000}, uint64_t{90'000'123}}) {       \
    m->name.Record(v * h + h);                                           \
  }
  ARIESIM_METRICS_HISTOGRAMS(ARIESIM_GOLDEN_RECORD)
#undef ARIESIM_GOLDEN_RECORD
}

// Replace the digits after `"key":` with 0 (wall clock, process id).
std::string Mask(const std::string& json, const std::string& key) {
  return std::regex_replace(json, std::regex("\"" + key + "\":[0-9]+"),
                            "\"" + key + "\":0");
}

TEST(JsonGolden, MetricsToJson) {
  Metrics m;
  FillMetrics(&m);
  ExpectGolden("metrics.json", m.ToJson());
}

TEST(JsonGolden, EmptyMetricsToJson) {
  Metrics m;
  ExpectGolden("metrics_empty.json", m.ToJson());
}

TEST(JsonGolden, CommitBreakdownJson) {
  Metrics m;
  FillMetrics(&m);
  ExpectGolden("commit_breakdown.json", m.CommitBreakdownJson());
  Metrics empty;
  ExpectGolden("commit_breakdown_empty.json", empty.CommitBreakdownJson());
}

TEST(JsonGolden, OpenMetrics) {
  Metrics m;
  FillMetrics(&m);
  ExpectGolden("openmetrics.txt", m.ToOpenMetrics());
}

TEST(JsonGolden, SamplerJsonl) {
  Metrics m;
  FillMetrics(&m);
  MetricsSampler sampler(&m, 0, "");
  MetricsSample s0 = sampler.SampleOnce();
  s0.t_ns = 1'000'000'000;
  m.lock_requests.fetch_add(1000);
  m.pages_read.fetch_add(7);
  m.commit_latency.Record(55'555);
  MetricsSample s1 = sampler.SampleOnce();
  s1.t_ns = 3'500'000'000;
  ExpectGolden("sampler.jsonl", MetricsSampler::ToJsonl(s0, nullptr) + "\n" +
                                    MetricsSampler::ToJsonl(s1, &s0) + "\n");
}

// Everything DatabaseStats renders after its metrics sections (those are
// Metrics::ToJson / CommitBreakdownJson documents, pinned above).
std::string StatsTail(const DatabaseStats& s) {
  std::string j = s.ToJson();
  size_t at = j.find(",\"health\":");
  return at == std::string::npos ? j : j.substr(at);
}

TEST(JsonGolden, DatabaseStats) {
  DatabaseStats s;
  s.health = EngineHealth::kReadOnly;
  s.health_reason = "log \"device\" failed at C:\\wal";
  s.restart.analysis_records = 11;
  s.restart.redo_records = 12;
  s.restart.redo_applied = 13;
  s.restart.undo_records = 14;
  s.restart.loser_txns = 15;
  s.restart.torn_pages_repaired = 16;
  s.restart.lazy_pages_scheduled = 17;
  s.restart.instant = true;
  s.restart.analysis_us = 18;
  s.restart.redo_us = 19;
  s.restart.undo_us = 20;
  s.restart.total_us = 21;
  s.trace.recorded = 22;
  s.trace.dropped = 23;
  s.trace.rings = 24;
  s.tracing_enabled = true;
  s.last_incident_json = "{\"trigger\":\"manual\",\"seq\":3}";
  s.locks_json = "{\"snapshot\":{\"captured_at_ns\":5}}";
  ExpectGolden("stats_tail.json", StatsTail(s));

  DatabaseStats empty;
  ExpectGolden("stats_tail_empty.json", StatsTail(empty));
}

LockTableSnapshot FixedLockTable() {
  LockTableSnapshot snap;
  snap.captured_at_ns = 123456789;
  LockQueueInfo q1;
  q1.name = LockName::Record(3, Rid{7, 2});
  LockRequestInfo granted;
  granted.txn = 5;
  granted.mode = LockMode::kS;
  granted.granted = true;
  granted.grant_us = 40;
  LockRequestInfo converting = granted;
  converting.txn = 6;
  converting.converting = true;
  converting.conv_target = LockMode::kX;
  converting.wait_us = 9;
  LockRequestInfo waiting;
  waiting.txn = 8;
  waiting.mode = LockMode::kX;
  q1.requests = {granted, converting, waiting};
  LockQueueInfo q2;
  q2.name = LockName::KeyValue(4, 99);
  LockRequestInfo ix;
  ix.txn = 8;
  ix.mode = LockMode::kIX;
  ix.granted = true;
  q2.requests = {ix};
  snap.queues = {q1, q2};
  TxnLockInfo t5;
  t5.txn = 5;
  t5.held = 2;
  TxnLockInfo t8;
  t8.txn = 8;
  t8.held = 1;
  t8.blocked = true;
  t8.blocked_on = q1.name;
  t8.blocked_mode = LockMode::kX;
  t8.blocked_us = 31;
  snap.txns = {t5, t8};
  snap.edges = {WaitsForEdge{8, 5, q1.name}, WaitsForEdge{8, 6, q1.name}};
  return snap;
}

TEST(JsonGolden, LockTableSnapshot) {
  ExpectGolden("lock_table.json", FixedLockTable().ToJson());
  ExpectGolden("lock_table_empty.json", LockTableSnapshot().ToJson());
}

TEST(JsonGolden, DeadlockPostmortem) {
  DeadlockPostmortem pm;
  pm.seq = 2;
  pm.at_ns = 1000;
  pm.wall_unix_us = 1700000000000000;
  pm.victim = 9;
  pm.victim_wait_us = 77;
  DeadlockCycleNode a;
  a.txn = 9;
  a.name = LockName::Page(3, 12);
  a.requested = LockMode::kX;
  a.wait_us = 77;
  DeadlockCycleNode b;
  b.txn = 10;
  b.name = LockName::Table(3);
  b.requested = LockMode::kSIX;
  b.had_grant = true;
  b.granted_mode = LockMode::kIS;
  b.wait_us = 5;
  pm.cycle = {a, b};
  ExpectGolden("postmortem.json", pm.ToJson());
}

TEST(JsonGolden, FaultInjectorState) {
  FaultInjector fi;
  ExpectGolden("fault_disarmed.json", fi.StateJson());
  FaultSpec spec;
  spec.kind = FaultKind::kTornWrite;
  spec.site = FaultSite::kLogFlush;
  spec.nth = 3;
  spec.keep_bytes = 100;
  spec.page_id = 42;
  fi.Arm(spec);
  ExpectGolden("fault_armed.json", fi.StateJson());
}

TEST(JsonGolden, BlackBoxCapture) {
  TempDir dir("json_golden_blackbox");
  BlackBox box(dir.path() + "/blackbox.json", nullptr);
  box.SetSnapshotBuilder([](const char* trigger, const std::string&) {
    return std::string(",\"engine\":{\"trigger_seen\":\"") + trigger +
           "\",\"n\":[1,2]}";
  });
  box.SetPreviousIncident(
      "{\"trigger\":\"simulate_crash\",\"reason\":\"\",\"ts_unix_ms\":1,"
      "\"seq\":4}");
  ASSERT_OK(box.Capture("manual", "operator \"note\"\n\tsecond line\x01"));
  std::string first;
  ASSERT_OK(BlackBox::ReadFile(box.path(), &first));
  ASSERT_OK(box.Capture("cadence", ""));
  std::string second;
  ASSERT_OK(BlackBox::ReadFile(box.path(), &second));
  ExpectGolden("blackbox.json",
               Mask(Mask(first + "\n" + second + "\n", "ts_unix_ms"), "pid"));
}

TEST(JsonGolden, LockForensicsOfIdleDatabase) {
  TempDir dir("json_golden_forensics");
  auto db = std::move(Database::Open(dir.path(), DefaultOptions()).value());
  ExpectGolden("lock_forensics_idle.json",
               Mask(db->LockForensicsJson(), "captured_at_ns"));
}

}  // namespace
}  // namespace ariesim
