// Flight recorder (PR 10): the BlackBox unit surface (JSON escaping, the
// shared record parser, capture/splice mechanics), every crash class leaving
// a parseable record whose fault fields match the injected fault, the
// health-trip / flush-failure / cadence triggers, and the reopen path that
// annotates the record with the restart outcome and surfaces it as
// Stats() "last_incident". See docs/OBSERVABILITY.md "Flight recorder".
#include "common/blackbox.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/metrics.h"
#include "db/database.h"
#include "test_util.h"
#include "util/fault_injector.h"

namespace ariesim {
namespace {

using ariesim::testing::DefaultOptions;
using ariesim::testing::TempDir;

// ---------------------------------------------------------------------------
// JSON helpers: escaping and the shared record parser.
// ---------------------------------------------------------------------------

TEST(BlackBoxJson, EscapeRoundTripsThroughParser) {
  std::string body = "quote\" backslash\\ newline\n tab\t ctrl\x01 done";
  std::string json;
  JsonWriter(&json).BeginObject().Key("reason").String(body).EndObject();

  std::map<std::string, std::string> fields;
  std::string err;
  ASSERT_TRUE(ParseJson(json, &fields, &err)) << err;
  EXPECT_EQ(fields["reason"], body);
}

TEST(BlackBoxJson, ParserCollectsTwoLevelsOfScalars) {
  const std::string json =
      "{\"seq\":7,\"trigger\":\"manual\",\"ok\":true,\"nil\":null,"
      "\"wal\":{\"durable_lsn\":42,\"nested\":{\"deep\":1}},"
      "\"arr\":[1,2,{\"x\":3}]}";
  std::map<std::string, std::string> fields;
  std::string err;
  ASSERT_TRUE(ParseJson(json, &fields, &err)) << err;
  EXPECT_EQ(fields["seq"], "7");
  EXPECT_EQ(fields["trigger"], "manual");
  EXPECT_EQ(fields["ok"], "true");
  EXPECT_EQ(fields["nil"], "null");
  EXPECT_EQ(fields["wal.durable_lsn"], "42");
  // Third level and array elements are validated but not collected.
  EXPECT_EQ(fields.count("wal.nested.deep"), 0u);
}

TEST(BlackBoxJson, ParserRejectsTruncatedAndMalformed) {
  std::map<std::string, std::string> fields;
  std::string err;
  EXPECT_FALSE(ParseJson("{\"a\":1", &fields, &err));
  EXPECT_FALSE(ParseJson("{\"a\":}", &fields, &err));
  EXPECT_FALSE(ParseJson("{\"a\":\"unterminated", &fields, &err));
  EXPECT_FALSE(ParseJson("", &fields, &err));
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &fields, &err));
}

TEST(BlackBoxJson, SpliceFieldInsertsBeforeClosingBrace) {
  std::string spliced =
      BlackBox::SpliceField("{\"a\":1}", "recovery", "{\"mode\":\"none\"}");
  std::map<std::string, std::string> fields;
  std::string err;
  ASSERT_TRUE(ParseJson(spliced, &fields, &err)) << spliced << " : " << err;
  EXPECT_EQ(fields["a"], "1");
  EXPECT_EQ(fields["recovery.mode"], "none");
}

// ---------------------------------------------------------------------------
// BlackBox unit surface (no Database).
// ---------------------------------------------------------------------------

TEST(BlackBoxUnit, CaptureWritesParseableFileAndBumpsCounters) {
  TempDir dir("blackbox_unit");
  Metrics m;
  BlackBox box(dir.path() + "/blackbox.json", &m);
  box.SetSnapshotBuilder([](const char*, const std::string&) {
    return std::string(",\"extra\":{\"k\":1}");
  });

  ASSERT_OK(box.Capture("manual", "first"));
  ASSERT_OK(box.Capture("manual", "second"));
  EXPECT_EQ(box.captures(), 2u);
  EXPECT_EQ(m.blackbox_captures.load(), 2u);
  EXPECT_GT(m.blackbox_bytes.load(), 0u);
  EXPECT_EQ(m.blackbox_capture_latency.Snapshot().count, 2u);

  std::string json;
  ASSERT_OK(BlackBox::ReadFile(box.path(), &json));
  std::map<std::string, std::string> fields;
  std::string err;
  ASSERT_TRUE(ParseJson(json, &fields, &err)) << err;
  EXPECT_EQ(fields["version"], "1");
  EXPECT_EQ(fields["seq"], "2");
  EXPECT_EQ(fields["trigger"], "manual");
  EXPECT_EQ(fields["reason"], "second");
  EXPECT_EQ(fields["extra.k"], "1");
  // No stale tmp slot left behind after the rename.
  EXPECT_FALSE(std::filesystem::exists(box.path() + ".tmp.0") &&
               std::filesystem::exists(box.path() + ".tmp.1"));
}

TEST(BlackBoxUnit, CadenceOverwriteKeepsIncidentMemo) {
  TempDir dir("blackbox_memo");
  Metrics m;
  BlackBox box(dir.path() + "/blackbox.json", &m);
  box.SetSnapshotBuilder(
      [](const char*, const std::string&) { return std::string(); });

  // A forced capture is memoized; later cadence captures carry it forward.
  ASSERT_OK(box.Capture("health_trip", "log device failed"));
  ASSERT_OK(box.Capture("cadence", ""));

  std::string json;
  ASSERT_OK(BlackBox::ReadFile(box.path(), &json));
  std::map<std::string, std::string> fields;
  std::string err;
  ASSERT_TRUE(ParseJson(json, &fields, &err)) << err;
  EXPECT_EQ(fields["trigger"], "cadence");
  EXPECT_EQ(fields["incident.trigger"], "health_trip");
  EXPECT_EQ(fields["incident.reason"], "log device failed");
}

TEST(BlackBoxUnit, ReadFileReportsNotFound) {
  std::string out;
  Status s = BlackBox::ReadFile("/nonexistent/dir/blackbox.json", &out);
  EXPECT_FALSE(s.ok());
}

TEST(BlackBoxUnit, PeriodicThreadCapturesOnCadence) {
  TempDir dir("blackbox_cadence");
  Metrics m;
  BlackBox box(dir.path() + "/blackbox.json", &m);
  box.SetSnapshotBuilder(
      [](const char*, const std::string&) { return std::string(); });

  box.StartPeriodic(10);
  EXPECT_TRUE(box.periodic_running());
  for (int i = 0; i < 500 && box.captures() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  box.Stop();
  EXPECT_FALSE(box.periodic_running());
  EXPECT_GE(box.captures(), 2u);

  std::string json;
  ASSERT_OK(BlackBox::ReadFile(box.path(), &json));
  std::map<std::string, std::string> fields;
  std::string err;
  ASSERT_TRUE(ParseJson(json, &fields, &err)) << err;
  EXPECT_EQ(fields["trigger"], "cadence");

  // Stopped means stopped: no further captures trickle in.
  uint64_t after_stop = box.captures();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(box.captures(), after_stop);
}

// ---------------------------------------------------------------------------
// Database integration: triggers, crash classes, reopen annotation.
// ---------------------------------------------------------------------------

Options BlackBoxOptions() {
  Options o = DefaultOptions();
  o.blackbox_interval_ms = 0;  // forced triggers only: deterministic files
  return o;
}

// Read and parse <dir>/blackbox.json, asserting it parses.
std::map<std::string, std::string> ReadRecord(const std::string& dir) {
  std::string json;
  Status s = BlackBox::ReadFile(dir + "/blackbox.json", &json);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::map<std::string, std::string> fields;
  std::string err;
  EXPECT_TRUE(ParseJson(json, &fields, &err)) << err << "\n" << json;
  return fields;
}

void RunSmallWorkload(Database* db, Table* table, int rows) {
  for (int i = 0; i < rows; ++i) {
    Transaction* txn = db->Begin();
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_OK(table->Insert(txn, {key, "v"}));
    ASSERT_OK(db->Commit(txn));
  }
}

TEST(BlackBoxDb, ManualCaptureCrashAndAnnotatedReopen) {
  TempDir dir("blackbox_db");
  {
    auto opened = Database::Open(dir.path(), BlackBoxOptions());
    ASSERT_OK(opened.status());
    auto db = std::move(opened).value();
    auto table = db->CreateTable("t", 2);
    ASSERT_OK(table.status());
    RunSmallWorkload(db.get(), table.value(), 10);

    ASSERT_OK(db->CaptureIncident("operator snapshot"));
    auto fields = ReadRecord(dir.path());
    EXPECT_EQ(fields["trigger"], "manual");
    EXPECT_EQ(fields["reason"], "operator snapshot");
    EXPECT_EQ(fields["health"], "healthy");
    EXPECT_EQ(fields["fault.kind"], "none");
    // Engine-state sections are all present.
    EXPECT_EQ(fields.count("wal.durable_lsn"), 1u);
    EXPECT_EQ(fields.count("restart.instant"), 1u);
    EXPECT_EQ(fields.count("openmetrics"), 1u);

    db->SimulateCrash();
    fields = ReadRecord(dir.path());
    EXPECT_EQ(fields["trigger"], "simulate_crash");
    // The manual capture survives as the incident memo.
    EXPECT_EQ(fields["incident.trigger"], "manual");
    EXPECT_EQ(fields["incident.reason"], "operator snapshot");
  }
  {
    auto reopened = Database::Open(dir.path(), BlackBoxOptions());
    ASSERT_OK(reopened.status());
    auto db = std::move(reopened).value();
    // The leftover record was annotated with this open's restart outcome
    // and is surfaced through Stats().
    const std::string& incident = db->last_incident_json();
    ASSERT_FALSE(incident.empty());
    std::map<std::string, std::string> fields;
    std::string err;
    ASSERT_TRUE(ParseJson(incident, &fields, &err)) << err;
    EXPECT_EQ(fields["trigger"], "simulate_crash");
    EXPECT_EQ(fields["recovery.mode"], "classic");
    EXPECT_EQ(fields["recovery.health_after"], "healthy");

    DatabaseStats stats = db->Stats();
    EXPECT_EQ(stats.last_incident_json, incident);
    std::string stats_json = stats.ToJson();
    EXPECT_NE(stats_json.find("\"last_incident\":{"), std::string::npos);
  }
  {
    // A second reopen after the clean shutdown above: the clean_shutdown
    // record is loaded as last_incident (file is never deleted) and the
    // crash record survives inside it as the prev breadcrumb.
    auto reopened = Database::Open(dir.path(), BlackBoxOptions());
    ASSERT_OK(reopened.status());
    auto db = std::move(reopened).value();
    std::map<std::string, std::string> fields;
    std::string err;
    ASSERT_TRUE(ParseJson(db->last_incident_json(), &fields, &err)) << err;
    EXPECT_EQ(fields["trigger"], "clean_shutdown");
    // Recovery-on-open still ran (and found a clean log): mode says which
    // restart style executed, not whether there was work to redo.
    EXPECT_EQ(fields["recovery.mode"], "classic");
  }
}

TEST(BlackBoxDb, DisabledRecorderWritesNothing) {
  TempDir dir("blackbox_off");
  Options o = BlackBoxOptions();
  o.blackbox = false;
  auto opened = Database::Open(dir.path(), o);
  ASSERT_OK(opened.status());
  auto db = std::move(opened).value();
  EXPECT_EQ(db->blackbox(), nullptr);
  Status s = db->CaptureIncident("nope");
  EXPECT_EQ(s.code(), Code::kNotSupported) << s.ToString();
  db->SimulateCrash();
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/blackbox.json"));
}

// Every FaultInjector crash class leaves a record whose fault fields match
// the injected fault (ISSUE acceptance criterion).
TEST(BlackBoxDb, TornWriteCrashLeavesMatchingRecord) {
  TempDir dir("blackbox_torn_write");
  {
    auto opened = Database::Open(dir.path(), BlackBoxOptions());
    ASSERT_OK(opened.status());
    auto db = std::move(opened).value();
    auto table = db->CreateTable("t", 2);
    ASSERT_OK(table.status());
    RunSmallWorkload(db.get(), table.value(), 20);

    FaultSpec spec;
    spec.kind = FaultKind::kTornWrite;
    spec.site = FaultSite::kDataWrite;
    spec.keep_bytes = 100;
    db->fault_injector()->Arm(spec);
    db->FlushAllPages();  // fires the tear; device freezes after
    ASSERT_TRUE(db->fault_injector()->tripped());
    db->SimulateCrash();
  }
  auto fields = ReadRecord(dir.path());
  EXPECT_EQ(fields["trigger"], "simulate_crash");
  EXPECT_EQ(fields["fault.kind"], "torn-write");
  EXPECT_EQ(fields["fault.site"], "data-write");
  EXPECT_EQ(fields["fault.frozen"], "true");
  EXPECT_NE(fields["fault.fires"], "0");

  auto reopened = Database::Open(dir.path(), BlackBoxOptions());
  ASSERT_OK(reopened.status());
  auto db = std::move(reopened).value();
  std::map<std::string, std::string> inc;
  std::string err;
  ASSERT_TRUE(ParseJson(db->last_incident_json(), &inc, &err)) << err;
  EXPECT_EQ(inc["trigger"], "simulate_crash");
  EXPECT_EQ(inc["fault.kind"], "torn-write");
  EXPECT_EQ(inc.count("recovery.mode"), 1u);
}

TEST(BlackBoxDb, PartialLogFlushCrashLeavesMatchingRecord) {
  TempDir dir("blackbox_partial_flush");
  {
    Options o = BlackBoxOptions();
    o.fsync_log = true;  // exercise the real flush path
    auto opened = Database::Open(dir.path(), o);
    ASSERT_OK(opened.status());
    auto db = std::move(opened).value();
    auto table = db->CreateTable("t", 2);
    ASSERT_OK(table.status());
    RunSmallWorkload(db.get(), table.value(), 5);

    FaultSpec spec;
    spec.kind = FaultKind::kPartialFlush;
    spec.site = FaultSite::kLogFlush;
    spec.keep_bytes = 8;
    db->fault_injector()->Arm(spec);
    Transaction* txn = db->Begin();
    Status s = table.value()->Insert(txn, {"tear", "v"});
    if (s.ok()) s = db->Commit(txn);
    EXPECT_FALSE(s.ok());  // the tail flush tore and failed
    ASSERT_TRUE(db->fault_injector()->tripped());
    db->SimulateCrash();
  }
  auto fields = ReadRecord(dir.path());
  EXPECT_EQ(fields["trigger"], "simulate_crash");
  EXPECT_EQ(fields["fault.kind"], "partial-flush");
  EXPECT_EQ(fields["fault.site"], "log-flush");
  EXPECT_EQ(fields["fault.frozen"], "true");
  // The flush failure itself was captured first and memoized.
  EXPECT_EQ(fields["incident.trigger"], "flush_failure");

  auto reopened = Database::Open(dir.path(), BlackBoxOptions());
  ASSERT_OK(reopened.status());
  EXPECT_NE(reopened.value()->last_incident_json().find("partial-flush"),
            std::string::npos);
}

TEST(BlackBoxDb, TornCrashDataPageLeavesMatchingRecord) {
  TempDir dir("blackbox_torn_page");
  PageId victim = kInvalidPageId;
  {
    auto opened = Database::Open(dir.path(), BlackBoxOptions());
    ASSERT_OK(opened.status());
    auto db = std::move(opened).value();
    auto table = db->CreateTable("t", 2);
    ASSERT_OK(table.status());
    RunSmallWorkload(db.get(), table.value(), 20);
    auto dpt = db->pool()->DirtyPageTable();
    ASSERT_FALSE(dpt.empty());
    victim = dpt.front().first;
    ASSERT_OK(db->FlushAllPages());

    TornCrashSpec spec;
    spec.target = TornCrashSpec::Target::kDataPage;
    spec.page_id = victim;
    spec.keep_bytes = 64;
    ASSERT_OK(db->SimulateTornCrash(spec));
  }
  auto fields = ReadRecord(dir.path());
  EXPECT_EQ(fields["trigger"], "torn_crash");
  EXPECT_NE(fields["reason"].find("torn-page"), std::string::npos)
      << fields["reason"];

  auto reopened = Database::Open(dir.path(), BlackBoxOptions());
  ASSERT_OK(reopened.status());
  auto db = std::move(reopened).value();
  std::map<std::string, std::string> inc;
  std::string err;
  ASSERT_TRUE(ParseJson(db->last_incident_json(), &inc, &err)) << err;
  EXPECT_EQ(inc["trigger"], "torn_crash");
  EXPECT_EQ(inc.count("recovery.mode"), 1u);
}

TEST(BlackBoxDb, TornCrashLogTailLeavesMatchingRecord) {
  TempDir dir("blackbox_torn_log");
  {
    auto opened = Database::Open(dir.path(), BlackBoxOptions());
    ASSERT_OK(opened.status());
    auto db = std::move(opened).value();
    auto table = db->CreateTable("t", 2);
    ASSERT_OK(table.status());
    RunSmallWorkload(db.get(), table.value(), 20);

    // Cut from the durable end, not the file size: a preallocated log is
    // longer than its records, and a cut in the zeros would tear nothing.
    TornCrashSpec spec;
    spec.target = TornCrashSpec::Target::kLogTail;
    spec.truncate_to = db->wal()->flushed_lsn() - 7;
    ASSERT_OK(db->SimulateTornCrash(spec));
  }
  auto fields = ReadRecord(dir.path());
  EXPECT_EQ(fields["trigger"], "torn_crash");
  EXPECT_NE(fields["reason"].find("log-tail"), std::string::npos)
      << fields["reason"];

  auto reopened = Database::Open(dir.path(), BlackBoxOptions());
  ASSERT_OK(reopened.status());
  EXPECT_NE(reopened.value()->last_incident_json().find("torn_crash"),
            std::string::npos);
}

TEST(BlackBoxDb, HealthTripForcesCapture) {
  TempDir dir("blackbox_trip");
  Options o = BlackBoxOptions();
  o.fsync_log = true;
  o.log_flush_failure_threshold = 2;
  auto opened = Database::Open(dir.path(), o);
  ASSERT_OK(opened.status());
  auto db = std::move(opened).value();
  auto table = db->CreateTable("t", 2);
  ASSERT_OK(table.status());
  RunSmallWorkload(db.get(), table.value(), 3);

  FaultSpec spec;
  spec.kind = FaultKind::kPersistentError;
  spec.site = FaultSite::kLogFlush;
  db->fault_injector()->Arm(spec);
  for (int i = 0; i < 4 && db->Health() == EngineHealth::kHealthy; ++i) {
    Transaction* txn = db->Begin();
    Status s = table.value()->Insert(txn, {"x" + std::to_string(i), "v"});
    if (s.ok()) s = db->Commit(txn);
    EXPECT_FALSE(s.ok());
  }
  ASSERT_NE(db->Health(), EngineHealth::kHealthy);
  db->fault_injector()->Disarm();

  auto fields = ReadRecord(dir.path());
  EXPECT_EQ(fields["trigger"], "health_trip");
  EXPECT_NE(fields["health"], "healthy");
  EXPECT_FALSE(fields["health_reason"].empty());
  EXPECT_GE(db->metrics().blackbox_captures.load(), 2u);  // flush_failure too
}

TEST(BlackBoxDb, TransientFlushFailureForcesCapture) {
  TempDir dir("blackbox_flushfail");
  Options o = BlackBoxOptions();
  o.fsync_log = true;
  auto opened = Database::Open(dir.path(), o);
  ASSERT_OK(opened.status());
  auto db = std::move(opened).value();
  auto table = db->CreateTable("t", 2);
  ASSERT_OK(table.status());
  RunSmallWorkload(db.get(), table.value(), 3);

  FaultSpec spec;
  spec.kind = FaultKind::kTransientError;
  spec.site = FaultSite::kLogFlush;
  spec.repeat = 1;
  db->fault_injector()->Arm(spec);
  Transaction* txn = db->Begin();
  Status s = table.value()->Insert(txn, {"y", "v"});
  if (s.ok()) s = db->Commit(txn);
  // The commit may still succeed (a follow-up flush attempt heals the
  // transient); the first failure of the streak must be captured either way.
  ASSERT_TRUE(db->fault_injector()->tripped());
  db->fault_injector()->Disarm();

  auto fields = ReadRecord(dir.path());
  EXPECT_EQ(fields["trigger"], "flush_failure");
  EXPECT_EQ(fields["health"], "healthy");  // one transient ≠ degradation

  // The engine heals and keeps going; the record stays until something
  // else overwrites it.
  Transaction* txn2 = db->Begin();
  ASSERT_OK(table.value()->Insert(txn2, {"z", "v"}));
  ASSERT_OK(db->Commit(txn2));
}

TEST(BlackBoxDb, CadenceThreadRefreshesRecord) {
  TempDir dir("blackbox_db_cadence");
  Options o = BlackBoxOptions();
  o.blackbox_interval_ms = 10;
  auto opened = Database::Open(dir.path(), o);
  ASSERT_OK(opened.status());
  auto db = std::move(opened).value();
  ASSERT_NE(db->blackbox(), nullptr);
  EXPECT_TRUE(db->blackbox()->periodic_running());

  for (int i = 0; i < 500 && db->blackbox()->captures() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(db->blackbox()->captures(), 2u);
  auto fields = ReadRecord(dir.path());
  EXPECT_EQ(fields["trigger"], "cadence");
  EXPECT_GT(db->metrics().blackbox_bytes.load(), 0u);
}

}  // namespace
}  // namespace ariesim
