// Time-series sampler (PR 9): manual-mode sampling and deltas, the bounded
// ring, background-thread lifecycle, the JSONL stream's replay invariants
// (monotonic seq/counters, delta consistency), and the Database wiring
// (default off — no thread; interval > 0 — sampler running and streaming).
#include "common/metrics_sampler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "test_util.h"
#include "util/fault_injector.h"

namespace ariesim {
namespace {

using ariesim::testing::DefaultOptions;
using ariesim::testing::TempDir;

// Minimal JSONL field extraction: the numeric value of `"key":` after
// position `from`. Returns false if the key isn't there.
bool ExtractU64(const std::string& line, const std::string& key, size_t from,
                uint64_t* out) {
  size_t pos = line.find("\"" + key + "\":", from);
  if (pos == std::string::npos) return false;
  pos += key.size() + 3;
  *out = std::strtoull(line.c_str() + pos, nullptr, 10);
  return true;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(MetricsSampler, ManualModeSamplesAndDeltas) {
  Metrics m;
  MetricsSampler sampler(&m, /*interval_ms=*/0, /*jsonl_path=*/"");
  sampler.Start();  // no-op in manual mode
  EXPECT_FALSE(sampler.running());

  m.pages_read.fetch_add(3);
  MetricsSample s0 = sampler.SampleOnce();
  EXPECT_EQ(s0.seq, 0u);

  m.pages_read.fetch_add(7);
  m.commit_latency.Record(1'000'000);
  MetricsSample s1 = sampler.SampleOnce();
  EXPECT_EQ(s1.seq, 1u);
  EXPECT_GT(s1.t_ns, 0u);
  EXPECT_GE(s1.t_ns, s0.t_ns);

  // Locate pages_read's slot via the name table and check the cumulative
  // values and the rendered delta agree.
  size_t slot = Metrics::kCounterCount;
  const char* const* names = Metrics::CounterNames();
  for (size_t i = 0; i < Metrics::kCounterCount; ++i) {
    if (std::string(names[i]) == "pages_read") slot = i;
  }
  ASSERT_LT(slot, Metrics::kCounterCount);
  EXPECT_EQ(s0.counters[slot], 3u);
  EXPECT_EQ(s1.counters[slot], 10u);

  std::string line = MetricsSampler::ToJsonl(s1, &s0);
  size_t dpos = line.find("\"deltas\":{");
  ASSERT_NE(dpos, std::string::npos) << line;
  uint64_t delta = 0;
  ASSERT_TRUE(ExtractU64(line, "pages_read", dpos, &delta)) << line;
  EXPECT_EQ(delta, 7u);
  EXPECT_NE(line.find("\"rates_per_s\":{"), std::string::npos) << line;
  EXPECT_NE(line.find("\"histograms\":{"), std::string::npos) << line;
}

TEST(MetricsSampler, RingIsBounded) {
  Metrics m;
  MetricsSampler sampler(&m, 0, "", /*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) sampler.SampleOnce();
  std::vector<MetricsSample> recent = sampler.RecentSamples();
  ASSERT_EQ(recent.size(), 4u);
  // Oldest-first, and the oldest six were dropped.
  EXPECT_EQ(recent.front().seq, 6u);
  EXPECT_EQ(recent.back().seq, 9u);
  // max-limited view
  EXPECT_EQ(sampler.RecentSamples(2).size(), 2u);
  EXPECT_EQ(sampler.RecentSamples(2).front().seq, 8u);
}

TEST(MetricsSampler, BackgroundThreadLifecycle) {
  Metrics m;
  MetricsSampler sampler(&m, /*interval_ms=*/5, "");
  EXPECT_FALSE(sampler.running());
  sampler.Start();
  EXPECT_TRUE(sampler.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  // Immediate sample on start + periodic ticks + final sample on stop.
  EXPECT_GE(sampler.sample_count(), 2u);
  size_t after_stop = sampler.sample_count();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sampler.sample_count(), after_stop) << "sampled after Stop()";
  sampler.Stop();  // idempotent
}

// The JSONL stream must replay cleanly: seq strictly increasing, cumulative
// counters monotonic, and each line's delta equal to the difference of
// consecutive cumulative values.
TEST(MetricsSampler, JsonlReplayConsistency) {
  TempDir dir("sampler_jsonl");
  std::string path = dir.path() + "/metrics.jsonl";
  Metrics m;
  MetricsSampler sampler(&m, 0, path);
  for (int i = 0; i < 5; ++i) {
    m.pages_read.fetch_add(static_cast<uint64_t>(i) * 11 + 1);
    m.log_records.fetch_add(2);
    m.commit_latency.Record(500'000 + i * 1000);
    sampler.SampleOnce();
  }

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 5u);
  uint64_t prev_seq = 0, prev_pages = 0;
  bool first = true;
  for (const std::string& line : lines) {
    uint64_t seq = 0;
    ASSERT_TRUE(ExtractU64(line, "seq", 0, &seq)) << line;
    if (!first) {
      EXPECT_EQ(seq, prev_seq + 1) << "seq gap: " << line;
    }

    size_t cpos = line.find("\"counters\":{");
    size_t dpos = line.find("\"deltas\":{");
    ASSERT_NE(cpos, std::string::npos) << line;
    ASSERT_NE(dpos, std::string::npos) << line;
    ASSERT_LT(cpos, dpos) << line;
    uint64_t pages = 0, delta = 0;
    ASSERT_TRUE(ExtractU64(line, "pages_read", cpos, &pages)) << line;
    ASSERT_TRUE(ExtractU64(line, "pages_read", dpos, &delta)) << line;
    EXPECT_GE(pages, prev_pages) << "counter went backwards: " << line;
    // Delta consistency: first line deltas are against zero.
    EXPECT_EQ(delta, pages - (first ? 0 : prev_pages)) << line;

    // Histogram snapshots ride along with counts.
    EXPECT_NE(line.find("\"commit_latency\":{\"count\":"), std::string::npos)
        << line;
    prev_seq = seq;
    prev_pages = pages;
    first = false;
  }
}

TEST(MetricsSampler, DatabaseDefaultHasNoSampler) {
  TempDir dir("sampler_off");
  auto db = std::move(Database::Open(dir.path(), DefaultOptions()).value());
  EXPECT_EQ(db->sampler(), nullptr)
      << "metrics_sample_interval_ms=0 must not spawn a sampler";
}

TEST(MetricsSampler, DatabaseIntegrationStreamsJsonl) {
  TempDir dir("sampler_db");
  std::string path = dir.path() + "/metrics.jsonl";
  Options opts = DefaultOptions();
  opts.metrics_sample_interval_ms = 10;
  opts.metrics_log_path = path;
  {
    auto db = std::move(Database::Open(dir.path(), opts).value());
    ASSERT_NE(db->sampler(), nullptr);
    EXPECT_TRUE(db->sampler()->running());
    db->CreateTable("t", 2).value();
    Table* table = db->GetTable("t");
    for (int i = 0; i < 10; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_OK(table->Insert(txn, {"k" + std::to_string(i), "v"}));
      ASSERT_OK(db->Commit(txn));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(35));
  }  // ~Database stops the sampler (final sample flushed)
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_GE(lines.size(), 2u);
  uint64_t prev_seq = 0;
  bool first = true;
  for (const std::string& line : lines) {
    uint64_t seq = 0;
    ASSERT_TRUE(ExtractU64(line, "seq", 0, &seq)) << line;
    if (!first) {
      EXPECT_EQ(seq, prev_seq + 1);
    }
    prev_seq = seq;
    first = false;
  }
  // The workload's commits are visible in the final histogram snapshot.
  uint64_t commits = 0;
  size_t hpos = lines.back().find("\"commit_latency\":{");
  ASSERT_NE(hpos, std::string::npos) << lines.back();
  ASSERT_TRUE(ExtractU64(lines.back(), "count", hpos, &commits));
  EXPECT_GE(commits, 10u);
}

// The JSONL stream is the postmortem's timeline, so its tail must survive a
// crash intact: every line that made it to the file is complete (each is
// flushed as written, and Stop fsyncs), seq stays contiguous, and a torn
// crash of the engine's own files never tears the sidecar stream.
TEST(MetricsSampler, JsonlTailSurvivesTornCrash) {
  TempDir dir("sampler_torn");
  std::string path = dir.path() + "/metrics.jsonl";
  Options opts = DefaultOptions();
  opts.metrics_sample_interval_ms = 10;
  opts.metrics_log_path = path;
  {
    auto db = std::move(Database::Open(dir.path(), opts).value());
    ASSERT_NE(db->sampler(), nullptr);
    db->CreateTable("t", 2).value();
    Table* table = db->GetTable("t");
    for (int i = 0; i < 10; ++i) {
      Transaction* txn = db->Begin();
      ASSERT_OK(table->Insert(txn, {"k" + std::to_string(i), "v"}));
      ASSERT_OK(db->Commit(txn));
    }
    // Let at least two periodic samples land, then crash with a torn log
    // tail (SimulateCrash inside stops the sampler, which fsyncs the file).
    for (int i = 0; i < 500 && db->sampler()->sample_count() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    TornCrashSpec spec;
    spec.target = TornCrashSpec::Target::kLogTail;
    spec.truncate_to = db->wal()->flushed_lsn() - 5;  // inside a record
    ASSERT_OK(db->SimulateTornCrash(spec));
  }

  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 2u);
  uint64_t prev_seq = 0;
  bool first = true;
  for (const std::string& l : lines) {
    ASSERT_FALSE(l.empty());
    EXPECT_EQ(l.front(), '{') << l;
    EXPECT_EQ(l.back(), '}') << "torn JSONL line: " << l;
    uint64_t seq = 0;
    ASSERT_TRUE(ExtractU64(l, "seq", 0, &seq)) << l;
    if (!first) {
      EXPECT_EQ(seq, prev_seq + 1) << "seq gap at: " << l;
    }
    prev_seq = seq;
    first = false;
  }
}

}  // namespace
}  // namespace ariesim
