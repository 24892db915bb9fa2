// Guards the "exhaustive by construction" property of Metrics::ToJson():
// every counter and histogram must reach it, each under its own name, and
// the struct layout must match the X-macro declarations — a member added
// outside ARIESIM_METRICS_COUNTERS / ARIESIM_METRICS_HISTOGRAMS changes
// sizeof/offsetof and fails here instead of silently missing from the stats.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "common/metrics.h"

namespace ariesim {
namespace {

// Layout check: the counters are kCounterCount StripedCounters laid out
// first, the histograms directly after. Any member declared outside the
// X-macros (or a histogram squeezed between counters) breaks one of these
// equalities.
static_assert(offsetof(Metrics, commit_latency) ==
                  Metrics::kCounterCount * sizeof(StripedCounter),
              "a Metrics counter was added outside ARIESIM_METRICS_COUNTERS");
static_assert(sizeof(Metrics) ==
                  Metrics::kCounterCount * sizeof(StripedCounter) +
                      Metrics::kHistogramCount * sizeof(LatencyHistogram),
              "a Metrics member was added outside the X-macros");

TEST(MetricsEmission, EveryCounterAndHistogramInToJson) {
  Metrics m;
  // Distinct values so we also verify each name maps to its own member.
  uint64_t next = 0;
#define ARIESIM_TEST_SET(name) m.name.store(++next, std::memory_order_relaxed);
  ARIESIM_METRICS_COUNTERS(ARIESIM_TEST_SET)
#undef ARIESIM_TEST_SET
  m.commit_latency.Record(1'000'000);
  std::string j = m.ToJson();
  const char* const* cnames = Metrics::CounterNames();
  for (size_t i = 0; i < Metrics::kCounterCount; ++i) {
    std::string token =
        "\"" + std::string(cnames[i]) + "\":" + std::to_string(i + 1) + ",";
    if (i + 1 == Metrics::kCounterCount) token.back() = '}';
    EXPECT_NE(j.find(token), std::string::npos)
        << "counter '" << cnames[i] << "' missing (or wrong) in ToJson(): "
        << j;
  }
  const char* const* hnames = Metrics::HistogramNames();
  for (size_t i = 0; i < Metrics::kHistogramCount; ++i) {
    std::string key = "\"" + std::string(hnames[i]) + "\":{\"count\":";
    EXPECT_NE(j.find(key), std::string::npos)
        << "histogram '" << hnames[i] << "' missing in ToJson(): " << j;
  }
  // Histogram objects carry the full percentile key set even when empty.
  for (const char* key : {"\"p50_us\":", "\"p95_us\":", "\"p99_us\":",
                          "\"max_us\":", "\"mean_us\":"}) {
    EXPECT_NE(j.find(key), std::string::npos) << key << " missing: " << j;
  }
  EXPECT_NE(j.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(j.find("\"histograms\":{"), std::string::npos);
}

TEST(MetricsEmission, ResetCoversHistograms) {
  Metrics m;
  m.pages_read.fetch_add(5);
  m.repair_latency.Record(123'456);
  m.Reset();
  EXPECT_EQ(m.pages_read.load(), 0u);
  EXPECT_EQ(m.repair_latency.count(), 0u);
}

TEST(MetricsEmission, NameTablesMatchCounts) {
  // The tables are generated from the same X-macros; spot-check ordering
  // against known first/last members.
  EXPECT_STREQ(Metrics::CounterNames()[0], "lock_requests");
  // lock_detect_rounds was appended after btree_backoffs.
  EXPECT_STREQ(Metrics::CounterNames()[Metrics::kCounterCount - 1],
               "lock_detect_rounds");
  EXPECT_STREQ(Metrics::HistogramNames()[0], "commit_latency");
  // PR 9 appended the seven commit_seg_* histograms after smo_latency.
  EXPECT_STREQ(Metrics::HistogramNames()[Metrics::kHistogramCount - 1],
               "commit_seg_wakeup");
}

}  // namespace
}  // namespace ariesim
