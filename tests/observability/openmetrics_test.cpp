// OpenMetrics exposition (PR 9): Metrics::ToOpenMetrics() must announce every
// counter and histogram family (exhaustively, from the X-macro name tables),
// use counter/gauge/histogram types correctly, emit monotonic cumulative
// buckets with a +Inf == _count cap, and terminate with "# EOF". The
// format-level lint also runs out-of-process (tools/check_openmetrics.sh over
// an ariesh session's .metrics output); this suite checks the same invariants
// in-process where it can tie them back to the registry's ground truth.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace ariesim {
namespace {

// All lines starting with `prefix`, in order.
std::vector<std::string> LinesWithPrefix(const std::string& text,
                                         const std::string& prefix) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
    pos = eol + 1;
  }
  return out;
}

TEST(OpenMetrics, EveryFamilyAnnouncedAndSampled) {
  Metrics m;
  m.pages_read.fetch_add(42);
  m.commit_latency.Record(1'000'000);
  std::string text = m.ToOpenMetrics();

  const char* const* cnames = Metrics::CounterNames();
  for (size_t i = 0; i < Metrics::kCounterCount; ++i) {
    std::string family = "ariesim_" + std::string(cnames[i]);
    const bool gauge = std::string(cnames[i]) == "instant_restart_open_us";
    EXPECT_NE(text.find("# TYPE " + family +
                        (gauge ? " gauge\n" : " counter\n")),
              std::string::npos)
        << family << " TYPE missing";
    EXPECT_NE(text.find("# HELP " + family + " "), std::string::npos)
        << family << " HELP missing";
    // Counters sample with the _total suffix; the gauge samples bare.
    std::string sample =
        "\n" + family + (gauge ? " " : "_total ");
    EXPECT_NE(text.find(sample), std::string::npos)
        << family << " sample missing";
  }
  const char* const* hnames = Metrics::HistogramNames();
  for (size_t i = 0; i < Metrics::kHistogramCount; ++i) {
    std::string family = "ariesim_" + std::string(hnames[i]) + "_seconds";
    EXPECT_NE(text.find("# TYPE " + family + " histogram\n"),
              std::string::npos)
        << family << " TYPE missing";
    EXPECT_NE(text.find("# UNIT " + family + " seconds\n"), std::string::npos)
        << family << " UNIT missing";
    EXPECT_NE(text.find(family + "_bucket{le=\"+Inf\"} "), std::string::npos)
        << family << " +Inf bucket missing";
    EXPECT_NE(text.find("\n" + family + "_sum "), std::string::npos)
        << family << " _sum missing";
    EXPECT_NE(text.find("\n" + family + "_count "), std::string::npos)
        << family << " _count missing";
  }
  // The known sample values round-trip.
  EXPECT_NE(text.find("ariesim_pages_read_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("ariesim_commit_latency_seconds_count 1\n"),
            std::string::npos);
}

TEST(OpenMetrics, BucketsAreCumulativeAndCapped) {
  Metrics m;
  // Spread observations across several buckets.
  for (int i = 0; i < 100; ++i) {
    m.commit_latency.Record(10'000ull << (i % 8));  // 10us .. 1.28ms
  }
  std::string text = m.ToOpenMetrics();
  std::vector<std::string> buckets =
      LinesWithPrefix(text, "ariesim_commit_latency_seconds_bucket{");
  ASSERT_GE(buckets.size(), 3u) << text;

  double prev_le = -1.0;
  uint64_t prev_cum = 0;
  uint64_t inf_value = 0;
  bool saw_inf = false;
  for (const std::string& line : buckets) {
    size_t le_pos = line.find("le=\"") + 4;
    size_t le_end = line.find('"', le_pos);
    std::string le = line.substr(le_pos, le_end - le_pos);
    uint64_t value =
        std::strtoull(line.c_str() + line.find("} ") + 2, nullptr, 10);
    if (le == "+Inf") {
      EXPECT_FALSE(saw_inf) << "two +Inf buckets";
      saw_inf = true;
      inf_value = value;
    } else {
      ASSERT_FALSE(saw_inf) << "finite bucket after +Inf";
      double le_s = std::strtod(le.c_str(), nullptr);
      EXPECT_GT(le_s, prev_le) << "le not strictly increasing: " << line;
      EXPECT_GE(value, prev_cum) << "cumulative count decreased: " << line;
      prev_le = le_s;
      prev_cum = value;
    }
  }
  ASSERT_TRUE(saw_inf);
  EXPECT_GE(inf_value, prev_cum);
  EXPECT_EQ(inf_value, m.commit_latency.count());
  EXPECT_NE(text.find("ariesim_commit_latency_seconds_count 100\n"),
            std::string::npos);
}

TEST(OpenMetrics, TerminatesWithEof) {
  Metrics m;
  std::string text = m.ToOpenMetrics();
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  // Exactly one EOF, and nothing after it.
  EXPECT_EQ(text.find("# EOF\n"), text.size() - 6);
}

TEST(OpenMetrics, EmptyHistogramStillWellFormed) {
  Metrics m;  // nothing recorded at all
  std::string text = m.ToOpenMetrics();
  // No finite buckets, but +Inf/_sum/_count are present and zero.
  EXPECT_NE(text.find("ariesim_smo_latency_seconds_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ariesim_smo_latency_seconds_count 0\n"),
            std::string::npos);
}

}  // namespace
}  // namespace ariesim
