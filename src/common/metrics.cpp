// Out-of-line Metrics emitters: the registry snapshot and its JSON
// documents, and the OpenMetrics/Prometheus text exposition. Kept out of the
// header so the bucket-walking and float formatting compile once.
#include "common/metrics.h"

#include <cstdio>
#include <string_view>

#include "common/clock.h"
#include "common/commit_breakdown.h"
#include "common/json.h"

namespace ariesim {

namespace {

// Shortest-round-trip-ish float for OpenMetrics sample values ("1.024e-06").
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Fraction digits of microsecond latencies and of share-of-total ratios.
constexpr int kUsDigits = 3;
constexpr int kShareDigits = 4;

// Slot of each histogram in MetricsSnapshot::hists, by member name.
enum HistogramSlot : size_t {
#define ARIESIM_HISTOGRAM_SLOT(name) kSlot_##name,
  ARIESIM_METRICS_HISTOGRAMS(ARIESIM_HISTOGRAM_SLOT)
#undef ARIESIM_HISTOGRAM_SLOT
};

// The one counter that is semantically a gauge (last observed value, not a
// monotonic count): flagged so the exposition doesn't lie about its TYPE.
bool IsGaugeCounter(const char* name) {
  return std::string_view(name) == "instant_restart_open_us";
}

void AppendHistogramOpenMetrics(const char* name, const LatencyHistogram& h,
                                uint64_t sum_ns, std::string* out) {
  std::string family = "ariesim_";
  family += name;
  family += "_seconds";
  *out += "# TYPE " + family + " histogram\n";
  *out += "# UNIT " + family + " seconds\n";
  *out += "# HELP " + family + " Latency histogram " + name +
          " (see docs/METRICS.md).\n";
  uint64_t buckets[LatencyHistogram::kNumBuckets];
  h.CopyBuckets(buckets);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; i++) {
    if (buckets[i] == 0) continue;
    cumulative += buckets[i];
    // `le` is the bucket's inclusive upper bound: the next bucket's lower
    // bound, in seconds. The last bucket's bound saturates into +Inf below.
    if (i + 1 < LatencyHistogram::kNumBuckets) {
      double le_s =
          static_cast<double>(LatencyHistogram::BucketLowerBound(i + 1)) /
          1e9;
      *out += family + "_bucket{le=\"" + FormatDouble(le_s) + "\"} " +
              std::to_string(cumulative) + "\n";
    }
  }
  // +Inf and _count both come from the buckets copied above, so they agree
  // with the finite buckets even under concurrent writers.
  *out += family + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
          "\n";
  *out += family + "_sum " +
          FormatDouble(static_cast<double>(sum_ns) / 1e9) + "\n";
  *out += family + "_count " + std::to_string(cumulative) + "\n";
}

}  // namespace

std::string Metrics::ToOpenMetrics() const {
  std::string out;
  out.reserve(16384);
  const char* const* counter_names = CounterNames();
  const MetricsSnapshot snap = Snapshot();
  for (size_t i = 0; i < kCounterCount; i++) {
    const char* name = counter_names[i];
    std::string family = "ariesim_";
    family += name;
    uint64_t value = snap.counters[i];
    if (IsGaugeCounter(name)) {
      out += "# TYPE " + family + " gauge\n";
      out += "# HELP " + family + " Gauge " + name +
             " (see docs/METRICS.md).\n";
      out += family + " " + std::to_string(value) + "\n";
    } else {
      out += "# TYPE " + family + " counter\n";
      out += "# HELP " + family + " Total " + name +
             " events (see docs/METRICS.md).\n";
      out += family + "_total " + std::to_string(value) + "\n";
    }
  }
  size_t h = 0;
#define ARIESIM_OPENMETRICS_HISTOGRAM(n) \
  AppendHistogramOpenMetrics(#n, n, snap.hists[h++].sum_ns, &out);
  ARIESIM_METRICS_HISTOGRAMS(ARIESIM_OPENMETRICS_HISTOGRAM)
#undef ARIESIM_OPENMETRICS_HISTOGRAM
  out += "# EOF\n";
  return out;
}

std::string Metrics::ToJson() const {
  std::string out;
  out.reserve(4096);
  JsonWriter w(&out);
  Snapshot().WriteJson(&w);
  return out;
}

std::string Metrics::CommitBreakdownJson() const {
  std::string out;
  JsonWriter w(&out);
  Snapshot().WriteCommitBreakdownJson(&w);
  return out;
}

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot s;
  s.t_ns = MonotonicNowNs();
  size_t i = 0;
#define ARIESIM_SNAPSHOT_COUNTER(n) \
  s.counters[i++] = n.load(std::memory_order_relaxed);
  ARIESIM_METRICS_COUNTERS(ARIESIM_SNAPSHOT_COUNTER)
#undef ARIESIM_SNAPSHOT_COUNTER
  i = 0;
#define ARIESIM_SNAPSHOT_HISTOGRAM(n) s.hists[i++] = n.Snapshot();
  ARIESIM_METRICS_HISTOGRAMS(ARIESIM_SNAPSHOT_HISTOGRAM)
#undef ARIESIM_SNAPSHOT_HISTOGRAM
  return s;
}

void MetricsSnapshot::WriteJson(JsonWriter* w) const {
  const char* const* cnames = Metrics::CounterNames();
  const char* const* hnames = Metrics::HistogramNames();
  w->BeginObject().Key("counters").BeginObject();
  for (size_t i = 0; i < Metrics::kCounterCount; i++) {
    w->Key(cnames[i]).Uint(counters[i]);
  }
  w->EndObject().Key("histograms").BeginObject();
  for (size_t i = 0; i < Metrics::kHistogramCount; i++) {
    const HistogramSnapshot& h = hists[i];
    w->Key(hnames[i]).BeginObject()
        .Key("count").Uint(h.count)
        .Key("p50_us").Fixed(h.p50_us(), kUsDigits)
        .Key("p95_us").Fixed(h.p95_us(), kUsDigits)
        .Key("p99_us").Fixed(h.p99_us(), kUsDigits)
        .Key("max_us").Fixed(h.max_us(), kUsDigits)
        .Key("mean_us").Fixed(h.mean_us(), kUsDigits)
        .EndObject();
  }
  w->EndObject().EndObject();
}

void MetricsSnapshot::WriteCommitBreakdownJson(JsonWriter* w) const {
  // Segment histograms in ARIESIM_COMMIT_SEGMENTS order. The name pairing
  // (commit_seg_<segment>) is verified by commit_breakdown_test.cpp.
#define ARIESIM_SEGMENT_SLOT(name) &hists[kSlot_commit_seg_##name],
  const HistogramSnapshot* const segs[kCommitSegmentCount] = {
      ARIESIM_COMMIT_SEGMENTS(ARIESIM_SEGMENT_SLOT)};
#undef ARIESIM_SEGMENT_SLOT
  uint64_t total_sum_ns = 0;
  for (const HistogramSnapshot* s : segs) total_sum_ns += s->sum_ns;
  const char* const* names = CommitBreakdown::SegmentNames();
  w->BeginObject().Key("segments").BeginObject();
  for (size_t i = 0; i < kCommitSegmentCount; i++) {
    const HistogramSnapshot& s = *segs[i];
    w->Key(names[i]).BeginObject()
        .Key("count").Uint(s.count)
        .Key("p50_us").Fixed(s.p50_us(), kUsDigits)
        .Key("p95_us").Fixed(s.p95_us(), kUsDigits)
        .Key("mean_us").Fixed(s.mean_us(), kUsDigits)
        .Key("sum_ms").Fixed(s.sum_ns / 1e6, kUsDigits)
        .Key("share")
        .Fixed(total_sum_ns == 0 ? 0.0
                                 : static_cast<double>(s.sum_ns) /
                                       static_cast<double>(total_sum_ns),
               kShareDigits)
        .EndObject();
  }
  // Accounting check against the end-to-end commit_latency histogram: the
  // commit-path segments (log_append..wakeup) should explain >=90% of a
  // fsync-bound commit's latency; lock/latch waits accrue before Commit()
  // and are reported but excluded from the path sum.
  const HistogramSnapshot& commit = hists[kSlot_commit_latency];
  double path_p50_us = 0, path_mean_us = 0;
  for (size_t i = static_cast<size_t>(CommitSegment::log_append);
       i < kCommitSegmentCount; i++) {
    path_p50_us += segs[i]->p50_us();
    path_mean_us += segs[i]->mean_us();
  }
  w->EndObject()
      .Key("accounted").BeginObject()
      .Key("commit_count").Uint(commit.count)
      .Key("commit_p50_us").Fixed(commit.p50_us(), kUsDigits)
      .Key("commit_mean_us").Fixed(commit.mean_us(), kUsDigits)
      .Key("path_p50_us_sum").Fixed(path_p50_us, kUsDigits)
      .Key("path_mean_us_sum").Fixed(path_mean_us, kUsDigits)
      .Key("p50_share")
      .Fixed(commit.p50_us() == 0 ? 0.0 : path_p50_us / commit.p50_us(),
             kShareDigits)
      .Key("mean_share")
      .Fixed(commit.mean_us() == 0 ? 0.0 : path_mean_us / commit.mean_us(),
             kShareDigits)
      .EndObject()
      .EndObject();
}

}  // namespace ariesim
