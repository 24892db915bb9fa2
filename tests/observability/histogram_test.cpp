// LatencyHistogram: bucket math invariants, percentile accuracy bounds, and
// concurrent recording. The bucketing promises at most 1/kSubBuckets (12.5%)
// relative error; tests assert a slightly looser 15% to stay off the edge.
// The multi-threaded tests pin the per-thread stripes of LatencyHistogram
// and StripedCounter: every read merges all stripes, exactly once the
// writers are joined.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/histogram.h"

namespace ariesim {
namespace {

constexpr double kRelTol = 0.15;

void ExpectWithin(uint64_t got, uint64_t want, const char* what) {
  double lo = static_cast<double>(want) * (1.0 - kRelTol);
  double hi = static_cast<double>(want) * (1.0 + kRelTol);
  EXPECT_GE(static_cast<double>(got), lo) << what << " want ~" << want;
  EXPECT_LE(static_cast<double>(got), hi) << what << " want ~" << want;
}

TEST(LatencyHistogram, BucketForIsMonotone) {
  size_t prev = 0;
  for (uint64_t v = 0; v < 4096; ++v) {
    size_t b = LatencyHistogram::BucketFor(v);
    EXPECT_GE(b, prev) << "v=" << v;
    prev = b;
  }
  // Spot-check across the whole range, doubling.
  prev = 0;
  for (uint64_t v = 1; v != 0; v <<= 1) {
    size_t b = LatencyHistogram::BucketFor(v);
    EXPECT_GT(b, prev == 0 ? 0u : prev - 1) << "v=" << v;
    EXPECT_LT(b, LatencyHistogram::kNumBuckets);
    prev = b;
  }
  EXPECT_EQ(LatencyHistogram::BucketFor(UINT64_MAX),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(LatencyHistogram, BucketBoundsInvertBucketFor) {
  for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    uint64_t lo = LatencyHistogram::BucketLowerBound(b);
    EXPECT_EQ(LatencyHistogram::BucketFor(lo), b) << "bucket " << b;
    uint64_t mid = LatencyHistogram::BucketMidpoint(b);
    EXPECT_EQ(LatencyHistogram::BucketFor(mid), b) << "bucket " << b;
    EXPECT_GE(mid, lo);
  }
}

TEST(LatencyHistogram, ExactInLinearRegion) {
  // Values below 2*kSubBuckets get a bucket each: zero quantization error.
  for (uint64_t v = 0; v < 2 * LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketFor(v), static_cast<size_t>(v));
    EXPECT_EQ(LatencyHistogram::BucketMidpoint(static_cast<size_t>(v)), v);
  }
}

TEST(LatencyHistogram, SingleValuePercentiles) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(10'000);  // 10 us
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.max_ns, 10'000u);
  EXPECT_EQ(s.sum_ns, 10'000'000u);
  ExpectWithin(s.p50_ns, 10'000, "p50");
  ExpectWithin(s.p95_ns, 10'000, "p95");
  ExpectWithin(s.p99_ns, 10'000, "p99");
  // Percentiles are clamped to the exact max, never above it.
  EXPECT_LE(s.p99_ns, s.max_ns);
}

TEST(LatencyHistogram, BimodalDistribution) {
  LatencyHistogram h;
  // 90% fast (1 us), 10% slow (1 ms): p50 must sit on the fast mode,
  // p95/p99 on the slow one.
  for (int i = 0; i < 900; ++i) h.Record(1'000);
  for (int i = 0; i < 100; ++i) h.Record(1'000'000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  ExpectWithin(s.p50_ns, 1'000, "p50");
  ExpectWithin(s.p95_ns, 1'000'000, "p95");
  ExpectWithin(s.p99_ns, 1'000'000, "p99");
  EXPECT_EQ(s.max_ns, 1'000'000u);
}

TEST(LatencyHistogram, ConcurrentRecording) {
  LatencyHistogram h;
  StripedCounter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, &c, t] {
      // Each thread records a distinct value into its own stripe; once the
      // threads are joined, the merged counts and sum must be exact.
      uint64_t v = 1'000u * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(v);
        c.fetch_add(2, std::memory_order_relaxed);
        c++;
      }
    });
  }
  for (auto& w : workers) w.join();
  const uint64_t n = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(c.load(), 3 * n);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, n);
  EXPECT_EQ(h.count(), n);
  uint64_t want_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    want_sum += 1'000u * static_cast<uint64_t>(t + 1) * kPerThread;
  }
  EXPECT_EQ(s.sum_ns, want_sum);
  EXPECT_EQ(s.max_ns, 8'000u);
  // The eight values fall in eight buckets, each holding one thread's.
  uint64_t buckets[LatencyHistogram::kNumBuckets];
  h.CopyBuckets(buckets);
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  EXPECT_EQ(total, n);
  for (int t = 0; t < kThreads; ++t) {
    const uint64_t v = 1'000u * static_cast<uint64_t>(t + 1);
    EXPECT_EQ(buckets[LatencyHistogram::BucketFor(v)], uint64_t{kPerThread})
        << "v=" << v;
  }
  // p50 of the uniform mixture over {1k..8k} is the 4th value.
  ExpectWithin(s.p50_ns, 5'000, "p50");
  EXPECT_LE(s.p99_ns, s.max_ns);
}

constexpr int kStripedThreads = 8;

// Runs `body(t)` on kStripedThreads threads and joins them.
template <typename Body>
void OnStripedThreads(Body body) {
  std::vector<std::thread> workers;
  for (int t = 0; t < kStripedThreads; ++t) workers.emplace_back(body, t);
  for (auto& w : workers) w.join();
}

TEST(StripedMetrics, MaxOfOneStripeWins) {
  LatencyHistogram h;
  h.Record(100);  // this thread's stripe
  const size_t mine = ThisThreadStripe();
  // The maximum lands on a stripe that is neither this thread's nor 0.
  for (bool recorded = false; !recorded;) {
    std::thread([&] {
      const size_t stripe = ThisThreadStripe();
      if (stripe != mine && stripe != 0) {
        h.Record(9'999'999);
        recorded = true;
      }
    }).join();
  }
  OnStripedThreads([&](int t) { h.Record(1'000u * (t + 1)); });
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 2u + kStripedThreads);
  EXPECT_EQ(s.max_ns, 9'999'999u);
  EXPECT_LE(s.p99_ns, s.max_ns);
}

TEST(StripedMetrics, GaugeStoreThenLoad) {
  StripedCounter gauge;
  OnStripedThreads([&](int t) { gauge.fetch_add(t + 1); });
  ASSERT_EQ(gauge.load(), 36u);
  // A gauge's store replaces the whole value, whatever the stripes held.
  gauge.store(42);
  EXPECT_EQ(gauge.load(), 42u);
  std::thread([&] { gauge.store(7, std::memory_order_relaxed); }).join();
  EXPECT_EQ(gauge.load(std::memory_order_relaxed), 7u);
}

TEST(LatencyHistogram, ResetZeroesEverything) {
  LatencyHistogram h;
  StripedCounter c;
  // Every thread's stripe holds something before the reset.
  OnStripedThreads([&](int t) {
    for (int i = 0; i < 100; ++i) {
      h.Record(12'345u * (t + 1));
      c++;
    }
  });
  ASSERT_EQ(c.load(), 800u);
  h.Reset();
  c.store(0);
  EXPECT_EQ(c.load(), 0u);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum_ns, 0u);
  EXPECT_EQ(s.max_ns, 0u);
  EXPECT_EQ(s.p50_ns, 0u);
  EXPECT_EQ(h.count(), 0u);
  uint64_t buckets[LatencyHistogram::kNumBuckets];
  h.CopyBuckets(buckets);
  for (uint64_t b : buckets) EXPECT_EQ(b, 0u);
  // The stripes count again from zero.
  OnStripedThreads([&](int) { h.Record(7); });
  EXPECT_EQ(h.Snapshot().count, uint64_t{kStripedThreads});
  EXPECT_EQ(h.Snapshot().max_ns, 7u);
}

TEST(LatencyHistogram, ScopedLatencyRecordsAndCancels) {
  LatencyHistogram h;
  { ScopedLatency timer(&h); }
  EXPECT_EQ(h.count(), 1u);
  {
    ScopedLatency timer(&h);
    timer.Cancel();
  }
  EXPECT_EQ(h.count(), 1u);
  { ScopedLatency timer(nullptr); }  // null histogram: no-op, no crash
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramSnapshot, UnitConversions) {
  HistogramSnapshot s;
  s.count = 4;
  s.sum_ns = 10'000;
  s.p50_ns = 1'500;
  s.max_ns = 4'000;
  EXPECT_DOUBLE_EQ(s.mean_us(), 2.5);
  EXPECT_DOUBLE_EQ(s.p50_us(), 1.5);
  EXPECT_DOUBLE_EQ(s.max_us(), 4.0);
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.mean_us(), 0.0);
}

}  // namespace
}  // namespace ariesim
