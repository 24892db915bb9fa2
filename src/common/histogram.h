// Lock-free log-bucketed latency histogram (see docs/OBSERVABILITY.md).
//
// HdrHistogram-style bucketing: values are binned by their power of two
// (major bucket) subdivided into kSubBuckets linear sub-buckets, giving a
// constant relative error of at most 1/kSubBuckets (12.5%) across the whole
// 64-bit range with a fixed ~4 KiB of storage. Record() is two relaxed
// fetch_adds plus a CAS loop for the max — safe from any thread, never
// blocking, and cheap enough to leave on in production builds (the operations
// we measure — fsyncs, page reads, lock waits — are microseconds at best).
//
// Snapshot() copies the buckets with relaxed loads; under concurrent writers
// the result is a slightly fuzzy but internally consistent-enough view
// (counts never go backwards, percentiles are computed from whatever landed).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "common/clock.h"

namespace ariesim {

/// Point-in-time copy of a histogram, with percentiles precomputed.
/// Durations are recorded in nanoseconds; the *_us helpers convert for
/// reporting (microseconds is the natural unit for engine latencies).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t max_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;

  double mean_us() const { return count == 0 ? 0.0 : sum_ns / 1000.0 / count; }
  double p50_us() const { return p50_ns / 1000.0; }
  double p95_us() const { return p95_ns / 1000.0; }
  double p99_us() const { return p99_ns / 1000.0; }
  double max_us() const { return max_ns / 1000.0; }
};

class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 3;                   // 8 sub-buckets
  static constexpr uint64_t kSubBuckets = 1u << kSubBucketBits;
  // Linear region [0, 2*kSubBuckets) (two majors' worth of slots) plus
  // kSubBuckets per remaining power of two: covers every uint64_t value.
  // Highest index is BucketFor(UINT64_MAX) = kNumBuckets - 1.
  static constexpr size_t kNumBuckets = (64 - kSubBucketBits + 1) * kSubBuckets;

  /// Bucket index for a value. Monotone in `v`; exact below 2*kSubBuckets,
  /// then one bucket per 1/kSubBuckets of each power-of-two range.
  static constexpr size_t BucketFor(uint64_t v) {
    int width = 64 - std::countl_zero(v | 1);  // >= 1
    if (width <= kSubBucketBits + 1) return static_cast<size_t>(v);
    int shift = width - kSubBucketBits - 1;
    uint64_t top = v >> shift;  // in [kSubBuckets, 2*kSubBuckets)
    return static_cast<size_t>(shift + 1) * kSubBuckets +
           static_cast<size_t>(top - kSubBuckets);
  }

  /// Inclusive lower bound of a bucket's value range (inverse of BucketFor).
  static constexpr uint64_t BucketLowerBound(size_t bucket) {
    if (bucket < 2 * kSubBuckets) return bucket;
    int shift = static_cast<int>(bucket / kSubBuckets) - 1;
    uint64_t top = kSubBuckets + bucket % kSubBuckets;
    return top << shift;
  }

  /// Midpoint of a bucket's range — what percentiles report for it.
  static constexpr uint64_t BucketMidpoint(size_t bucket) {
    if (bucket < 2 * kSubBuckets) return bucket;
    int shift = static_cast<int>(bucket / kSubBuckets) - 1;
    return BucketLowerBound(bucket) + (uint64_t{1} << shift) / 2;
  }

  void Record(uint64_t ns) {
    buckets_[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (ns > prev &&
           !max_.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
    }
  }

  /// Observations so far: the bucket sum, with Snapshot()'s fuzziness.
  uint64_t count() const {
    uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    uint64_t counts[kNumBuckets];
    uint64_t total = 0;
    for (size_t i = 0; i < kNumBuckets; i++) {
      counts[i] = buckets_[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
    s.count = total;
    s.sum_ns = sum_.load(std::memory_order_relaxed);
    s.max_ns = max_.load(std::memory_order_relaxed);
    s.p50_ns = ValueAt(counts, total, 0.50);
    s.p95_ns = ValueAt(counts, total, 0.95);
    s.p99_ns = ValueAt(counts, total, 0.99);
    // The max is tracked exactly; never report a bucket midpoint above it.
    s.p50_ns = std::min(s.p50_ns, s.max_ns);
    s.p95_ns = std::min(s.p95_ns, s.max_ns);
    s.p99_ns = std::min(s.p99_ns, s.max_ns);
    return s;
  }

  /// Relaxed copy of all kNumBuckets per-bucket counts into `out` (sized by
  /// the caller). Feeds the OpenMetrics bucket exposition; same fuzziness
  /// contract as Snapshot().
  void CopyBuckets(uint64_t* out) const {
    for (size_t i = 0; i < kNumBuckets; i++) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  /// Midpoint of the bucket holding the `q`-quantile observation.
  static uint64_t ValueAt(const uint64_t* counts, uint64_t total, double q) {
    if (total == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
    if (rank >= total) rank = total - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; i++) {
      seen += counts[i];
      if (seen > rank) return BucketMidpoint(i);
    }
    return BucketMidpoint(kNumBuckets - 1);
  }

  std::atomic<uint64_t> buckets_[kNumBuckets]{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// RAII latency recorder: records the elapsed time into `h` on scope exit.
/// A null histogram makes it a no-op (components with no Metrics wired).
class ScopedLatency {
 public:
  explicit ScopedLatency(LatencyHistogram* h)
      : hist_(h), start_ns_(h != nullptr ? MonotonicNowNs() : 0) {}
  ~ScopedLatency() {
    if (hist_ != nullptr) hist_->Record(MonotonicNowNs() - start_ns_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

  /// Detach without recording (e.g. the operation turned out to be a no-op).
  void Cancel() { hist_ = nullptr; }

 private:
  LatencyHistogram* hist_;
  uint64_t start_ns_;
};

}  // namespace ariesim
