// Lock-free metric cells, striped per thread (see docs/OBSERVABILITY.md):
// a counter and a log-bucketed latency histogram.
//
// Striping: each cell holds kStripes cache-line-aligned stripes, and each
// thread writes only the stripe ThisThreadStripe() handed it, so threads on
// different cores never bounce a metric's cache line. Readers (load,
// Snapshot, CopyBuckets, count) sum every stripe with relaxed loads; under
// concurrent writers the result is fuzzy but never goes backwards, and it is
// exact once the writers are joined. More than kStripes threads share
// stripes, which stays correct because every write is an atomic RMW.
//
// HdrHistogram-style bucketing: values are binned by their power of two
// (major bucket) subdivided into kSubBuckets linear sub-buckets, giving a
// constant relative error of at most 1/kSubBuckets (12.5%) across the whole
// 64-bit range with ~4 KiB per stripe. Record() is two relaxed fetch_adds
// on the caller's own stripe (bucket, sum) plus a load of that stripe's max,
// with a CAS only when the value is a new stripe maximum: never blocking,
// and cheap enough to leave on in production builds.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "common/clock.h"

namespace ariesim {

/// Stripes per metric cell. Eight covers the engine's client and background
/// threads on a small box; the registry's memory grows linearly with it.
inline constexpr size_t kStripes = 8;

/// The calling thread's stripe, handed out round-robin at its first write.
inline size_t ThisThreadStripe() {
  constexpr size_t kUnassigned = ~size_t{0};
  static std::atomic<size_t> next{0};
  thread_local size_t stripe = kUnassigned;
  if (stripe == kUnassigned) {
    stripe = next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  }
  return stripe;
}

/// A uint64_t counter with std::atomic's surface (fetch_add, ++, load,
/// store), striped per thread. The increments return nothing: a stripe's old
/// value is not the counter's. load() sums the stripes; store() is for gauges
/// and Reset: stripe 0 takes the value and the others are zeroed, so it is
/// not atomic against concurrent increments.
class StripedCounter {
 public:
  void fetch_add(uint64_t v,
                 std::memory_order order = std::memory_order_seq_cst) {
    cells_[ThisThreadStripe()].v.fetch_add(v, order);
  }
  void operator++(int) { fetch_add(1); }
  void operator++() { fetch_add(1); }

  uint64_t load(std::memory_order order = std::memory_order_seq_cst) const {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(order);
    return total;
  }
  void store(uint64_t v, std::memory_order order = std::memory_order_seq_cst) {
    cells_[0].v.store(v, order);
    for (size_t i = 1; i < kStripes; i++) cells_[i].v.store(0, order);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kStripes];
};

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
    Stripe& st = stripes_[ThisThreadStripe()];
    st.buckets[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
    st.sum.fetch_add(ns, std::memory_order_relaxed);
    uint64_t prev = st.max.load(std::memory_order_relaxed);
    while (ns > prev &&
           !st.max.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
    }
  }

  /// Observations so far: the bucket sum, with Snapshot()'s fuzziness.
  uint64_t count() const {
    uint64_t total = 0;
    for (const Stripe& st : stripes_) {
      for (const auto& b : st.buckets) total += b.load(std::memory_order_relaxed);
    }
    return total;
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    uint64_t counts[kNumBuckets];
    CopyBuckets(counts);
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    s.count = total;
    for (const Stripe& st : stripes_) {
      s.sum_ns += st.sum.load(std::memory_order_relaxed);
      s.max_ns = std::max(s.max_ns, st.max.load(std::memory_order_relaxed));
    }
    s.p50_ns = ValueAt(counts, total, 0.50);
    s.p95_ns = ValueAt(counts, total, 0.95);
    s.p99_ns = ValueAt(counts, total, 0.99);
    // The max is tracked exactly; never report a bucket midpoint above it.
    s.p50_ns = std::min(s.p50_ns, s.max_ns);
    s.p95_ns = std::min(s.p95_ns, s.max_ns);
    s.p99_ns = std::min(s.p99_ns, s.max_ns);
    return s;
  }

  /// Relaxed per-bucket counts, summed over the stripes, into `out` (all
  /// kNumBuckets, sized by the caller). Feeds the OpenMetrics bucket
  /// exposition; same fuzziness contract as Snapshot().
  void CopyBuckets(uint64_t* out) const {
    std::fill(out, out + kNumBuckets, 0);
    for (const Stripe& st : stripes_) {
      for (size_t i = 0; i < kNumBuckets; i++) {
        out[i] += st.buckets[i].load(std::memory_order_relaxed);
      }
    }
  }

  void Reset() {
    for (Stripe& st : stripes_) {
      for (auto& b : st.buckets) b.store(0, std::memory_order_relaxed);
      st.sum.store(0, std::memory_order_relaxed);
      st.max.store(0, std::memory_order_relaxed);
    }
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

  // One thread's share. Aligned so no two stripes share a cache line.
  struct alignas(64) Stripe {
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
    std::atomic<uint64_t> buckets[kNumBuckets]{};
  };
  Stripe stripes_[kStripes];
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
