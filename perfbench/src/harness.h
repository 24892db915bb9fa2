// Shared pieces of the engine benchmark: keys and row images, the
// scrambled-zipfian key generator, exact client-side percentiles, deltas of
// the engine's Metrics registry, the client-side request tracer, and the
// report that main.cpp prints at the end of a run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "db/database.h"
#include "util/random.h"

namespace perfbench {

using ariesim::Database;
using ariesim::Metrics;
using ariesim::Options;
using ariesim::Random;
using ariesim::Row;
using ariesim::Status;
using ariesim::Table;
using ariesim::Transaction;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Rows. Every row is {key, value}: the key is "k" plus the row id in 11
// zero-padded digits (so key order is id order), the value is kValueBytes
// long and starts with a tag derived from the id, so any row read back can
// be checked against the key it was read under.

constexpr size_t kValueBytes = 100;

std::string KeyOf(uint64_t id);
bool ParseKey(std::string_view key, uint64_t* id);
std::string ValueOf(uint64_t id, uint64_t version);
/// True when `row` is a well-formed row image for row id `id`.
bool RowMatches(const Row& row, uint64_t id);
inline Row RowOf(uint64_t id, uint64_t version) {
  return {KeyOf(id), ValueOf(id, version)};
}

/// Scrambled zipfian over [0, n) (the YCSB generator of Gray et al.): ranks
/// are zipf(theta)-distributed and then hashed over the id space, so the hot
/// rows are spread across the table instead of clustered at its start.
class ScrambledZipfian {
 public:
  ScrambledZipfian(uint64_t n, double theta);
  uint64_t Next(Random& rng) const;

 private:
  uint64_t n_;
  double theta_, alpha_, zetan_, eta_, half_pow_theta_;
};

// ---------------------------------------------------------------------------
// Exact percentiles over client-side samples (nanoseconds).

struct Quantile {
  double q = 0;    ///< the quantile actually reported
  size_t n = 0;    ///< samples it was taken over
  double ns = 0;   ///< its value
  double us() const { return ns / 1000.0; }
};

/// `q`, or for a tail quantile over `n` samples the highest quantile that
/// still has at least ten samples beyond it, whichever is lower.
double SupportedQuantile(double q, uint64_t n);

/// The SupportedQuantile of `sorted`.
Quantile ExactQuantile(const std::vector<uint32_t>& sorted, double q);

// ---------------------------------------------------------------------------
// Engine metrics: the Metrics registry is read from outside, as deltas of
// its counters and of its histograms' bucket counts.

enum Counter : int {
#define PERFBENCH_COUNTER_ENUM(name) C_##name,
  ARIESIM_METRICS_COUNTERS(PERFBENCH_COUNTER_ENUM)
#undef PERFBENCH_COUNTER_ENUM
      kCounterCount
};

enum Hist : int {
#define PERFBENCH_HIST_ENUM(name) H_##name,
  ARIESIM_METRICS_HISTOGRAMS(PERFBENCH_HIST_ENUM)
#undef PERFBENCH_HIST_ENUM
      kHistCount
};

using Buckets = std::array<uint64_t, ariesim::LatencyHistogram::kNumBuckets>;

struct EngineSnap {
  std::array<uint64_t, kCounterCount> counters{};
  std::vector<Buckets> hists = std::vector<Buckets>(kHistCount);

  static EngineSnap Take(const Metrics& m);
};

/// Sum of (after - before) over one or more measured regions.
class EngineDelta {
 public:
  void Add(const EngineSnap& before, const EngineSnap& after);
  uint64_t count(Counter c) const { return counters_[c]; }
  uint64_t samples(Hist h) const;
  /// Quantile of the histogram's delta in microseconds (bucket midpoint, the
  /// engine histogram's 12.5% resolution); 0 when it recorded nothing.
  double quantile_us(Hist h, double q) const;

 private:
  std::array<uint64_t, kCounterCount> counters_{};
  std::vector<Buckets> hists_ = std::vector<Buckets>(kHistCount);
};

// ---------------------------------------------------------------------------
// Client-side tracing. A traced request gets one id, a request span, and a
// child span around every public engine call it makes. Durations are kept
// per span kind for the per-layer percentiles; every kKeepEvery-th request
// also keeps its full spans for the trace file written at the end.

enum class Span : uint8_t {
  kRequest,
  kRequestSelf,  ///< request duration minus the time its child spans cover
  kBegin,
  kFetchByKey,
  kUpdate,
  kInsert,
  kScanOpen,
  kScanNext,
  kCommit,
  kRollback,
  kCount
};
const char* SpanName(Span s);

struct SpanRecord {
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint32_t dur_ns = 0;
  Span kind = Span::kRequest;
};

class Tracer {
 public:
  static constexpr uint64_t kKeepEvery = 256;

  explicit Tracer(uint64_t id_base) : next_request_(id_base) {}

  void BeginRequest(bool on, uint64_t now_ns);
  void Record(Span kind, uint64_t start_ns, uint64_t end_ns);
  void EndRequest(uint64_t end_ns);

  /// fn() wrapped in a child span while the current request is traced.
  template <typename Fn>
  auto Time(Span kind, Fn&& fn) {
    if (!on_) return fn();
    const uint64_t t0 = NowNs();
    auto r = fn();
    Record(kind, t0, NowNs());
    return r;
  }

  std::vector<uint32_t>& durations(Span k) {
    return durations_[static_cast<size_t>(k)];
  }
  const std::vector<SpanRecord>& kept() const { return kept_; }

 private:
  bool on_ = false;
  bool keep_ = false;
  uint64_t next_request_;
  uint64_t request_ = 0;
  uint64_t request_start_ = 0;
  uint64_t child_ns_ = 0;
  std::array<std::vector<uint32_t>, static_cast<size_t>(Span::kCount)>
      durations_;
  std::vector<SpanRecord> kept_;
};

// ---------------------------------------------------------------------------
// One closed-loop client: its generator, preallocated latency samples, the
// ids of the rows it inserted and had acknowledged, and its tracer.

enum class ReqKind : uint8_t { kRead, kWrite, kScan };

struct Client {
  /// Samples kept per closed-loop client: every request of a 20 s run up to
  /// about 100k requests/s per client, a uniform sample beyond that.
  static constexpr size_t kSampleCap = size_t{1} << 21;

  Client(int id, uint64_t seed, size_t sample_cap);

  /// Record a completed request. The sample buffers are reserved up front
  /// and not touched before the measured region, so recording never
  /// allocates. Once `sample_cap` are kept they form a uniform reservoir of
  /// every recorded request: a faster engine is sampled, never dropped.
  void RecordOk(ReqKind kind, uint64_t op_ns, uint64_t commit_ns);

  int id;
  Random rng;
  Tracer trace;
  bool recording = false;  ///< false during warm-up
  size_t sample_cap;
  Random reservoir_rng;
  std::vector<uint32_t> op_ns, commit_ns;  ///< parallel: one entry per sample
  std::vector<ReqKind> kinds;
  uint64_t recorded = 0;  ///< requests recorded; op_ns.size() of them kept
  uint64_t ok = 0, failed = 0, traced_ok = 0, rows_scanned = 0;
  uint64_t rollbacks = 0;  ///< deadlock-victim attempts that were retried
  uint64_t inserts_issued = 0;
  std::vector<uint64_t> acked_inserts;
  std::string error;  ///< first wrong result this client saw
};

// ---------------------------------------------------------------------------
// What a run reports.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

struct Report {
  std::vector<Metric> end_to_end;  ///< the JSON result of an untraced run
  std::vector<Metric> per_layer;   ///< the JSON result of a traced run
  std::vector<Metric> extra;       ///< printed only
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void E2E(std::string name, double v, std::string unit, std::string note = "");
  void Layer(std::string name, double v, std::string unit,
             std::string note = "");
  void Extra(std::string name, double v, std::string unit,
             std::string note = "");
  void Error(std::string what);
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench
