// Time-series metrics sampler (PR 9; docs/OBSERVABILITY.md "Time-series
// sampler"). Snapshots the full Metrics registry — every counter and every
// histogram — at a fixed interval, keeps a bounded in-memory ring of samples,
// and optionally streams one JSONL line per sample (cumulative values plus
// deltas and per-second rates against the previous sample) to a file.
//
// Endpoint numbers hide trajectories: a bench that averages 30 s of commits
// can't show the fsync stall at second 12 or the lock convoy that built up
// and drained. The ring gives in-process consumers (ariesh .watch, tests)
// the last N snapshots; the JSONL file gives offline analysis the whole run.
//
// Off by default: Database spawns a sampler only when
// Options::metrics_sample_interval_ms > 0 — the default configuration
// allocates nothing and starts no thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace ariesim {

/// One Metrics::Snapshot(), numbered.
struct MetricsSample : MetricsSnapshot {
  uint64_t seq = 0;  // 0-based sample number since Start()
};

class MetricsSampler {
 public:
  /// `interval_ms` == 0 means manual mode: Start() is a no-op and samples
  /// are taken only via SampleOnce() (the tests drive it this way).
  /// `jsonl_path` empty disables the file stream. `ring_capacity` bounds the
  /// in-memory deque; the oldest sample is dropped at the cap.
  MetricsSampler(const Metrics* metrics, uint32_t interval_ms,
                 std::string jsonl_path, size_t ring_capacity = 512);
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Spawn the background thread (no-op in manual mode or if running).
  void Start();
  /// Stop and join the thread; takes one final sample first so the stream
  /// always ends with the run's endpoint state. Safe to call repeatedly.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Take one sample now (any thread). Returns a copy of it.
  MetricsSample SampleOnce();

  /// Copy of the most recent `max` samples, oldest first (all if max == 0).
  std::vector<MetricsSample> RecentSamples(size_t max = 0) const;
  size_t sample_count() const;

  /// Render one sample as a JSONL line (no trailing newline): cumulative
  /// counters, deltas and per-second rates vs `prev` (pass nullptr for the
  /// first sample — deltas are then against zero), and histogram
  /// count/sum_ns/percentiles. Exposed for the tests.
  static std::string ToJsonl(const MetricsSample& s, const MetricsSample* prev);

 private:
  void Loop();
  /// Append `line` + '\n' to the JSONL file, opening it lazily.
  void WriteLine(const std::string& line);

  const Metrics* metrics_;
  const uint32_t interval_ms_;
  const std::string jsonl_path_;
  const size_t ring_capacity_;

  mutable std::mutex mu_;          // guards ring_, prev_, seq_, file_
  std::deque<MetricsSample> ring_;
  MetricsSample prev_;             // last sample taken (for deltas)
  bool have_prev_ = false;
  uint64_t seq_ = 0;
  std::FILE* file_ = nullptr;

  std::mutex run_mu_;              // guards run_flag_ + cv for Stop()
  std::condition_variable run_cv_;
  bool run_flag_ = false;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace ariesim
