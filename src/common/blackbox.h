// Durable flight recorder (PR 10; docs/OBSERVABILITY.md "Flight recorder").
//
// A BlackBox is a bounded on-disk incident record beside data.db: one JSON
// snapshot of every observability surface the engine exposes — tracer ring
// excerpt, OpenMetrics exposition, lock forensics, commit breakdown, health
// state, WAL tail summary, fault-injector state — refreshed on a background
// cadence and force-captured the instant something goes wrong (health trip,
// group-commit flush failure, simulated crash, explicit CaptureIncident).
// ARIES restart reconstructs *state* from the WAL; the black box preserves
// the *explanation*, which otherwise lives only in memory and evaporates at
// the crash.
//
// Durability protocol: each capture is double-buffered through a tmp file —
// the snapshot is written and fsynced into `<path>.tmp.<0|1>` (alternating
// slots, so a crash mid-write never touches the last good record) and then
// atomically renamed over `<path>`. Readers therefore always see either the
// previous complete snapshot or the new complete snapshot, never a torn one.
//
// The builder callback is installed by Database and must be safe to run from
// any thread, including under LogManager's flush mutex (the flush-failure
// trigger fires there): it may only touch lock-free/atomic accessors or
// mutexes that are never held while waiting on the WAL mutex.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/status.h"

namespace ariesim {

class BlackBox {
 public:
  /// The snapshot builder returns the engine-state fields of the envelope as
  /// a JSON fragment: either empty, or a string starting with ',' followed
  /// by `"key":value` pairs (the envelope's own fields precede it).
  using SnapshotBuilder =
      std::function<std::string(const char* trigger, const std::string& reason)>;

  /// `path` is the snapshot file (conventionally `<dir>/blackbox.json`).
  /// `metrics` may be null (no counters are bumped then).
  BlackBox(std::string path, Metrics* metrics);
  ~BlackBox();  // stops the cadence thread; does not capture

  BlackBox(const BlackBox&) = delete;
  BlackBox& operator=(const BlackBox&) = delete;

  /// Install the engine-state builder. Call before the first Capture.
  void SetSnapshotBuilder(SnapshotBuilder builder);

  /// Persist a summary of the previous incarnation's record (loaded at
  /// open): every snapshot of this incarnation embeds it as `"prev"`, so
  /// the breadcrumb survives cadence overwrites of the annotated file.
  void SetPreviousIncident(std::string summary_json_object);

  /// Spawn the cadence thread: one Capture("cadence") per interval. The
  /// first capture happens one full interval after the call, so the
  /// annotated previous record is not immediately overwritten. No-op when
  /// interval_ms == 0 or a thread is already running.
  void StartPeriodic(uint32_t interval_ms);
  /// Stop and join the cadence thread. Captures stay possible afterwards
  /// (SimulateCrash stops the cadence, then force-captures).
  void Stop();
  bool periodic_running() const {
    return periodic_running_.load(std::memory_order_acquire);
  }

  /// Build one snapshot and atomically replace the on-disk record.
  /// `trigger` is the capture class ("cadence", "health_trip",
  /// "flush_failure", "simulate_crash", "torn_crash", "manual",
  /// "clean_shutdown"); `reason` is free-form prose. Thread-safe; captures
  /// are serialized. Safe to call under the WAL flush mutex (see header
  /// comment for what the builder may touch).
  Status Capture(const char* trigger, const std::string& reason);

  /// Atomically replace the on-disk record with `json` verbatim (used to
  /// rewrite the previous incarnation's record with its recovery
  /// annotation). Counts bytes but not a capture.
  Status WriteRaw(const std::string& json);

  /// Snapshots written by this instance (all triggers).
  uint64_t captures() const {
    return captures_.load(std::memory_order_acquire);
  }
  const std::string& path() const { return path_; }

  /// Read a whole file into `*out` (the black box of a previous
  /// incarnation, typically). NotFound when absent.
  static Status ReadFile(const std::string& path, std::string* out);

  /// Insert `,"key":value_json` before the final '}' of `object_json`.
  /// Returns the input unchanged when it does not end in '}'.
  static std::string SpliceField(const std::string& object_json,
                                 const std::string& key,
                                 const std::string& value_json);

 private:
  void PeriodicLoop(uint32_t interval_ms);
  Status WriteAtomic(const std::string& json);

  const std::string path_;
  Metrics* const metrics_;

  std::mutex mu_;  // serializes captures and raw writes
  SnapshotBuilder builder_;
  std::string prev_incident_;  // summary object of the prior incarnation
  uint64_t seq_ = 0;           // envelope sequence number, under mu_
  int tmp_slot_ = 0;           // alternating tmp-file suffix, under mu_
  // Last non-cadence capture of this incarnation (embedded as "incident"
  // in later snapshots so it survives cadence overwrites). Under mu_.
  std::string incident_memo_;

  std::atomic<uint64_t> captures_{0};

  std::thread periodic_;
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool run_flag_ = false;
  std::atomic<bool> periodic_running_{false};
};

}  // namespace ariesim
