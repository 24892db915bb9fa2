// Engine configuration knobs. Tests shrink the page size to force SMOs with
// tiny workloads; benches use the default 4 KiB pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ariesim {

/// Which locking protocol an index uses. See DESIGN.md §2 and the paper's
/// §2.1 (data-only vs index-specific locking) and §1 (ARIES/KVL baseline).
enum class LockingProtocolKind : uint8_t {
  kDataOnly = 0,        ///< ARIES/IM default: key lock == record lock
  kIndexSpecific = 1,   ///< ARIES/IM variant: lock (index, key-value, RID)
  kKeyValue = 2,        ///< ARIES/KVL baseline: lock (index, key-value)
  kNone = 3,            ///< no index-level locking (single-threaded benches)
};

/// Lock granularity for a table's data.
enum class LockGranularity : uint8_t {
  kRecord = 0,  ///< lock individual RIDs (finest)
  kPage = 1,    ///< lock data page ids
  kTable = 2,   ///< one lock per table (coarsest)
};

struct Options {
  /// Size of every page in bytes. Must be a power of two, >= 256.
  size_t page_size = 4096;

  /// Number of buffer-pool frames.
  size_t buffer_pool_frames = 1024;

  /// WAL in-memory buffer capacity in bytes.
  size_t log_buffer_size = 1 << 20;

  /// fdatasync the log file on every flush (true for durability; tests and
  /// some benches disable it to measure CPU-bound path lengths).
  bool fsync_log = true;

  /// Group commit: coalesce concurrent commit-record forces into shared
  /// write+fsync batches run by a dedicated flusher thread, instead of one
  /// flush per committing transaction. Takes effect only with fsync_log:
  /// without the fsync a flush is cheaper than the thread hand-off, so
  /// committers flush inline. An acknowledged Commit() is exactly as
  /// durable either way; only the number of flushes changes. See
  /// docs/ARCHITECTURE.md.
  bool wal_group_commit = true;

  /// Default locking protocol for newly created indexes.
  LockingProtocolKind index_locking = LockingProtocolKind::kDataOnly;

  /// Default lock granularity for table data.
  LockGranularity lock_granularity = LockGranularity::kRecord;

  /// Baseline ablation: when true, every index operation acquires the tree
  /// latch (S for reads/updates, X across whole SMOs including the triggering
  /// operation), modeling protocols where SMOs block concurrent traversals.
  bool block_traversal_during_smo = false;

  /// Run restart recovery on open when a log exists (normally true; tests
  /// may disable it to inspect the raw crashed state).
  bool recover_on_open = true;

  /// Instant restart (docs/ARCHITECTURE.md, "Instant restart"): Open()
  /// returns ready for new transactions right after the analysis pass and
  /// loser undo; the redo pass is deferred — every dirty page is replayed
  /// from its per-page LSN chain on first fetch. Implies online page repair
  /// (torn pages found during the lazy replays rebuild in place). When
  /// false (default), Open() runs the classic three-pass restart.
  bool instant_restart = false;

  /// With instant_restart: drain the deferred-redo debt from a background
  /// sweeper thread so cold pages do not carry recovery latency forever.
  /// Tests and benches disable it to control exactly when pages recover.
  bool instant_restart_sweep = true;

  /// Verify per-page CRC32C checksums on read.
  bool verify_checksums = true;

  /// Fire a checkpoint automatically after this many log bytes (0 = never).
  uint64_t checkpoint_interval_bytes = 0;

  /// Total attempts (first try + retries) the DiskManager makes for a page
  /// read/write/sync that fails with an I/O error before giving up. 1 = no
  /// retry. Retries back off exponentially from io_retry_base_delay_us,
  /// doubling per attempt, clamped to io_retry_max_delay_us.
  int io_retry_attempts = 4;
  uint32_t io_retry_base_delay_us = 50;
  uint32_t io_retry_max_delay_us = 2000;

  /// Rebuild a page whose fetch fails its checksum (or keeps failing with a
  /// read error past retries) from the WAL in place, without a restart. When
  /// false such a fetch surfaces the error to the caller as before.
  bool online_page_repair = true;

  /// Consecutive WAL flush failures (past disk retries) before the engine
  /// trips kHealthy -> kReadOnly; at twice this count it trips kFailed.
  /// 0 disables the trip.
  uint32_t log_flush_failure_threshold = 8;

  /// Blocked-waiter watchdog (docs/OBSERVABILITY.md): when > 0, the first
  /// lock wait to exceed this many milliseconds dumps the structured lock
  /// snapshot plus the waits-for DOT graph to stderr (or an injected sink)
  /// exactly once per contention episode. 0 (default) disables — the wait
  /// paths then carry no watchdog cost beyond one branch per 5 ms poll.
  uint32_t lock_watchdog_threshold_ms = 0;

  /// Time-series metrics sampler (docs/OBSERVABILITY.md, "Time-series
  /// sampler"): when > 0, the Database spawns a background MetricsSampler
  /// that snapshots every counter and histogram at this interval, keeps a
  /// bounded in-memory ring of samples, and — if metrics_log_path is set —
  /// appends one JSONL line per sample with deltas and per-second rates.
  /// 0 (default) spawns no thread and allocates nothing.
  uint32_t metrics_sample_interval_ms = 0;

  /// Destination file for the sampler's JSONL stream (empty = ring only).
  /// Ignored while metrics_sample_interval_ms == 0.
  std::string metrics_log_path;

  /// Durable flight recorder (docs/OBSERVABILITY.md, "Flight recorder"):
  /// maintain `<dir>/blackbox.json`, an atomic-rename snapshot of every
  /// observability surface, refreshed on a cadence and force-captured on
  /// health trips, WAL flush failures, simulated crashes and explicit
  /// Database::CaptureIncident calls. On the next Open the leftover record
  /// is annotated with the restart outcome and exposed as Stats()
  /// "last_incident".
  bool blackbox = true;

  /// Cadence of the flight recorder's background refresh, in milliseconds.
  /// 0 spawns no thread — snapshots are then written only by the forced
  /// triggers above. Ignored while blackbox is false.
  uint32_t blackbox_interval_ms = 1000;

  /// Simulated device latency added to every page read/write, in
  /// microseconds (0 = none). The benchmark substrate knob: on a machine
  /// whose files sit in the OS page cache, real I/O latency vanishes and
  /// with it every effect the paper attributes to holding latches across
  /// I/O; this restores it deterministically.
  uint32_t sim_io_delay_us = 0;
};

}  // namespace ariesim
