// Database: wires the engine together — disk manager, WAL, buffer pool,
// lock manager, transaction manager, recovery manager, space manager,
// record manager, catalog, tables and ARIES/IM indexes — and exposes crash
// simulation for recovery tests. This is the top of the public API; see
// examples/quickstart.cpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "btree/btree.h"
#include "buffer/buffer_pool.h"
#include "common/blackbox.h"
#include "common/context.h"
#include "common/health.h"
#include "common/metrics_sampler.h"
#include "common/trace.h"
#include "db/catalog.h"
#include "db/table.h"
#include "lock/lock_manager.h"
#include "record/record_manager.h"
#include "recovery/recovery_manager.h"
#include "storage/disk_manager.h"
#include "storage/space_manager.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace ariesim {

/// Point-in-time engine snapshot: every counter and histogram, the health
/// state, the last restart's per-pass stats and the tracer's occupancy.
/// Returned by Database::Stats(); ToJson() is what `.stats` in tools/ariesh
/// prints and what benches archive.
struct DatabaseStats {
  /// Every counter and histogram, read once. Rendered as both the `metrics`
  /// section and the `commit_breakdown` section (per-segment latency stats
  /// with share-of-total plus the accounting check against commit_latency;
  /// schema in docs/OBSERVABILITY.md "Commit critical-path attribution"), so
  /// the two always describe the same instant.
  MetricsSnapshot metrics;
  /// Concurrency forensics (PR 5): lock-table snapshot, postmortem ring,
  /// contention tables, cycle-length distribution, watchdog state. Schema in
  /// docs/OBSERVABILITY.md.
  std::string locks_json;
  EngineHealth health = EngineHealth::kHealthy;
  std::string health_reason;
  RecoveryStats restart;  ///< zeroed if this incarnation ran no recovery
  TraceCounts trace;
  bool tracing_enabled = false;
  /// The previous incarnation's black-box record (annotated with this
  /// incarnation's restart outcome), or empty when none was found / the
  /// recorder is disabled. Emitted as `"last_incident"` (null when empty).
  /// See docs/OBSERVABILITY.md "Flight recorder".
  std::string last_incident_json;

  std::string ToJson() const;
};

class Database {
 public:
  /// Open (creating if needed) a database under directory `dir`. Runs ARIES
  /// restart recovery when a prior log exists (unless disabled in options).
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                Options options = Options());
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -- transactions --------------------------------------------------------
  /// The returned transaction is owned by the engine. Once Commit,
  /// CommitAsync or Rollback returns OK it is freed and the pointer must
  /// not be used again (read id() before ending it). After an error it
  /// stays valid, so the caller can still roll it back.
  Transaction* Begin();
  Status Commit(Transaction* txn);
  /// Lazy commit: locks are released before the commit record is durable;
  /// durability arrives with the next group-commit flush. A crash in the
  /// window may erase the transaction — atomically. Opt-in trade of the
  /// ACID "D" for latency; see docs/ARCHITECTURE.md "Group commit".
  Status CommitAsync(Transaction* txn);
  Status Rollback(Transaction* txn);
  Status RollbackToSavepoint(Transaction* txn, Lsn savepoint);

  // -- DDL -----------------------------------------------------------------
  Result<Table*> CreateTable(const std::string& name, uint32_t num_columns);
  /// Create an index on `column` of `table`; existing rows are indexed.
  /// `protocol` defaults to the option's index_locking.
  Result<BTree*> CreateIndex(const std::string& table, const std::string& name,
                             uint32_t column, bool unique);
  Result<BTree*> CreateIndexWithProtocol(const std::string& table,
                                         const std::string& name,
                                         uint32_t column, bool unique,
                                         LockingProtocolKind protocol);

  Table* GetTable(const std::string& name);
  BTree* GetIndex(const std::string& name);

  // -- instant restart (docs/ARCHITECTURE.md, "Instant restart") -----------
  /// Pages still carrying deferred redo debt (0 unless the database was
  /// opened with Options::instant_restart after a crash).
  size_t PendingRecoveryPages() { return pool_->PendingRedoCount(); }
  /// Block until every pending page has been recovered: waits for the
  /// background sweeper if one is running, then drains any remainder
  /// inline. Returns the first replay error (the debt stays scheduled).
  Status WaitForRecoveryDrain();

  // -- maintenance / test hooks ---------------------------------------------
  Status Checkpoint();
  /// Force one page to disk (simulates a buffer steal in recovery tests).
  Status FlushPage(PageId id);
  Status FlushAllPages();
  /// Crash simulation: discard all volatile state. The object becomes
  /// unusable; reopen the directory to run restart recovery.
  void SimulateCrash();
  /// Crash simulation that additionally leaves the on-disk files mid-write
  /// (a torn data page, or a truncated log tail) per `spec`. For
  /// Target::kDataPage the page must be fully materialized in the data
  /// file. See docs/FAULT_INJECTION.md.
  Status SimulateTornCrash(const TornCrashSpec& spec);

  /// Deterministic fault-injection hook shared by the disk manager, log
  /// manager and buffer pool of this database. Disarmed by default.
  FaultInjector* fault_injector() { return &fault_; }

  /// Current degradation state (see docs/ARCHITECTURE.md, "Engine health").
  /// kReadOnly / kFailed are one-way until the directory is reopened.
  EngineHealth Health() const { return health_.state(); }
  /// Why the engine degraded (empty while healthy).
  std::string HealthReason() const { return health_.reason(); }

  // -- observability (see docs/OBSERVABILITY.md) ----------------------------
  /// Structured snapshot of counters, histograms, health, restart stats and
  /// tracer occupancy.
  DatabaseStats Stats() const;
  /// The `locks_json` piece of Stats() on its own: lock-table snapshot,
  /// deadlock postmortems, lock/page contention tables, cycle-length
  /// distribution, and watchdog state as one JSON object.
  std::string LockForensicsJson() const;
  /// Turn the process-wide event tracer on/off. Near-zero cost while off;
  /// bounded per-thread ring buffers while on.
  void SetTracing(bool on);
  bool tracing() const;
  /// Write all buffered trace events as Chrome trace_event JSON, loadable in
  /// Perfetto (ui.perfetto.dev) or chrome://tracing. Returns NotSupported
  /// when built with -DARIESIM_TRACE=OFF.
  Status DumpTrace(const std::string& path);

  /// The background time-series sampler, or nullptr when
  /// Options::metrics_sample_interval_ms == 0 (the default — no thread is
  /// ever spawned then). See docs/OBSERVABILITY.md "Time-series sampler".
  MetricsSampler* sampler() { return sampler_.get(); }

  /// Force one flight-recorder snapshot now (trigger "manual"). Returns
  /// NotSupported when Options::blackbox is false. See docs/OBSERVABILITY.md
  /// "Flight recorder".
  Status CaptureIncident(const std::string& reason);
  /// The flight recorder, or nullptr when Options::blackbox is false.
  BlackBox* blackbox() { return blackbox_.get(); }
  /// The previous incarnation's annotated black-box record (empty if none).
  const std::string& last_incident_json() const { return last_incident_json_; }

  EngineContext* ctx() { return &ctx_; }
  const Catalog* catalog() const { return catalog_.get(); }
  Metrics& metrics() { return metrics_; }
  LockManager* locks() { return locks_.get(); }
  LogManager* wal() { return log_.get(); }
  BufferPool* pool() { return pool_.get(); }
  TransactionManager* txns() { return txns_.get(); }
  SpaceManager* space() { return space_.get(); }
  RecoveryManager* recovery() { return recovery_.get(); }
  const RestartStats& restart_stats() const { return restart_stats_; }
  const Options& options() const { return ctx_.options; }

 private:
  explicit Database(Options options);
  Status DoOpen(const std::string& dir);
  /// Wire BufferPool fetch-miss repair to RecoveryManager::RebuildPageImage
  /// (no-op unless Options::online_page_repair).
  void InstallOnlineRepair();
  /// Wire BufferPool pending-redo fetches to RecoveryManager::LazyRedoPage.
  void InstallLazyRedo();
  /// Fetch every pending page once (each successful fetch retires its debt).
  Status DrainPendingRedo();
  void StartSweeper();
  void StopSweeper();
  void SweeperLoop();
  Status MaybeAutoCheckpoint();
  Status LoadObjects();
  BTree* MaterializeIndex(const IndexMeta& meta);
  /// Create the flight recorder, annotate + reload the previous
  /// incarnation's record, install the trigger hooks and start the cadence
  /// thread. Called by Open() on a fully opened engine.
  void SetUpBlackBox();
  /// The engine-state fields of one black-box snapshot (everything after
  /// the BlackBox envelope), as a ','-prefixed JSON fragment.
  std::string BuildBlackBoxSnapshot(const char* trigger,
                                    const std::string& reason);

  Options options_;
  Metrics metrics_;
  HealthMonitor health_{&metrics_};
  EngineContext ctx_;
  std::string dir_;
  bool crashed_ = false;
  std::atomic<Lsn> last_auto_checkpoint_{0};

  // Declared before the components that hold a pointer to it so it outlives
  // them during destruction.
  FaultInjector fault_;

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<TransactionManager> txns_;
  std::unique_ptr<SpaceManager> space_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<RecordManager> records_;
  std::unique_ptr<BtreeResourceManager> btree_rm_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<MetricsSampler> sampler_;  // only when sampling is enabled
  std::unique_ptr<BlackBox> blackbox_;       // only when Options::blackbox
  std::string last_incident_json_;  // previous incarnation's record, annotated
  RestartStats restart_stats_;

  /// Background drain of the instant-restart redo debt (cold pages would
  /// otherwise carry first-touch recovery latency indefinitely).
  std::thread sweeper_;
  std::atomic<bool> sweeper_stop_{false};
  std::mutex sweep_mu_;
  std::condition_variable sweep_cv_;
  bool sweeper_done_ = false;

  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<ObjectId, std::unique_ptr<BTree>> trees_;
  std::map<std::string, ObjectId> index_names_;
};

}  // namespace ariesim
