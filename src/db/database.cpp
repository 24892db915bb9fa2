#include "db/database.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/clock.h"
#include "common/commit_breakdown.h"
#include "common/json.h"

namespace ariesim {

Database::Database(Options options) : options_(options) {}

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                 Options options) {
  std::unique_ptr<Database> db(new Database(options));
  ARIES_RETURN_NOT_OK(db->DoOpen(dir));
  // Time-series sampler last, and only on a fully opened engine: with the
  // default interval of 0 no MetricsSampler exists and no thread is spawned.
  if (options.metrics_sample_interval_ms > 0) {
    db->sampler_ = std::make_unique<MetricsSampler>(
        &db->metrics_, options.metrics_sample_interval_ms,
        options.metrics_log_path);
    db->sampler_->Start();
  }
  // Flight recorder, likewise on a fully opened engine only: annotates the
  // previous incarnation's record with the restart outcome, installs the
  // health-trip / flush-failure capture hooks and starts the cadence.
  if (options.blackbox) db->SetUpBlackBox();
  return db;
}

Status Database::DoOpen(const std::string& dir) {
  dir_ = dir;
  ::mkdir(dir.c_str(), 0755);

  ctx_.options = options_;
  ctx_.metrics = &metrics_;
  ctx_.health = &health_;

  disk_ = std::make_unique<DiskManager>(dir + "/data.db", options_.page_size,
                                        &metrics_, options_.sim_io_delay_us);
  disk_->SetFaultInjector(&fault_);
  disk_->SetRetryPolicy(options_.io_retry_attempts,
                        options_.io_retry_base_delay_us,
                        options_.io_retry_max_delay_us);
  ARIES_RETURN_NOT_OK(disk_->Open());
  bool fresh = disk_->PagesOnDisk() == 0;

  log_ = std::make_unique<LogManager>(dir + "/wal.log", &metrics_,
                                      options_.fsync_log,
                                      options_.log_buffer_size);
  log_->SetFaultInjector(&fault_);
  log_->SetHealthMonitor(&health_, options_.log_flush_failure_threshold);
  ARIES_RETURN_NOT_OK(log_->Open());
  if (options_.wal_group_commit && options_.fsync_log) log_->StartFlusher();
  pool_ = std::make_unique<BufferPool>(disk_.get(), log_.get(),
                                       options_.buffer_pool_frames, &metrics_,
                                       options_.verify_checksums);
  pool_->SetFaultInjector(&fault_);
  locks_ = std::make_unique<LockManager>(&metrics_);
  locks_->ConfigureWatchdog(options_.lock_watchdog_threshold_ms);
  txns_ = std::make_unique<TransactionManager>(log_.get(), locks_.get(),
                                               &metrics_);

  ctx_.pool = pool_.get();
  ctx_.disk = disk_.get();
  ctx_.log = log_.get();
  ctx_.locks = locks_.get();
  ctx_.txns = txns_.get();

  space_ = std::make_unique<SpaceManager>(&ctx_);
  ctx_.space = space_.get();

  recovery_ = std::make_unique<RecoveryManager>(&ctx_);
  ctx_.recovery = recovery_.get();
  txns_->SetRecovery(recovery_.get());
  // One observer, two consumers, both inside the append critical section:
  // the pool's DPT registration (closes the checkpoint ordering window) and
  // the per-page log index that instant restart replays from. Installed
  // here — after the recovery manager exists — and nothing appends log
  // records between the pool's construction and this point.
  if (options_.instant_restart) {
    // Instant restart additionally feeds the per-page log index the
    // checkpoints persist; in classic mode the index would never be
    // serialized, so skip the per-append bookkeeping entirely.
    log_->SetAppendObserver([pool = pool_.get(),
                             idx = recovery_->page_index()](PageId id,
                                                            Lsn lsn) {
      pool->NoteDirtyById(id, lsn);
      idx->Note(id, lsn);
    });
  } else {
    log_->SetAppendObserver([pool = pool_.get()](PageId id, Lsn lsn) {
      pool->NoteDirtyById(id, lsn);
    });
  }

  records_ = std::make_unique<RecordManager>(&ctx_);
  btree_rm_ = std::make_unique<BtreeResourceManager>(
      &ctx_, [this](ObjectId id) -> BTree* {
        auto it = trees_.find(id);
        return it == trees_.end() ? nullptr : it->second.get();
      });
  recovery_->RegisterRm(RmId::kMeta, space_.get());
  recovery_->RegisterRm(RmId::kHeap, records_.get());
  recovery_->RegisterRm(RmId::kBtree, btree_rm_.get());

  catalog_ = std::make_unique<Catalog>(dir + "/catalog");

  if (fresh) {
    ARIES_RETURN_NOT_OK(space_->Bootstrap());
    ARIES_RETURN_NOT_OK(pool_->FlushAll());
    ARIES_RETURN_NOT_OK(catalog_->Save());
    ARIES_RETURN_NOT_OK(recovery_->TakeCheckpoint());
    InstallOnlineRepair();
    return Status::OK();
  }

  ARIES_RETURN_NOT_OK(catalog_->Load());
  ARIES_RETURN_NOT_OK(LoadObjects());
  if (options_.recover_on_open && options_.instant_restart) {
    // Both fetch-miss handlers must be live *before* recovery begins:
    // loser undo's first-touch fetches replay per-page chains, and a torn
    // page met during one rebuilds in place (accounted as
    // pages_repaired_online, not torn_pages_repaired — there is no redo
    // pass to find it first).
    InstallOnlineRepair();
    InstallLazyRedo();
    const uint64_t t0 = MonotonicNowNs();
    ARIES_RETURN_NOT_OK(recovery_->RestartInstant(&restart_stats_));
    metrics_.instant_restart_open_us.store((MonotonicNowNs() - t0) / 1000,
                                           std::memory_order_relaxed);
    if (options_.instant_restart_sweep && pool_->PendingRedoCount() > 0) {
      StartSweeper();
    }
    return Status::OK();
  }
  if (options_.recover_on_open) {
    ARIES_RETURN_NOT_OK(recovery_->Restart(&restart_stats_));
  }
  // Installed only after restart so that restart-time torn-page repair keeps
  // its own path and accounting (RepairPage / torn_pages_repaired).
  InstallOnlineRepair();
  return Status::OK();
}

void Database::InstallOnlineRepair() {
  // Instant restart implies online repair: the lazy replay path is the only
  // thing that can meet a torn page (there is no restart-time redo sweep).
  if (!options_.online_page_repair && !options_.instant_restart) return;
  pool_->SetRepairHandler([this](PageId id, char* buf) {
    // Repair duration (success or failure — both end the page's outage).
    ScopedLatency timer(&metrics_.repair_latency);
    Status s = recovery_->RebuildPageImage(id, buf);
    if (s.ok()) {
      metrics_.pages_repaired_online.fetch_add(1, std::memory_order_relaxed);
    } else if (s.code() == Code::kCorruption) {
      // The log cannot reproduce the page: its data is gone. Refuse writes
      // from here on rather than risk compounding the loss.
      health_.Trip(EngineHealth::kReadOnly,
                   "unrepairable page " + std::to_string(id) + ": " +
                       s.message());
    }
    return s;
  });
}

void Database::InstallLazyRedo() {
  pool_->SetLazyRedoHandler(
      [this](PageId id, char* buf, Lsn rec_lsn, Lsn* first_applied) {
        return recovery_->LazyRedoPage(id, buf, rec_lsn, first_applied);
      });
}

Status Database::DrainPendingRedo() {
  PageId id = kInvalidPageId;
  while (pool_->NextPendingRedo(&id)) {
    // A successful fetch retires the page's debt as a side effect; the
    // guard is released immediately (shared mode: the sweep never blocks
    // writers for longer than the replay itself).
    auto fetched = pool_->FetchPage(id, LatchMode::kShared);
    ARIES_RETURN_NOT_OK(fetched.status());
  }
  return Status::OK();
}

void Database::StartSweeper() {
  sweeper_stop_.store(false, std::memory_order_release);
  sweeper_done_ = false;
  sweeper_ = std::thread([this] { SweeperLoop(); });
}

void Database::SweeperLoop() {
  int consecutive_failures = 0;
  PageId id = kInvalidPageId;
  bool drained = true;
  while (!sweeper_stop_.load(std::memory_order_acquire)) {
    if (!pool_->NextPendingRedo(&id)) break;
    auto fetched = pool_->FetchPage(id, LatchMode::kShared);
    if (fetched.ok()) {
      consecutive_failures = 0;
    } else if (++consecutive_failures > 64) {
      // Persistent replay failure (e.g. unrepairable page on a read-only
      // engine): stop burning the disk; the debt stays scheduled and
      // surfaces on the page's next first-touch fetch.
      drained = false;
      break;
    }
  }
  if (drained && !sweeper_stop_.load(std::memory_order_acquire) &&
      pool_->PendingRedoCount() == 0) {
    // Debt fully retired: checkpoint so the next restart starts clean.
    recovery_->TakeCheckpoint();
  }
  {
    std::lock_guard<std::mutex> lk(sweep_mu_);
    sweeper_done_ = true;
  }
  sweep_cv_.notify_all();
}

void Database::StopSweeper() {
  sweeper_stop_.store(true, std::memory_order_release);
  if (sweeper_.joinable()) sweeper_.join();
}

Status Database::WaitForRecoveryDrain() {
  if (sweeper_.joinable()) {
    std::unique_lock<std::mutex> lk(sweep_mu_);
    sweep_cv_.wait(lk, [this] { return sweeper_done_; });
  }
  // Finish whatever the sweeper left behind (it bails after persistent
  // failures, and tests run with the sweeper disabled entirely).
  return DrainPendingRedo();
}

BTree* Database::MaterializeIndex(const IndexMeta& meta) {
  auto proto =
      MakeLockingProtocol(meta.protocol, locks_.get(), meta.id,
                          meta.table_id, meta.unique, options_.lock_granularity);
  auto tree = std::make_unique<BTree>(&ctx_, meta.id, meta.table_id, meta.root,
                                      meta.unique, std::move(proto));
  BTree* raw = tree.get();
  trees_[meta.id] = std::move(tree);
  index_names_[meta.name] = meta.id;
  return raw;
}

Status Database::LoadObjects() {
  for (auto& [name, t] : catalog_->tables()) {
    auto heap = std::make_unique<HeapFile>(&ctx_, t.id, t.first_page);
    tables_[name] =
        std::make_unique<Table>(&ctx_, records_.get(), t, std::move(heap));
  }
  for (auto& [name, i] : catalog_->indexes()) {
    BTree* tree = MaterializeIndex(i);
    for (auto& [tname, table] : tables_) {
      if (table->meta().id == i.table_id) {
        table->AttachIndex(IndexHandle{i, tree});
      }
    }
  }
  return Status::OK();
}

Database::~Database() {
  // Sampler first: it reads metrics_ owned by this object and must not
  // outlive any component it observes. Takes the run's final sample.
  if (sampler_ != nullptr) sampler_->Stop();
  // The flight recorder's cadence likewise stops before teardown; after a
  // SimulateCrash it is already stopped and the incident record must stay.
  if (blackbox_ != nullptr) blackbox_->Stop();
  StopSweeper();
  // Detach the capture hooks: member destruction below tears the recorder
  // down before the log, and a flush inside ~LogManager must not reach a
  // dead BlackBox through them.
  auto detach_hooks = [this] {
    health_.SetTripObserver(nullptr);
    if (log_ != nullptr) log_->SetFlushFailureObserver(nullptr);
  };
  if (crashed_) {
    detach_hooks();
    return;
  }
  // Clean shutdown: checkpoint and flush so reopen needs no redo. Pages
  // still pending lazy redo are safe to leave: the checkpoint's DPT carries
  // their recLSNs, so the next open simply re-schedules them.
  if (recovery_ != nullptr) recovery_->TakeCheckpoint();
  if (pool_ != nullptr) pool_->FlushAll();
  // Final snapshot before the log closes: the on-disk record then says the
  // engine landed cleanly (trigger "clean_shutdown"), and any incident of
  // this incarnation rides along in the "incident" field.
  if (blackbox_ != nullptr) blackbox_->Capture("clean_shutdown", "");
  if (log_ != nullptr) log_->Close();
  detach_hooks();
}

Transaction* Database::Begin() {
  Transaction* txn = txns_->Begin();
  // Operation-phase commit-breakdown attribution: reset and bind the
  // thread's scratch accumulator so lock/latch waits between here and
  // Commit() are charged to this transaction (best-effort under
  // interleaving; exact for the common one-txn-per-thread pattern). The
  // scratch has thread lifetime, so the persistent binding cannot dangle.
  CommitBreakdown& bd = ThreadCommitBreakdown();
  bd.Reset();
  BindCommitBreakdown(&bd);
  return txn;
}

Status Database::Commit(Transaction* txn) {
  ARIES_RETURN_NOT_OK(txns_->Commit(txn));
  return MaybeAutoCheckpoint();
}

Status Database::CommitAsync(Transaction* txn) {
  ARIES_RETURN_NOT_OK(txns_->CommitAsync(txn));
  return MaybeAutoCheckpoint();
}

Status Database::MaybeAutoCheckpoint() {
  // Automatic fuzzy checkpointing: bound restart work by log growth.
  uint64_t interval = options_.checkpoint_interval_bytes;
  if (interval > 0) {
    Lsn now = log_->next_lsn();
    Lsn last = last_auto_checkpoint_.load(std::memory_order_relaxed);
    if (now - last > interval &&
        last_auto_checkpoint_.compare_exchange_strong(last, now)) {
      ARIES_RETURN_NOT_OK(recovery_->TakeCheckpoint());
    }
  }
  return Status::OK();
}

Status Database::Rollback(Transaction* txn) { return txns_->Rollback(txn); }

Status Database::RollbackToSavepoint(Transaction* txn, Lsn savepoint) {
  return txns_->RollbackToSavepoint(txn, savepoint);
}

Result<Table*> Database::CreateTable(const std::string& name,
                                     uint32_t num_columns) {
  ARIES_RETURN_NOT_OK(health_.CheckWritable());
  if (catalog_->FindTable(name) != nullptr) {
    return Status::Duplicate("table exists: " + name);
  }
  TableMeta meta;
  meta.id = catalog_->NextObjectId();
  meta.name = name;
  meta.num_columns = num_columns;
  Transaction* txn = Begin();
  auto first = HeapFile::Create(&ctx_, meta.id, txn);
  if (!first.ok()) {
    Rollback(txn);
    return first.status();
  }
  meta.first_page = first.value();
  ARIES_RETURN_NOT_OK(Commit(txn));
  ARIES_RETURN_NOT_OK(catalog_->AddTable(meta));
  ARIES_RETURN_NOT_OK(recovery_->TakeCheckpoint());
  // Fresh: skips FindChainTail, whose probe fetches other tables' pages.
  auto heap = std::make_unique<HeapFile>(&ctx_, meta.id, meta.first_page, true);
  auto table =
      std::make_unique<Table>(&ctx_, records_.get(), meta, std::move(heap));
  Table* raw = table.get();
  tables_[name] = std::move(table);
  return raw;
}

Result<BTree*> Database::CreateIndex(const std::string& table,
                                     const std::string& name, uint32_t column,
                                     bool unique) {
  return CreateIndexWithProtocol(table, name, column, unique,
                                 options_.index_locking);
}

Result<BTree*> Database::CreateIndexWithProtocol(const std::string& table,
                                                 const std::string& name,
                                                 uint32_t column, bool unique,
                                                 LockingProtocolKind protocol) {
  ARIES_RETURN_NOT_OK(health_.CheckWritable());
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table " + table);
  if (catalog_->FindIndex(name) != nullptr) {
    return Status::Duplicate("index exists: " + name);
  }
  IndexMeta meta;
  meta.id = catalog_->NextObjectId();
  meta.name = name;
  meta.table_id = t->meta().id;
  meta.column = column;
  meta.unique = unique;
  meta.protocol = protocol;

  Transaction* txn = Begin();
  auto root = BTree::CreateRoot(&ctx_, txn, meta.id);
  if (!root.ok()) {
    Rollback(txn);
    return root.status();
  }
  meta.root = root.value();
  BTree* tree = MaterializeIndex(meta);

  // Backfill existing rows.
  std::vector<std::pair<Rid, std::string>> rows;
  Status s = t->heap()->ScanAll(&rows);
  if (s.ok()) {
    for (auto& [rid, data] : rows) {
      Row row;
      s = DecodeRow(data, &row);
      if (!s.ok()) break;
      if (column >= row.size()) {
        s = Status::InvalidArgument("index column out of range");
        break;
      }
      s = tree->Insert(txn, row[column], rid);
      if (!s.ok()) break;
    }
  }
  if (!s.ok()) {
    Rollback(txn);
    trees_.erase(meta.id);
    index_names_.erase(name);
    return s;
  }
  ARIES_RETURN_NOT_OK(Commit(txn));
  ARIES_RETURN_NOT_OK(catalog_->AddIndex(meta));
  ARIES_RETURN_NOT_OK(recovery_->TakeCheckpoint());
  t->AttachIndex(IndexHandle{meta, tree});
  return tree;
}

Table* Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

BTree* Database::GetIndex(const std::string& name) {
  auto it = index_names_.find(name);
  if (it == index_names_.end()) return nullptr;
  auto tit = trees_.find(it->second);
  return tit == trees_.end() ? nullptr : tit->second.get();
}

namespace {

// Newest tracer events embedded in one black-box snapshot. Bounds the
// record: ~96 B of JSON per event keeps the excerpt under ~25 KiB.
constexpr size_t kBlackBoxTraceEvents = 256;

// Shared by DatabaseStats::ToJson and the black-box recovery annotation so
// the two restart documents cannot drift apart.
void WriteRestartJson(const RestartStats& restart, JsonWriter* w) {
  w->BeginObject()
      .Key("analysis_records").Uint(restart.analysis_records)
      .Key("analysis_us").Uint(restart.analysis_us)
      .Key("redo_records").Uint(restart.redo_records)
      .Key("redo_applied").Uint(restart.redo_applied)
      .Key("redo_us").Uint(restart.redo_us)
      .Key("undo_records").Uint(restart.undo_records)
      .Key("undo_us").Uint(restart.undo_us)
      .Key("loser_txns").Uint(restart.loser_txns)
      .Key("torn_pages_repaired").Uint(restart.torn_pages_repaired)
      .Key("instant").Bool(restart.instant)
      .Key("lazy_pages_scheduled").Uint(restart.lazy_pages_scheduled)
      .Key("total_us").Uint(restart.total_us)
      .EndObject();
}

}  // namespace

std::string DatabaseStats::ToJson() const {
  std::string out;
  out.reserve(8192);
  JsonWriter w(&out);
  w.BeginObject().Key("metrics");
  metrics.WriteJson(&w);
  w.Key("commit_breakdown");
  metrics.WriteCommitBreakdownJson(&w);
  w.Key("health").String(EngineHealthName(health))
      .Key("health_reason").String(health_reason)
      .Key("restart");
  WriteRestartJson(restart, &w);
  w.Key("last_incident");
  last_incident_json.empty() ? w.Null() : w.Raw(last_incident_json);
  w.Key("trace").BeginObject()
      .Key("enabled").Bool(tracing_enabled)
      .Key("recorded").Uint(trace.recorded)
      .Key("dropped").Uint(trace.dropped)
      .Key("rings").Uint(trace.rings)
      .EndObject()
      .Key("locks").Raw(locks_json.empty() ? "{}" : locks_json)
      .EndObject();
  return out;
}

std::string Database::LockForensicsJson() const {
  std::string out;
  out.reserve(2048);
  JsonWriter w(&out);
  w.BeginObject()
      .Key("snapshot").Raw(locks_->Snapshot().ToJson())
      .Key("postmortems").BeginArray();
  for (const DeadlockPostmortem& pm : locks_->Postmortems()) w.Raw(pm.ToJson());
  w.EndArray().Key("contention").BeginArray();
  for (const auto& e : locks_->TopContention(10)) {
    w.BeginObject()
        .Key("name").String(e.key.ToString())
        .Key("waits").Uint(e.waits)
        .Key("wait_us").Uint(e.wait_ns / 1000)
        .EndObject();
  }
  w.EndArray()
      .Key("contention_dropped").Uint(locks_->ContentionDropped())
      .Key("page_contention").BeginArray();
  for (const auto& e : pool_->TopLatchContention(10)) {
    w.BeginObject()
        .Key("page").Uint(e.key)
        .Key("waits").Uint(e.waits)
        .Key("wait_us").Uint(e.wait_ns / 1000)
        .EndObject();
  }
  w.EndArray()
      .Key("page_contention_dropped").Uint(pool_->LatchContentionDropped())
      .Key("cycle_lengths").BeginObject();
  std::vector<uint64_t> lens = locks_->CycleLengthCounts();
  for (size_t i = 0; i < lens.size(); ++i) {
    if (lens[i] == 0) continue;
    const char* overflow = i == LockManager::kMaxTrackedCycleLen ? "+" : "";
    w.Key(std::to_string(i) + overflow).Uint(lens[i]);
  }
  w.EndObject()
      .Key("watchdog").BeginObject()
      .Key("threshold_ms").Uint(options_.lock_watchdog_threshold_ms)
      .Key("dumps")
      .Uint(metrics_.lock_watchdog_dumps.load(std::memory_order_relaxed))
      .EndObject()
      .EndObject();
  return out;
}

DatabaseStats Database::Stats() const {
  DatabaseStats s;
  s.metrics = metrics_.Snapshot();
  s.locks_json = LockForensicsJson();
  s.health = health_.state();
  s.health_reason = health_.reason();
  s.restart = restart_stats_;
  s.trace = Tracer::Instance().Counts();
  s.tracing_enabled = Tracer::Instance().enabled();
  s.last_incident_json = last_incident_json_;
  return s;
}

Status Database::CaptureIncident(const std::string& reason) {
  if (blackbox_ == nullptr) {
    return Status::NotSupported("flight recorder disabled (Options::blackbox)");
  }
  return blackbox_->Capture("manual", reason);
}

std::string Database::BuildBlackBoxSnapshot(const char* /*trigger*/,
                                            const std::string& /*reason*/) {
  // Runs on any thread, possibly under the WAL flush mutex (flush-failure
  // trigger): only lock-free accessors of LogManager may be used, and no
  // surface below may wait on a thread that could be blocked in the WAL.
  std::string out;
  out.reserve(16384);
  JsonWriter w(&out);
  w.BeginObject()
      .Key("health").String(EngineHealthName(health_.state()))
      .Key("health_reason").String(health_.reason())
      .Key("wal").BeginObject()
      .Key("durable_lsn").Uint(log_->flushed_lsn())
      .Key("next_lsn").Uint(log_->next_lsn())
      .Key("last_lsn").Uint(log_->last_lsn());
  LogManager::BatchWindow batch = log_->LastBatchWindow();
  w.Key("last_batch").BeginObject()
      .Key("start_ns").Uint(batch.start_ns)
      .Key("write_done_ns").Uint(batch.write_done_ns)
      .Key("fsync_done_ns").Uint(batch.fsync_done_ns)
      .EndObject()
      .EndObject()
      .Key("fault").Raw(fault_.StateJson())
      .Key("restart");
  WriteRestartJson(restart_stats_, &w);
  w.Key("commit_breakdown").Raw(metrics_.CommitBreakdownJson());
  w.Key("locks").Raw(LockForensicsJson());
  // Bounded tracer excerpt: the newest events explain the incident; a full
  // dump is still available via DumpTrace while the process lives.
  std::string trace = Tracer::Instance().DumpJson(kBlackBoxTraceEvents);
  while (!trace.empty() && trace.back() == '\n') trace.pop_back();
  w.Key("trace_excerpt").Raw(trace)
      .Key("openmetrics").String(metrics_.ToOpenMetrics())
      .EndObject();
  // The envelope takes these as ','-prefixed members: swap the braces off.
  out.front() = ',';
  out.pop_back();
  return out;
}

void Database::SetUpBlackBox() {
  const std::string path = dir_ + "/blackbox.json";
  blackbox_ = std::make_unique<BlackBox>(path, &metrics_);
  blackbox_->SetSnapshotBuilder(
      [this](const char* trigger, const std::string& reason) {
        return BuildBlackBoxSnapshot(trigger, reason);
      });

  // A leftover record means the previous incarnation did not get to write a
  // newer one — annotate it with what this restart did about it, rewrite it
  // atomically (so offline tooling sees crash + recovery as one document)
  // and keep it in memory as Stats() "last_incident" for this whole
  // incarnation.
  std::string prev;
  if (BlackBox::ReadFile(path, &prev).ok() && !prev.empty()) {
    std::map<std::string, std::string> fields;
    std::string err;
    if (ParseJson(prev, &fields, &err)) {
      std::string rec;
      JsonWriter w(&rec);
      w.BeginObject()
          .Key("mode")
          .String(restart_stats_.instant
                      ? "instant"
                      : (options_.recover_on_open ? "classic" : "none"))
          .Key("health_after").String(EngineHealthName(health_.state()))
          .Key("stats");
      WriteRestartJson(restart_stats_, &w);
      w.EndObject();
      std::string annotated = BlackBox::SpliceField(prev, "recovery", rec);
      last_incident_json_ =
          blackbox_->WriteRaw(annotated).ok() ? std::move(annotated)
                                              : std::move(prev);
      // Breadcrumb embedded in every snapshot this incarnation writes, so
      // the prior incident stays on disk even after a cadence overwrite.
      auto field = [&fields](const char* key, const char* dflt) {
        auto it = fields.find(key);
        return it == fields.end() ? std::string(dflt) : it->second;
      };
      std::string summary;
      JsonWriter(&summary).BeginObject()
          .Key("trigger").String(field("trigger", "?"))
          .Key("reason").String(field("reason", ""))
          .Key("ts_unix_ms").Raw(field("ts_unix_ms", "0"))
          .Key("seq").Raw(field("seq", "0"))
          .EndObject();
      blackbox_->SetPreviousIncident(std::move(summary));
    }
    // An unparseable leftover is left as-is for offline inspection; the
    // next capture simply replaces it.
  }

  // Trigger hooks only on the fully opened engine: a trip during recovery
  // is already covered by the annotation above, and capturing from a
  // half-built engine would be worse than no capture.
  health_.SetTripObserver([this](EngineHealth, const std::string& reason) {
    blackbox_->Capture("health_trip", reason);
  });
  log_->SetFlushFailureObserver([this](const Status& s) {
    blackbox_->Capture("flush_failure", s.ToString());
  });
  blackbox_->StartPeriodic(options_.blackbox_interval_ms);
}

void Database::SetTracing(bool on) {
  if (on) {
    Tracer::Instance().Enable();
  } else {
    Tracer::Instance().Disable();
  }
}

bool Database::tracing() const { return Tracer::Instance().enabled(); }

Status Database::DumpTrace(const std::string& path) {
  return Tracer::Instance().Dump(path);
}

Status Database::Checkpoint() { return recovery_->TakeCheckpoint(); }

Status Database::FlushPage(PageId id) { return pool_->FlushPage(id); }

Status Database::FlushAllPages() { return pool_->FlushAll(); }

void Database::SimulateCrash() {
  // Stop the sampler: a "crashed" engine should produce no further samples.
  if (sampler_ != nullptr) sampler_->Stop();
  // Flight recorder: stop the cadence (nothing may overwrite the incident
  // record after this point), then force-capture the at-crash state while
  // the WAL tail and fault-injector state are still exactly as the crash
  // left them.
  if (blackbox_ != nullptr) {
    blackbox_->Stop();
    blackbox_->Capture("simulate_crash", "SimulateCrash()");
  }
  // The sweeper first: it drives FetchPage traffic (log appends via
  // checkpoint) that must not race the discard below.
  StopSweeper();
  // Drain the group-commit flusher before discarding the tail so no flush
  // races the discard. In-flight committers fall through to the inline
  // flush and observe either durability or the discarded tail (an error —
  // their commits were never acknowledged).
  log_->StopFlusher();
  log_->DiscardUnflushed();
  pool_->DropAll();
  crashed_ = true;
}

Status Database::SimulateTornCrash(const TornCrashSpec& spec) {
  SimulateCrash();
  // Re-capture as a torn crash — before Disarm clears the spec, so the
  // fault fields still name the injected fault the postmortem must match.
  if (blackbox_ != nullptr) blackbox_->Capture("torn_crash", spec.ToString());
  // The next incarnation's device is healthy; only the files stay damaged.
  fault_.Disarm();
  switch (spec.target) {
    case TornCrashSpec::Target::kNone:
      return Status::OK();
    case TornCrashSpec::Target::kDataPage: {
      const std::string path = dir_ + "/data.db";
      int fd = ::open(path.c_str(), O_RDWR);
      if (fd < 0) {
        return Status::IOError("open " + path + ": " + std::strerror(errno));
      }
      const size_t ps = options_.page_size;
      struct stat st;
      if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return Status::IOError("fstat " + path);
      }
      off_t off = static_cast<off_t>(spec.page_id) * static_cast<off_t>(ps);
      if (static_cast<uint64_t>(st.st_size) < static_cast<uint64_t>(off) + ps) {
        ::close(fd);
        return Status::InvalidArgument(
            "page " + std::to_string(spec.page_id) +
            " is not fully materialized on disk; cannot tear it");
      }
      // Keep the first keep_bytes of the page, scramble the rest — the torn
      // suffix of a half-written sector is unspecified garbage.
      size_t keep = std::min<size_t>(spec.keep_bytes, ps - 1);
      std::string junk(ps - keep, '\xAB');
      ssize_t n = ::pwrite(fd, junk.data(), junk.size(),
                           off + static_cast<off_t>(keep));
      bool ok = n == static_cast<ssize_t>(junk.size()) && ::fsync(fd) == 0;
      ::close(fd);
      if (!ok) return Status::IOError("tear page " + std::to_string(spec.page_id));
      return Status::OK();
    }
    case TornCrashSpec::Target::kLogTail: {
      const std::string path = dir_ + "/wal.log";
      uint64_t to = std::max<uint64_t>(spec.truncate_to, kLogFilePrologue);
      if (::truncate(path.c_str(), static_cast<off_t>(to)) != 0) {
        return Status::IOError("truncate " + path + " to " +
                               std::to_string(to) + ": " +
                               std::strerror(errno));
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("bad torn-crash target");
}

}  // namespace ariesim
