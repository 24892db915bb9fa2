#include "wal/log_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/clock.h"
#include "common/commit_breakdown.h"
#include "common/trace.h"
#include "util/coding.h"

namespace ariesim {

namespace {

// Commit-breakdown attribution for one durability wait (PR 9): split the
// waiter's interval [enqueue_ns, now) across the phases of the batch that
// made it durable, by intersecting each phase with the waiter's own window.
// A waiter that joined mid-batch only charges the part it actually sat
// through; one whose LSN was already durable charges everything to wakeup
// (pure validation/handoff cost). No-op when no transaction is bound.
void AttributeDurabilityWait(uint64_t enqueue_ns, uint64_t batch_start_ns,
                             uint64_t write_done_ns, uint64_t sync_done_ns) {
  if (CurrentCommitBreakdown() == nullptr) return;
  const uint64_t now = MonotonicNowNs();
  auto overlap = [&](uint64_t lo, uint64_t hi) -> uint64_t {
    lo = std::max(lo, enqueue_ns);
    hi = std::min(hi, now);
    return hi > lo ? hi - lo : 0;
  };
  if (sync_done_ns <= enqueue_ns) {
    AddCommitSegment(CommitSegment::wakeup, now - enqueue_ns);
    return;
  }
  AddCommitSegment(CommitSegment::queue_wait,
                   batch_start_ns > enqueue_ns ? batch_start_ns - enqueue_ns
                                               : 0);
  AddCommitSegment(CommitSegment::batch_write,
                   overlap(batch_start_ns, write_done_ns));
  AddCommitSegment(CommitSegment::fsync, overlap(write_done_ns, sync_done_ns));
  AddCommitSegment(CommitSegment::wakeup,
                   now > sync_done_ns ? now - sync_done_ns : 0);
}

}  // namespace

LogManager::LogManager(std::string path, Metrics* metrics, bool fsync_on_flush,
                       size_t buffer_capacity)
    : path_(std::move(path)),
      metrics_(metrics),
      fsync_on_flush_(fsync_on_flush),
      buffer_capacity_(buffer_capacity) {}

LogManager::~LogManager() { Close(); }

Status LogManager::Open() {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    return Status::IOError("open log " + path_ + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError("fstat log: " + std::string(std::strerror(errno)));
  }
  if (st.st_size == 0) {
    char magic[kLogFilePrologue];
    EncodeFixed64(magic, kLogMagic);
    if (::pwrite(fd_, magic, sizeof(magic), 0) != static_cast<ssize_t>(sizeof(magic))) {
      return Status::IOError("write log prologue");
    }
    next_lsn_ = kLogFilePrologue;
  } else {
    // Scan forward from the prologue to find the end of the valid log.
    if (!LogFileReader::HasPrologue(fd_)) {
      return Status::Corruption("bad log magic");
    }
    Lsn start = kLogFilePrologue;
    // Every byte below the master checkpoint LSN was durably flushed
    // before the master record was written, so the end-of-log walk can
    // start there: open cost is bounded by the checkpoint interval, not
    // total log size. A torn crash can still truncate the file back into
    // (or below) the checkpoint record — if the record at the master LSN
    // doesn't parse, fall back to the full walk from the prologue.
    Result<Lsn> master = ReadMaster();
    LogRecord rec;
    if (master.ok() && master.value() > kLogFilePrologue &&
        LogFileReader(fd_, master.value()).Next(&rec).ok()) {
      start = master.value();
    }
    LogFileReader reader(fd_, start);
    while (reader.Next(&rec).ok()) last_lsn_ = rec.lsn;
    next_lsn_ = reader.position();
    // Truncate any torn tail so future appends extend a clean prefix.
    if (::ftruncate(fd_, static_cast<off_t>(reader.position())) != 0) {
      return Status::IOError("ftruncate log tail");
    }
  }
  flushed_lsn_ = next_lsn_.load();
  buffer_base_ = next_lsn_.load();
  prealloc_end_ = 0;
  buffer_.clear();
  return Status::OK();
}

void LogManager::Close() {
  StopFlusher();
  if (fd_ >= 0) {
    FlushAll();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (prealloc_end_ > next_lsn_) (void)::ftruncate(fd_, next_lsn_.load());
    }
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Lsn> LogManager::Append(LogRecord* rec) {
  std::lock_guard<std::mutex> lk(mu_);
  rec->lsn = next_lsn_;
  rec->AppendTo(&buffer_);
  next_lsn_ += rec->SerializedSize();
  last_lsn_ = rec->lsn;
  if (append_observer_ && rec->IsRedoable() &&
      rec->page_id != kInvalidPageId) {
    append_observer_(rec->page_id, rec->lsn);
  }
  if (metrics_ != nullptr) {
    metrics_->log_records.fetch_add(1, std::memory_order_relaxed);
    metrics_->log_bytes.fetch_add(rec->SerializedSize(), std::memory_order_relaxed);
  }
  // Bound the volatile tail: spill to the file when the buffer fills.
  // (Writing early is always safe under WAL — durability claims only ever
  // strengthen.)
  if (buffer_.size() >= buffer_capacity_) {
    ARIES_RETURN_NOT_OK(FlushLocked());
  }
  return rec->lsn;
}

Status LogManager::FlushLocked() {
  if (buffer_.empty()) return Status::OK();
  Status s = FlushLockedImpl();
  if (s.ok()) {
    consecutive_flush_failures_ = 0;
  } else {
    ++consecutive_flush_failures_;
    // First failure of a streak: let the flight recorder capture the WAL
    // state before (and whether or not) the health monitor trips below.
    if (consecutive_flush_failures_ == 1 && flush_failure_observer_) {
      flush_failure_observer_(s);
    }
    if (health_ != nullptr && flush_failure_threshold_ > 0) {
      if (consecutive_flush_failures_ >= 2 * flush_failure_threshold_) {
        health_->Trip(EngineHealth::kFailed,
                      "log flush failing persistently: " + s.message());
      } else if (consecutive_flush_failures_ >= flush_failure_threshold_) {
        health_->Trip(EngineHealth::kReadOnly,
                      "log flush failing: " + s.message());
      }
    }
  }
  return s;
}

Status LogManager::FlushLockedImpl() {
  if (fault_ != nullptr) {
    FaultAction a = fault_->OnIo(FaultSite::kLogFlush, buffer_.size());
    if (a.kind == FaultAction::Kind::kFail) {
      return Status::IOError("fault injection: log flush");
    }
    if (a.kind == FaultAction::Kind::kTear) {
      // Partial tail flush: a prefix of the tail reaches the file, but the
      // flush as a whole fails — flushed_lsn_ must not advance, so no caller
      // may treat any of these records as durable.
      (void)::pwrite(fd_, buffer_.data(), a.keep_bytes,
                     static_cast<off_t>(buffer_base_));
      return Status::IOError(
          "fault injection: partial log flush (" +
          std::to_string(a.keep_bytes) + " of " +
          std::to_string(buffer_.size()) + " bytes)");
    }
  }
  // Flush the whole tail (simple, and amortizes well under group pressure).
  const uint64_t flush_start_ns = MonotonicNowNs();
  uint64_t write_done_ns = flush_start_ns;
  {
    // The fsync span is the serial heart of the group-commit pipeline; it is
    // also recorded on the error returns so a stall shows up in the trace.
    ARIES_TRACE_SPAN(span, "wal.fsync", TraceCat::kWal, buffer_.size());
    ssize_t n = ::pwrite(fd_, buffer_.data(), buffer_.size(),
                         static_cast<off_t>(buffer_base_));
    if (n < 0) {
      return Status::IOError("pwrite log: " + std::string(std::strerror(errno)));
    }
    if (static_cast<size_t>(n) != buffer_.size()) {
      return Status::IOError("short pwrite of log tail: wrote " +
                             std::to_string(n) + " of " +
                             std::to_string(buffer_.size()) + " bytes");
    }
    // Zero-fill ahead of the batch (fsync mode only): 64 KiB at the first
    // flush after Open or a crash, so a restart's first commit stays cheap,
    // then half the file size, capped at 4 MiB. The zeros ride this batch's
    // fdatasync, so only an extension pays for a journal commit; a failed
    // zero write just retries at the next flush.
    const Lsn end = buffer_base_ + buffer_.size();
    if (fsync_on_flush_ && end > prealloc_end_) {
      static const char kZeros[64 << 10] = {};
      const Lsn target =
          end + (prealloc_end_ == 0 ? sizeof(kZeros)
                                    : std::clamp<Lsn>(end / 2, sizeof(kZeros),
                                                      Lsn{4} << 20));
      Lsn off = end;
      while (off < target) {
        const ssize_t z =
            ::pwrite(fd_, kZeros, std::min<Lsn>(sizeof(kZeros), target - off),
                     static_cast<off_t>(off));
        if (z <= 0) break;
        off += static_cast<Lsn>(z);
      }
      prealloc_end_ = off;
    }
    write_done_ns = MonotonicNowNs();
    if (fsync_on_flush_ && ::fdatasync(fd_) != 0) {
      return Status::IOError("fdatasync log");
    }
  }
  const uint64_t sync_done_ns = MonotonicNowNs();
  // Publish the batch phases before the flushed_lsn_ release store: a commit
  // waiter that sees its LSN durable then also sees this batch's timing.
  last_batch_start_ns_.store(flush_start_ns, std::memory_order_relaxed);
  last_batch_write_ns_.store(write_done_ns, std::memory_order_relaxed);
  last_batch_fsync_ns_.store(sync_done_ns, std::memory_order_relaxed);
  buffer_base_ = next_lsn_.load();
  flushed_lsn_ = next_lsn_.load();
  buffer_.clear();
  if (metrics_ != nullptr) {
    metrics_->log_flushes.fetch_add(1, std::memory_order_relaxed);
    metrics_->log_flush_latency.Record(MonotonicNowNs() - flush_start_ns);
  }
  // Any flush can satisfy flusher-side waiters (capacity spills and WAL-rule
  // forces advance flushed_lsn_ too). Notifying without gc_mu_ is legal; the
  // waiters re-check their predicate under gc_mu_.
  if (flusher_running()) gc_cv_.notify_all();
  return Status::OK();
}

Status LogManager::FlushTo(Lsn lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  if (lsn < flushed_lsn_ || buffer_.empty()) return Status::OK();
  return FlushLocked();
}

Status LogManager::FlushAll() { return FlushTo(next_lsn_); }

// -- group commit -----------------------------------------------------------

Status LogManager::CommitFlush(Lsn lsn) {
  if (metrics_ != nullptr) {
    metrics_->group_commit_txns.fetch_add(1, std::memory_order_relaxed);
  }
  // Covers this committer's whole enqueue -> (batch, fsync) -> wakeup wait.
  ARIES_TRACE_SPAN(span, "gc.wait", TraceCat::kWal, lsn);
  ARIES_TRACE_INSTANT("gc.enqueue", TraceCat::kWal, lsn);
  const uint64_t enqueue_ns = MonotonicNowNs();
  Status s = flusher_running() ? AwaitFlusher(lsn) : Status::OK();
  if (s.ok() && flushed_lsn() < lsn) {
    // No flusher (or it stopped under us): flush inline. The published
    // batch phases then describe exactly the flush that satisfied us,
    // because CommitBatch returns ordered after FlushLockedImpl's stores.
    Lsn end = 0;
    s = CommitBatch(lsn, &end);
    // An empty tail flushes nothing: DiscardUnflushed threw our record away
    // and it can never become durable.
    if (s.ok() && flushed_lsn() < lsn) {
      s = Status::IOError("log tail discarded before commit flush");
    }
  }
  if (s.ok()) {
    AttributeDurabilityWait(
        enqueue_ns, last_batch_start_ns_.load(std::memory_order_relaxed),
        last_batch_write_ns_.load(std::memory_order_relaxed),
        last_batch_fsync_ns_.load(std::memory_order_relaxed));
  }
  return s;
}

void LogManager::RequestFlush(Lsn lsn) {
  if (metrics_ != nullptr) {
    metrics_->group_commit_txns.fetch_add(1, std::memory_order_relaxed);
  }
  ARIES_TRACE_INSTANT("gc.enqueue", TraceCat::kWal, lsn);
  std::lock_guard<std::mutex> lk(gc_mu_);
  gc_requested_ = std::max(gc_requested_, lsn);
  flusher_cv_.notify_one();
}

Status LogManager::CommitBatch(Lsn lsn, Lsn* end_out) {
  // One batch of the group-commit pipeline: take mu_, write + sync the whole
  // tail. Nested inside it (when tracing) sits the wal.fsync span.
  ARIES_TRACE_SPAN(span, "gc.batch", TraceCat::kWal, flushed_lsn());
  std::lock_guard<std::mutex> lk(mu_);
  *end_out = next_lsn_.load(std::memory_order_relaxed);
  if (flushed_lsn_.load(std::memory_order_relaxed) >= lsn || buffer_.empty()) {
    return Status::OK();
  }
  Status s = FlushLocked();
  if (metrics_ != nullptr && s.ok()) {
    metrics_->group_commit_batches.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

Status LogManager::AwaitFlusher(Lsn lsn) {
  std::unique_lock<std::mutex> lk(gc_mu_);
  // One forced re-flush per waiter: if the attempt that covered us failed
  // (e.g. a transient error that has since healed), roll the attempt
  // watermark back once so the flusher tries again for us; a second
  // covered failure is final.
  bool retried = false;
  while (flusher_running() && flushed_lsn() < lsn) {
    // Crash simulation discarded the tail out from under us: our record no
    // longer exists and can never become durable.
    if (lsn > next_lsn()) {
      return Status::IOError("log tail discarded before commit flush");
    }
    if (!gc_status_.ok() && gc_attempted_ >= lsn) {
      if (retried) return gc_status_;
      retried = true;
      gc_attempted_ = flushed_lsn();
    }
    gc_requested_ = std::max(gc_requested_, lsn);
    const uint64_t round = gc_round_;
    // Hand the batch to the flusher and wait for durability or the verdict
    // of an attempt that covered us. The timeout is a lost-wakeup backstop
    // (flushes from Append's capacity spill notify without gc_mu_); the
    // loop re-checks everything.
    flusher_cv_.notify_one();
    gc_cv_.wait_for(lk, std::chrono::milliseconds(1), [&] {
      return flushed_lsn() >= lsn || gc_round_ != round ||
             lsn > next_lsn() || !flusher_running();
    });
  }
  return Status::OK();
}

void LogManager::FlusherLoop() {
  std::unique_lock<std::mutex> lk(gc_mu_);
  while (flusher_run_) {
    // A request is pending when someone asked for a boundary beyond both
    // the durable prefix and the last attempt. Comparing against
    // gc_attempted_ (not just flushed_lsn) keeps a frozen device from
    // spinning hot: a failed attempt answers every request it covered.
    if (gc_requested_ <= std::max(flushed_lsn(), gc_attempted_)) {
      flusher_cv_.wait_for(lk, std::chrono::milliseconds(10), [&] {
        return !flusher_run_ ||
               gc_requested_ > std::max(flushed_lsn(), gc_attempted_);
      });
      continue;
    }
    const Lsn want = gc_requested_;
    lk.unlock();
    Lsn end = 0;
    Status s = CommitBatch(want, &end);
    lk.lock();
    ++gc_round_;
    gc_status_ = s;
    gc_attempted_ = std::max(gc_attempted_, end);
    gc_cv_.notify_all();
    ARIES_TRACE_INSTANT("gc.wakeup", TraceCat::kWal, end);
  }
}

void LogManager::StartFlusher() {
  std::lock_guard<std::mutex> lk(gc_mu_);
  if (flusher_run_) return;
  flusher_run_ = true;
  flusher_running_.store(true, std::memory_order_release);
  flusher_ = std::thread([this] { FlusherLoop(); });
}

void LogManager::StopFlusher() {
  {
    std::lock_guard<std::mutex> lk(gc_mu_);
    if (!flusher_run_ && !flusher_.joinable()) return;
    flusher_run_ = false;
    flusher_running_.store(false, std::memory_order_release);
    flusher_cv_.notify_all();
    gc_cv_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
}

Status LogManager::ReadRecord(Lsn lsn, LogRecord* out) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (lsn >= buffer_base_) {
      if (lsn >= next_lsn_) return Status::NotFound("lsn beyond end of log");
      size_t off = static_cast<size_t>(lsn - buffer_base_);
      Status s = LogRecord::Parse(
          std::string_view(buffer_.data() + off, buffer_.size() - off), out);
      if (s.ok()) out->lsn = lsn;
      return s;
    }
  }
  return LogFileReader(fd_, lsn).Next(out);
}

void LogManager::DiscardUnflushed() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    buffer_.clear();
    next_lsn_ = flushed_lsn_.load();
    buffer_base_ = flushed_lsn_.load();
    // A crash leaves the zero-filled slack on disk: forget it, so Close
    // does not trim it away (the next flush zero-fills afresh).
    prealloc_end_ = 0;
  }
  // Wake group-commit waiters whose records were just discarded (they see
  // lsn > next_lsn and return an error: their commits were never
  // acknowledged) and reset the batching watermarks to the durable prefix.
  std::lock_guard<std::mutex> lk(gc_mu_);
  gc_requested_ = flushed_lsn();
  gc_attempted_ = flushed_lsn();
  gc_cv_.notify_all();
  flusher_cv_.notify_all();
}

Status LogManager::WriteMaster(Lsn checkpoint_lsn) {
  std::string mpath = path_ + ".master";
  std::string tmp = mpath + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("open master tmp");
  char buf[8];
  EncodeFixed64(buf, checkpoint_lsn);
  bool ok = ::pwrite(fd, buf, 8, 0) == 8 && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return Status::IOError("write master");
  if (::rename(tmp.c_str(), mpath.c_str()) != 0) {
    return Status::IOError("rename master");
  }
  return Status::OK();
}

Result<Lsn> LogManager::ReadMaster() {
  std::string mpath = path_ + ".master";
  int fd = ::open(mpath.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("no master record");
  char buf[8];
  ssize_t n = ::pread(fd, buf, 8, 0);
  ::close(fd);
  if (n != 8) return Status::Corruption("short master record");
  return DecodeFixed64(buf);
}

Status LogManager::Reader::Next(LogRecord* out) {
  if (!lm_->ReadRecord(pos_, out).ok()) return Status::NotFound("end of log");
  pos_ += out->SerializedSize();
  return Status::OK();
}

}  // namespace ariesim
