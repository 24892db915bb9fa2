#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>

namespace ariesim {

namespace {
// Deterministic bit-rot pattern for FaultKind::kBitRot: XOR a run of bytes
// starting inside the page header so the stored checksum no longer matches
// the body no matter what the page held.
void ScramblePage(char* buf, size_t page_size) {
  size_t start = std::min<size_t>(16, page_size / 2);
  size_t len = std::min<size_t>(48, page_size - start);
  for (size_t i = 0; i < len; i++) {
    buf[start + i] = static_cast<char>(buf[start + i] ^ 0x5A);
  }
}

std::atomic<size_t> next_reader{0};
/// The calling thread's read descriptor, modulo their count.
thread_local const size_t reader_index =
    next_reader.fetch_add(1, std::memory_order_relaxed);
}  // namespace

DiskManager::DiskManager(std::string path, size_t page_size, Metrics* metrics,
                         uint32_t sim_io_delay_us)
    : path_(std::move(path)),
      page_size_(page_size),
      metrics_(metrics),
      sim_io_delay_us_(sim_io_delay_us) {}

DiskManager::~DiskManager() { Close(); }

Status DiskManager::Open() {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    return Status::IOError("open " + path_ + ": " + std::strerror(errno));
  }
  const unsigned n = std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
  while (read_fds_.size() < n) {
    int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0) {
      Status s = Status::IOError("open " + path_ + ": " + std::strerror(errno));
      Close();
      return s;
    }
    read_fds_.push_back(fd);
  }
  return Status::OK();
}

void DiskManager::Close() {
  for (int fd : read_fds_) ::close(fd);
  read_fds_.clear();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void DiskManager::SetRetryPolicy(int attempts, uint32_t base_delay_us,
                                 uint32_t max_delay_us) {
  retry_attempts_ = attempts < 1 ? 1 : attempts;
  retry_base_delay_us_ = base_delay_us;
  retry_max_delay_us_ = max_delay_us;
}

void DiskManager::BackoffBeforeRetry(int attempt) {
  if (metrics_ != nullptr) {
    metrics_->io_retries.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t delay = retry_base_delay_us_;
  // Double per completed attempt: retry 1 waits base, retry 2 waits 2*base...
  if (attempt > 1) delay <<= std::min(attempt - 1, 20);
  if (retry_max_delay_us_ > 0) {
    delay = std::min<uint64_t>(delay, retry_max_delay_us_);
  }
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
}

Status DiskManager::ReadPage(PageId id, char* buf) {
  Status s = ReadPageOnce(id, buf);
  for (int attempt = 1;
       s.code() == Code::kIOError && attempt < retry_attempts_; attempt++) {
    BackoffBeforeRetry(attempt);
    s = ReadPageOnce(id, buf);
  }
  return s;
}

Status DiskManager::ReadPageOnce(PageId id, char* buf) {
  if (sim_io_delay_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(sim_io_delay_us_));
  }
  bool rot = false;
  if (fault_ != nullptr) {
    FaultAction a = fault_->OnIo(FaultSite::kDataRead, page_size_, id);
    if (a.kind == FaultAction::Kind::kCorrupt) {
      rot = true;  // the read "succeeds" but the media has decayed
    } else if (a.kind != FaultAction::Kind::kProceed) {
      return Status::IOError("fault injection: read of page " +
                             std::to_string(id));
    }
  }
  off_t off = static_cast<off_t>(id) * static_cast<off_t>(page_size_);
  const int fd = read_fds_.empty()  // not open: pread fails with EBADF
                     ? fd_
                     : read_fds_[reader_index % read_fds_.size()];
  ssize_t n = ::pread(fd, buf, page_size_, off);
  if (n < 0) {
    return Status::IOError("pread page " + std::to_string(id) + ": " +
                           std::strerror(errno));
  }
  if (static_cast<size_t>(n) < page_size_) {
    // Fresh page (or short tail): zero-fill the remainder.
    std::memset(buf + n, 0, page_size_ - n);
  }
  if (rot) ScramblePage(buf, page_size_);
  if (metrics_ != nullptr) {
    metrics_->pages_read.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const char* buf) {
  Status s = WritePageOnce(id, buf);
  for (int attempt = 1;
       s.code() == Code::kIOError && attempt < retry_attempts_; attempt++) {
    BackoffBeforeRetry(attempt);
    s = WritePageOnce(id, buf);
  }
  return s;
}

Status DiskManager::WritePageOnce(PageId id, const char* buf) {
  if (sim_io_delay_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(sim_io_delay_us_));
  }
  size_t write_len = page_size_;
  std::string rotted;
  if (fault_ != nullptr) {
    FaultAction a = fault_->OnIo(FaultSite::kDataWrite, page_size_, id);
    if (a.kind == FaultAction::Kind::kFail) {
      return Status::IOError("fault injection: write of page " +
                             std::to_string(id));
    }
    if (a.kind == FaultAction::Kind::kTear) {
      // The torn prefix reaches the platter; the caller sees success, as it
      // would before the power actually failed.
      write_len = a.keep_bytes;
    }
    if (a.kind == FaultAction::Kind::kCorrupt) {
      // In-place bit-rot: what lands on disk is scrambled, the caller sees
      // success. Only the next verified read can notice.
      rotted.assign(buf, page_size_);
      ScramblePage(rotted.data(), page_size_);
      buf = rotted.data();
    }
  }
  off_t off = static_cast<off_t>(id) * static_cast<off_t>(page_size_);
  if (write_len > 0) {
    ssize_t n = ::pwrite(fd_, buf, write_len, off);
    if (n < 0) {
      return Status::IOError("pwrite page " + std::to_string(id) + ": " +
                             std::strerror(errno));
    }
    if (static_cast<size_t>(n) != write_len) {
      // A short write is not an errno failure: an unknown prefix of the page
      // is now on disk. Report the byte counts so callers (and operators) can
      // distinguish a torn page from a plain I/O error.
      return Status::IOError("short pwrite of page " + std::to_string(id) +
                             ": wrote " + std::to_string(n) + " of " +
                             std::to_string(write_len) + " bytes");
    }
  }
  if (metrics_ != nullptr) {
    metrics_->pages_written.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status DiskManager::Sync() {
  Status s = SyncOnce();
  for (int attempt = 1;
       s.code() == Code::kIOError && attempt < retry_attempts_; attempt++) {
    BackoffBeforeRetry(attempt);
    s = SyncOnce();
  }
  return s;
}

Status DiskManager::SyncOnce() {
  if (fault_ != nullptr) {
    FaultAction a = fault_->OnIo(FaultSite::kDataSync, 0);
    if (a.kind != FaultAction::Kind::kProceed) {
      return Status::IOError("fault injection: data sync");
    }
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::OK();
}

uint64_t DiskManager::PagesOnDisk() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size) / page_size_;
}

}  // namespace ariesim
