// File-backed page store for the single tablespace. The buffer pool is the
// only client. Reads beyond EOF return zero-filled "fresh" pages so that
// redo of an allocation can always fetch its target page.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "util/fault_injector.h"

namespace ariesim {

class DiskManager {
 public:
  DiskManager(std::string path, size_t page_size, Metrics* metrics,
              uint32_t sim_io_delay_us = 0);
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  Status Open();
  void Close();

  /// Read page `id` into `buf` (page_size bytes). Beyond-EOF reads zero-fill.
  Status ReadPage(PageId id, char* buf);
  /// Write page `id` from `buf`. Extends the file as needed.
  Status WritePage(PageId id, const char* buf);
  /// fsync the data file.
  Status Sync();

  size_t page_size() const { return page_size_; }
  /// Number of pages currently materialized in the file.
  uint64_t PagesOnDisk() const;

  /// Install a fault-injection hook consulted before every I/O. Pass
  /// nullptr to detach. The injector must outlive this DiskManager.
  void SetFaultInjector(FaultInjector* fault) { fault_ = fault; }

  /// Bounded retry for transient I/O errors: `attempts` total tries per
  /// operation (minimum 1 = no retry, the default), exponential backoff from
  /// `base_delay_us` doubling per attempt, clamped to `max_delay_us`. Each
  /// extra attempt counts one Metrics::io_retries.
  void SetRetryPolicy(int attempts, uint32_t base_delay_us,
                      uint32_t max_delay_us);

 private:
  Status ReadPageOnce(PageId id, char* buf);
  Status WritePageOnce(PageId id, const char* buf);
  Status SyncOnce();
  /// Sleep before retry number `attempt` (1-based) and count the retry.
  void BackoffBeforeRetry(int attempt);

  std::string path_;
  size_t page_size_;
  Metrics* metrics_;
  uint32_t sim_io_delay_us_;
  FaultInjector* fault_ = nullptr;
  int retry_attempts_ = 1;
  uint32_t retry_base_delay_us_ = 0;
  uint32_t retry_max_delay_us_ = 0;
  int fd_ = -1;  // writes, Sync and the file size
  /// O_RDONLY descriptors for ReadPage, one per hardware thread (at most
  /// 16): threads that pread through one `struct file` contend on its
  /// reference count in the kernel.
  std::vector<int> read_fds_;
  std::mutex mu_;  // serializes file extension bookkeeping
};

}  // namespace ariesim
