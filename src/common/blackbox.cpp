#include "common/blackbox.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/clock.h"
#include "common/json.h"

namespace ariesim {

BlackBox::BlackBox(std::string path, Metrics* metrics)
    : path_(std::move(path)), metrics_(metrics) {}

BlackBox::~BlackBox() { Stop(); }

void BlackBox::SetSnapshotBuilder(SnapshotBuilder builder) {
  std::lock_guard<std::mutex> lk(mu_);
  builder_ = std::move(builder);
}

void BlackBox::SetPreviousIncident(std::string summary_json_object) {
  std::lock_guard<std::mutex> lk(mu_);
  prev_incident_ = std::move(summary_json_object);
}

void BlackBox::StartPeriodic(uint32_t interval_ms) {
  if (interval_ms == 0) return;
  std::lock_guard<std::mutex> lk(run_mu_);
  if (run_flag_) return;
  run_flag_ = true;
  periodic_running_.store(true, std::memory_order_release);
  periodic_ = std::thread([this, interval_ms] { PeriodicLoop(interval_ms); });
}

void BlackBox::Stop() {
  {
    std::lock_guard<std::mutex> lk(run_mu_);
    if (!run_flag_ && !periodic_.joinable()) return;
    run_flag_ = false;
    run_cv_.notify_all();
  }
  if (periodic_.joinable()) periodic_.join();
  periodic_running_.store(false, std::memory_order_release);
}

void BlackBox::PeriodicLoop(uint32_t interval_ms) {
  std::unique_lock<std::mutex> lk(run_mu_);
  while (run_flag_) {
    run_cv_.wait_for(lk, std::chrono::milliseconds(interval_ms),
                     [&] { return !run_flag_; });
    if (!run_flag_) break;
    lk.unlock();
    Capture("cadence", "");
    lk.lock();
  }
}

Status BlackBox::Capture(const char* trigger, const std::string& reason) {
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t t0 = MonotonicNowNs();
  const uint64_t now_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());

  std::string out;
  out.reserve(16384);
  JsonWriter w(&out);
  w.BeginObject()
      .Key("version").Uint(1)
      .Key("seq").Uint(++seq_)  // 1-based: seq 1 = first
      .Key("ts_unix_ms").Uint(now_ms)
      .Key("pid").Uint(static_cast<uint64_t>(::getpid()))
      .Key("trigger").String(trigger)
      .Key("reason").String(reason);

  const bool is_incident = std::strcmp(trigger, "cadence") != 0 &&
                           std::strcmp(trigger, "clean_shutdown") != 0;
  if (is_incident && incident_memo_.empty()) {
    // Memoize the FIRST incident of this incarnation: later snapshots —
    // cadence refreshes or follow-on incidents (a flush failure escalating
    // into a health trip and then a crash) — keep pointing at the root
    // cause even after they overwrite its full record.
    JsonWriter(&incident_memo_).BeginObject()
        .Key("trigger").String(trigger)
        .Key("reason").String(reason)
        .Key("ts_unix_ms").Uint(now_ms)
        .Key("seq").Uint(seq_)
        .EndObject();
  }
  w.Key("incident");
  incident_memo_.empty() ? w.Null() : w.Raw(incident_memo_);
  w.Key("prev");
  prev_incident_.empty() ? w.Null() : w.Raw(prev_incident_);
  // The builder's ','-prefixed engine-state members join the envelope as-is.
  if (builder_) out += builder_(trigger, reason);
  w.EndObject();

  Status s = WriteAtomic(out);
  if (s.ok()) {
    captures_.fetch_add(1, std::memory_order_release);
    if (metrics_ != nullptr) {
      metrics_->blackbox_captures.fetch_add(1, std::memory_order_relaxed);
      metrics_->blackbox_capture_latency.Record(MonotonicNowNs() - t0);
    }
  }
  return s;
}

Status BlackBox::WriteRaw(const std::string& json) {
  std::lock_guard<std::mutex> lk(mu_);
  return WriteAtomic(json);
}

Status BlackBox::WriteAtomic(const std::string& json) {
  // Alternate between two tmp slots so even the tmp write never lands on
  // the bytes of the immediately preceding one.
  const std::string tmp = path_ + ".tmp." + std::to_string(tmp_slot_);
  tmp_slot_ ^= 1;
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("blackbox: open " + tmp + ": " +
                           std::strerror(errno));
  }
  size_t off = 0;
  while (off < json.size()) {
    ssize_t n = ::write(fd, json.data() + off, json.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IOError("blackbox: write " + tmp + ": " +
                             std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IOError("blackbox: fsync " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("blackbox: rename " + tmp + " -> " + path_ + ": " +
                           std::strerror(errno));
  }
  // Best-effort directory fsync so the rename itself survives power loss.
  std::string dir = path_;
  size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  if (metrics_ != nullptr) {
    metrics_->blackbox_bytes.fetch_add(json.size(), std::memory_order_relaxed);
  }
  return Status::OK();
}

Status BlackBox::ReadFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no black box at " + path);
    return Status::IOError("blackbox: open " + path + ": " +
                           std::strerror(errno));
  }
  out->clear();
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out->append(buf, static_cast<size_t>(n));
  }
  int saved = errno;
  ::close(fd);
  if (n < 0) {
    return Status::IOError("blackbox: read " + path + ": " +
                           std::strerror(saved));
  }
  return Status::OK();
}

std::string BlackBox::SpliceField(const std::string& object_json,
                                  const std::string& key,
                                  const std::string& value_json) {
  size_t end = object_json.find_last_of('}');
  if (end == std::string::npos) return object_json;
  std::string out = object_json.substr(0, end) + ',';
  JsonWriter(&out).Key(key).Raw(value_json);
  return out + '}';
}

}  // namespace ariesim
