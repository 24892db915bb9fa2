#include "util/fault_injector.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace ariesim {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kDataRead:
      return "data-read";
    case FaultSite::kDataWrite:
      return "data-write";
    case FaultSite::kDataSync:
      return "data-sync";
    case FaultSite::kLogFlush:
      return "log-flush";
    case FaultSite::kEvictWrite:
      return "evict-write";
  }
  return "?";
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTornWrite:
      return "torn-write";
    case FaultKind::kPartialFlush:
      return "partial-flush";
    case FaultKind::kTransientError:
      return "transient-error";
    case FaultKind::kBitRot:
      return "bit-rot";
    case FaultKind::kPersistentError:
      return "persistent-error";
    case FaultKind::kStuckDevice:
      return "stuck-device";
  }
  return "?";
}

std::string FaultSpec::ToString() const {
  std::ostringstream os;
  os << FaultKindName(kind) << "@" << FaultSiteName(site) << " nth=" << nth
     << " keep=" << keep_bytes << " repeat=" << repeat
     << (freeze_after ? " freeze" : "");
  if (page_id != kInvalidPageId) os << " page=" << page_id;
  if (stall_us != 0) os << " stall_us=" << stall_us;
  return os.str();
}

std::string TornCrashSpec::ToString() const {
  std::ostringstream os;
  switch (target) {
    case Target::kNone:
      os << "plain-crash";
      break;
    case Target::kDataPage:
      os << "torn-page id=" << page_id << " keep=" << keep_bytes;
      break;
    case Target::kLogTail:
      os << "log-tail truncate_to=" << truncate_to;
      break;
  }
  return os.str();
}

void FaultInjector::Arm(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lk(mu_);
  spec_ = spec;
  armed_ = spec.kind != FaultKind::kNone;
  match_count_ = 0;
  remaining_repeats_ = spec.repeat == 0 ? 1 : spec.repeat;
  stuck_active_ = false;
  active_.store(armed_ || frozen_.load(std::memory_order_relaxed),
                std::memory_order_release);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lk(mu_);
  armed_ = false;
  spec_ = FaultSpec{};
  frozen_.store(false, std::memory_order_release);
  active_.store(false, std::memory_order_release);
}

FaultAction FaultInjector::OnIo(FaultSite site, uint64_t bytes, PageId page) {
  if (!active_.load(std::memory_order_acquire)) return FaultAction{};
  std::lock_guard<std::mutex> lk(mu_);
  if (frozen_.load(std::memory_order_relaxed)) {
    fires_.fetch_add(1, std::memory_order_release);
    return FaultAction{FaultAction::Kind::kFail, 0};
  }
  if (!armed_ || site != spec_.site) return FaultAction{};
  site_ops_[static_cast<int>(site)]++;
  if (spec_.page_id != kInvalidPageId && page != spec_.page_id) {
    return FaultAction{};
  }
  uint64_t seq = match_count_++;
  if (seq < spec_.nth) return FaultAction{};

  FaultAction action;
  switch (spec_.kind) {
    case FaultKind::kNone:
      return FaultAction{};
    case FaultKind::kTornWrite:
    case FaultKind::kPartialFlush: {
      action.kind = FaultAction::Kind::kTear;
      // A tear must lose at least one byte to be a tear at all.
      uint64_t cap = bytes == 0 ? 0 : bytes - 1;
      action.keep_bytes =
          static_cast<uint32_t>(std::min<uint64_t>(spec_.keep_bytes, cap));
      armed_ = false;
      if (spec_.freeze_after) frozen_.store(true, std::memory_order_release);
      break;
    }
    case FaultKind::kTransientError: {
      action.kind = FaultAction::Kind::kFail;
      if (--remaining_repeats_ == 0) armed_ = false;
      break;
    }
    case FaultKind::kBitRot: {
      action.kind = FaultAction::Kind::kCorrupt;
      if (--remaining_repeats_ == 0) armed_ = false;
      break;
    }
    case FaultKind::kPersistentError: {
      // Media failure: fails every match until the test Disarms it.
      action.kind = FaultAction::Kind::kFail;
      break;
    }
    case FaultKind::kStuckDevice: {
      auto now = std::chrono::steady_clock::now();
      if (!stuck_active_) {
        stuck_active_ = true;
        stuck_until_ = now + std::chrono::microseconds(spec_.stall_us);
      }
      if (now >= stuck_until_) {
        // The device came back; heal and let this I/O through.
        armed_ = false;
        stuck_active_ = false;
        active_.store(frozen_.load(std::memory_order_relaxed),
                      std::memory_order_release);
        return FaultAction{};
      }
      action.kind = FaultAction::Kind::kFail;
      break;
    }
  }
  fires_.fetch_add(1, std::memory_order_release);
  active_.store(armed_ || frozen_.load(std::memory_order_relaxed),
                std::memory_order_release);
  return action;
}

uint64_t FaultInjector::ops_while_armed(FaultSite site) const {
  std::lock_guard<std::mutex> lk(mu_);
  return site_ops_[static_cast<int>(site)];
}

std::string FaultInjector::Describe() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  os << "spec={" << spec_.ToString() << "} armed=" << (armed_ ? 1 : 0)
     << " frozen=" << (frozen_.load(std::memory_order_relaxed) ? 1 : 0)
     << " fires=" << fires_.load(std::memory_order_relaxed) << " ops=[";
  for (int i = 0; i < kFaultSiteCount; i++) {
    if (i) os << " ";
    os << FaultSiteName(static_cast<FaultSite>(i)) << ":" << site_ops_[i];
  }
  os << "]";
  return os.str();
}

std::string FaultInjector::StateJson() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  JsonWriter(&out).BeginObject()
      .Key("kind").String(FaultKindName(spec_.kind))
      .Key("site").String(FaultSiteName(spec_.site))
      .Key("armed").Bool(armed_)
      .Key("frozen").Bool(frozen_.load(std::memory_order_relaxed))
      .Key("fires").Uint(fires_.load(std::memory_order_relaxed))
      .Key("spec").String(spec_.ToString())
      .EndObject();
  return out;
}

}  // namespace ariesim
