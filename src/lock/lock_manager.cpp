#include "lock/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <tuple>
#include <unordered_set>

#include "common/clock.h"
#include "common/commit_breakdown.h"
#include "common/histogram.h"
#include "common/trace.h"

namespace ariesim {

LockManager::TxnLockState& LockManager::State(TxnId txn) {
  // Only the owning transaction erases its state (ReleaseAll), so the
  // reference outlives the shard lock.
  TxnShard& ts = TxnShardOf(txn);
  std::lock_guard<std::mutex> lk(ts.mu);
  std::unique_ptr<TxnLockState>& st = ts.states[txn];
  if (st == nullptr) st = std::make_unique<TxnLockState>();
  return *st;
}

LockManager::TxnLockState* LockManager::FindState(TxnId txn) {
  TxnShard& ts = TxnShardOf(txn);
  std::lock_guard<std::mutex> lk(ts.mu);
  auto it = ts.states.find(txn);
  return it == ts.states.end() ? nullptr : it->second.get();
}

LockManager::Request* LockManager::FindRequest(Queue& q, TxnId txn) {
  for (auto& r : q.reqs) {
    if (r.txn == txn) return &r;
  }
  return nullptr;
}

bool LockManager::ConversionGrantable(const Queue& q, const Request& r) const {
  for (const auto& g : q.reqs) {
    if (g.txn == r.txn || !g.granted) continue;
    if (!LockCompatible(g.mode, r.conv_target)) return false;
  }
  return true;
}

bool LockManager::NewGrantable(const Queue& q, const Request& r) const {
  // FIFO among new waiters; conversions always have priority; compatible
  // with every granted mode and every pending conversion target.
  for (const auto& g : q.reqs) {
    if (&g == &r) break;  // only consider entries ahead of r
    if (g.granted) {
      if (!LockCompatible(g.mode, r.mode)) return false;
      if (g.converting) return false;  // pending conversion blocks newcomers
    } else {
      return false;  // an earlier waiter blocks (FIFO)
    }
  }
  // Granted entries can also sit *behind* r in the list (they were waiters
  // granted later); check all of them too.
  for (const auto& g : q.reqs) {
    if (g.txn == r.txn || !g.granted) continue;
    if (!LockCompatible(g.mode, r.mode)) return false;
  }
  return true;
}

void LockManager::GrantWaiters(Queue& q) {
  // One clock read at most, and only when something is actually granted.
  uint64_t now = 0;
  auto now_ns = [&now]() {
    if (now == 0) now = MonotonicNowNs();
    return now;
  };
  // Pass 1: conversions.
  for (auto& r : q.reqs) {
    if (r.granted && r.converting && ConversionGrantable(q, r)) {
      r.mode = r.conv_target;
      r.converting = false;
      r.grant_ns = now_ns();
      Wake(*r.owner);
    }
  }
  // Pass 2: new waiters, FIFO.
  for (auto& r : q.reqs) {
    if (r.granted) continue;
    if (!NewGrantable(q, r)) break;
    r.granted = true;
    r.grant_ns = now_ns();
    Wake(*r.owner);
  }
}

void LockManager::Wake(TxnLockState& st) {
  std::lock_guard<std::mutex> lk(st.mu);
  ++st.wake_seq;
  st.cv.notify_all();
}

void LockManager::RemoveLocked(Shard& sh, const LockName& name, TxnId txn) {
  auto qit = sh.table.find(name);
  if (qit == sh.table.end()) return;
  qit->second.reqs.remove_if([&](const Request& r) { return r.txn == txn; });
  GrantWaiters(qit->second);
  if (qit->second.reqs.empty()) sh.table.erase(qit);
}

std::vector<WaitsForEdge> LockManager::BuildEdgesAllLocked() const {
  // Waits-for edges:
  //  - a plain waiter depends on every incompatible granted holder, every
  //    converting holder, and every earlier waiter in its queue;
  //  - a converting holder depends on every *other* granted holder whose
  //    mode is incompatible with its conversion target.
  std::vector<WaitsForEdge> out;
  for (const Shard& sh : shards_) {
    for (const auto& [name, q] : sh.table) {
      std::vector<const Request*> seen;
      for (const auto& r : q.reqs) {
        if (r.granted && r.converting) {
          for (const auto& g : q.reqs) {
            if (g.txn == r.txn || !g.granted) continue;
            if (!LockCompatible(g.mode, r.conv_target)) {
              out.push_back({r.txn, g.txn, name});
            }
          }
        }
        if (!r.granted) {
          for (const Request* prior : seen) {
            if (prior->txn == r.txn) continue;
            bool blocks = !prior->granted || prior->converting ||
                          !LockCompatible(prior->mode, r.mode);
            if (blocks) out.push_back({r.txn, prior->txn, name});
          }
        }
        seen.push_back(&r);
      }
    }
  }
  return out;
}

TxnId LockManager::DetectDeadlockAllLocked(TxnId start,
                                           std::vector<TxnId>* cycle_out) {
  std::unordered_map<TxnId, std::vector<TxnId>> edges;
  for (const WaitsForEdge& e : BuildEdgesAllLocked()) {
    edges[e.waiter].push_back(e.holder);
  }
  // Iterative DFS from `start`, looking for a cycle back to `start`.
  struct FrameS {
    TxnId node;
    size_t next_child = 0;
  };
  std::unordered_set<TxnId> on_path{start};
  std::vector<TxnId> path{start};
  std::vector<FrameS> dfs{{start, 0}};
  while (!dfs.empty()) {
    auto& top = dfs.back();
    auto it = edges.find(top.node);
    if (it == edges.end() || top.next_child >= it->second.size()) {
      on_path.erase(top.node);
      path.pop_back();
      dfs.pop_back();
      continue;
    }
    TxnId child = it->second[top.next_child++];
    if (child == start) {
      if (cycle_out != nullptr) *cycle_out = path;
      return *std::max_element(path.begin(), path.end());  // youngest
    }
    if (on_path.insert(child).second) {
      path.push_back(child);
      dfs.push_back({child, 0});
    }
  }
  return kInvalidTxnId;
}

void LockManager::RecordPostmortemAllLocked(TxnId victim,
                                            const std::vector<TxnId>& cycle) {
  const uint64_t now = MonotonicNowNs();
  DeadlockPostmortem pm;
  pm.at_ns = now;
  pm.wall_unix_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  pm.victim = victim;
  // The request each cycle member waits with (a waiter or a converter).
  auto waiting = [&](TxnId t) -> std::pair<const LockName*, const Request*> {
    for (const Shard& sh : shards_) {
      for (const auto& [name, q] : sh.table) {
        for (const auto& r : q.reqs) {
          if (r.txn == t && (!r.granted || r.converting)) return {&name, &r};
        }
      }
    }
    return {nullptr, nullptr};
  };
  for (TxnId t : cycle) {
    DeadlockCycleNode node;
    node.txn = t;
    if (auto [name, r] = waiting(t); r != nullptr) {
      node.name = *name;
      node.requested = r->granted ? r->conv_target : r->mode;
      node.had_grant = r->granted;
      if (r->granted) node.granted_mode = r->mode;
      node.wait_us = (now - r->wait_start_ns) / 1000;
    }
    if (t == victim) pm.victim_wait_us = node.wait_us;
    pm.cycle.push_back(node);
  }
  const size_t len = cycle.size();
  if (metrics_ != nullptr) {
    metrics_->deadlock_cycle_txns.fetch_add(len, std::memory_order_relaxed);
    metrics_->deadlock_victim_wait.Record(pm.victim_wait_us * 1000);
  }
  ARIES_TRACE_INSTANT("lock.deadlock", TraceCat::kLock, victim);
  std::lock_guard<std::mutex> lk(forensics_mu_);
  pm.seq = ++postmortem_seq_;
  cycle_len_counts_[len > kMaxTrackedCycleLen ? kMaxTrackedCycleLen : len]++;
  if (postmortem_cap_ == 0) return;
  postmortems_.push_back(std::move(pm));
  while (postmortems_.size() > postmortem_cap_) postmortems_.pop_front();
}

std::string LockManager::VictimSummary(TxnId txn) {
  std::lock_guard<std::mutex> lk(forensics_mu_);
  for (auto it = postmortems_.rbegin(); it != postmortems_.rend(); ++it) {
    if (it->victim == txn) return it->Summary();
  }
  return {};
}

void LockManager::MaybeFireWatchdog(uint64_t wait_start_ns) {
  std::function<void(const std::string&)> sink;
  uint32_t threshold_ms;
  {
    std::lock_guard<std::mutex> lk(forensics_mu_);
    threshold_ms = watchdog_threshold_ms_;
    if (threshold_ms == 0 || watchdog_fired_ ||
        MonotonicNowNs() - wait_start_ns <
            static_cast<uint64_t>(threshold_ms) * 1000000ull) {
      return;
    }
    watchdog_fired_ = true;
    sink = watchdog_sink_;
  }
  if (metrics_ != nullptr) {
    metrics_->lock_watchdog_dumps.fetch_add(1, std::memory_order_relaxed);
  }
  LockTableSnapshot snap = Snapshot();
  std::string dump = "[lock-watchdog] a lock wait exceeded " +
                     std::to_string(threshold_ms) + "ms\n" +
                     snap.ToString() + snap.ToDot();
  // No lock held: the sink may itself call Snapshot() or log slowly.
  if (sink) {
    sink(dump);
  } else {
    std::fwrite(dump.data(), 1, dump.size(), stderr);
  }
}

void LockManager::MaybeRearmWatchdog() {
  if (!watchdog_fired_.load()) return;
  AllShards all(this);
  std::lock_guard<std::mutex> lk(forensics_mu_);
  const uint64_t now = MonotonicNowNs();
  const uint64_t thr =
      static_cast<uint64_t>(watchdog_threshold_ms_) * 1000000ull;
  for (const Shard& sh : shards_) {
    for (const auto& [name, q] : sh.table) {
      for (const auto& r : q.reqs) {
        if ((!r.granted || r.converting) && now - r.wait_start_ns >= thr) {
          return;  // the episode is still live
        }
      }
    }
  }
  watchdog_fired_ = false;
}

void LockManager::ConfigureWatchdog(
    uint32_t threshold_ms, std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lk(forensics_mu_);
  watchdog_threshold_ms_ = threshold_ms;
  watchdog_sink_ = std::move(sink);
  watchdog_fired_ = false;
}

bool LockManager::WaitForGrant(std::unique_lock<Shard>& lk,
                               TxnLockState& st, TxnId txn,
                               const LockName& name, Request& mine,
                               bool converting) {
  if (metrics_ != nullptr) {
    metrics_->lock_waits.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t wait_start_ns = mine.wait_start_ns = MonotonicNowNs();
  // Wait time (granted or deadlock-aborted) lands in the histogram, the
  // bound transaction's commit-breakdown lock_wait segment, a trace span
  // and the contention sketch.
  ScopedLatency wait_timer(
      metrics_ != nullptr ? &metrics_->lock_wait_latency : nullptr);
  ScopedCommitSegment wait_seg(CommitSegment::lock_wait);
  ARIES_TRACE_SPAN(wait_span, "lock.wait", TraceCat::kLock, txn);
  auto granted = [&] { return converting ? !mine.converting : mine.granted; };
  bool victim = false;
  do {
    lk.unlock();
    {
      AllShards all(this);
      std::vector<TxnId> cycle;
      TxnId v = DetectDeadlockAllLocked(txn, &cycle);
      TxnLockState* vs = v == kInvalidTxnId ? nullptr : FindState(v);
      if (vs != nullptr) {
        // A cycle is recorded once, however many of its members detect it
        // before the victim withdraws.
        if (!vs->deadlock_victim.exchange(true)) {
          RecordPostmortemAllLocked(v, cycle);
        }
        Wake(*vs);
      }
    }
    MaybeFireWatchdog(wait_start_ns);
    lk.lock();
    if (granted()) break;
    if ((victim = st.deadlock_victim.exchange(false))) break;
    // Read wake_seq before dropping the shard: a grant that lands between
    // the unlatch and the sleep moves it, so the wait returns at once.
    std::unique_lock<std::mutex> wl(st.mu);
    const uint64_t seq = st.wake_seq;
    lk.unlock();
    st.cv.wait_for(wl, std::chrono::milliseconds(5),
                   [&] { return st.wake_seq != seq; });
    wl.unlock();
    lk.lock();
  } while (!granted());
  // Granted: any cycle that named this transaction has dissolved.
  st.deadlock_victim.store(false);
  contention_.RecordWait(name, MonotonicNowNs() - wait_start_ns);
  return !victim;
}

Status LockManager::Lock(TxnId txn, const LockName& name, LockMode mode,
                         LockDuration duration, bool conditional) {
  if (metrics_ != nullptr) {
    metrics_->lock_requests.fetch_add(1, std::memory_order_relaxed);
  }
  TxnLockState& st = State(txn);
  auto held_it = st.held.find(name);
  const bool already_held =
      held_it != st.held.end() && LockCovers(held_it->second, mode);
  bool waited = false;
  if (!already_held) {
    // A name this transaction holds in a weaker mode is a conversion
    // (upgrade); anything else is a fresh request.
    const bool converting = held_it != st.held.end();
    Shard& sh = ShardOf(name);
    std::unique_lock<Shard> lk(sh);
    Queue& q = sh.table[name];
    Request* mine;
    if (converting) {
      mine = FindRequest(q, txn);
      if (mine == nullptr || !mine->granted) {
        return Status::Corruption("lock table out of sync with held map");
      }
      mine->converting = true;
      mine->conv_target = LockSupremum(held_it->second, mode);
      mine->prior_mode = mine->mode;
    } else {
      q.reqs.push_back(Request{txn, &st, mode});
      mine = &q.reqs.back();
    }
    // Takes back the fresh request, or the conversion (the original grant
    // stays), and lets any waiter it blocked in.
    auto withdraw = [&] {
      if (converting) {
        mine->converting = false;
        mine->mode = mine->prior_mode;
      } else {
        q.reqs.remove_if([&](const Request& x) { return &x == mine; });
      }
      GrantWaiters(q);
      if (q.reqs.empty()) sh.table.erase(name);
    };
    if (converting ? ConversionGrantable(q, *mine) : NewGrantable(q, *mine)) {
      if (converting) {
        mine->mode = mine->conv_target;
        mine->converting = false;
      } else {
        mine->granted = true;
      }
      mine->grant_ns = MonotonicNowNs();
    } else if (conditional) {
      withdraw();
      if (metrics_ != nullptr) {
        metrics_->lock_conditional_denied.fetch_add(1,
                                                    std::memory_order_relaxed);
      }
      return Status::Busy((converting ? "lock conversion not grantable: "
                                      : "lock not grantable: ") +
                          name.ToString());
    } else {
      waited = true;
      if (!WaitForGrant(lk, st, txn, name, *mine, converting)) {
        withdraw();
        lk.unlock();
        if (metrics_ != nullptr) {
          metrics_->deadlocks.fetch_add(1, std::memory_order_relaxed);
        }
        std::string summary = VictimSummary(txn);
        MaybeRearmWatchdog();
        return Status::Deadlock(
            (converting ? "deadlock upgrading " : "deadlock on ") +
            name.ToString() +
            (summary.empty() ? std::string() : "; " + summary));
      }
    }
    // Granted; instant duration releases at once.
    if (duration == LockDuration::kInstant) {
      withdraw();
    } else {
      std::lock_guard<std::mutex> hl(st.mu);
      st.held[name] = mine->mode;
    }
  }
  if (waited) MaybeRearmWatchdog();
  if (metrics_ != nullptr) {
    metrics_->locks_granted.fetch_add(1, std::memory_order_relaxed);
  }
  if (observer_) {
    observer_(LockEvent{txn, name, mode, duration, already_held});
  }
  return Status::OK();
}

void LockManager::Unlock(TxnId txn, const LockName& name) {
  TxnLockState* st = FindState(txn);
  if (st == nullptr) return;
  Shard& sh = ShardOf(name);
  std::lock_guard<Shard> lk(sh);
  RemoveLocked(sh, name, txn);
  std::lock_guard<std::mutex> hl(st->mu);
  st->held.erase(name);
}

void LockManager::ReleaseAll(TxnId txn) {
  TxnLockState* st = FindState(txn);
  if (st == nullptr) return;
  for (auto& [name, mode] : st->held) {
    Shard& sh = ShardOf(name);
    std::lock_guard<Shard> lk(sh);
    RemoveLocked(sh, name, txn);
  }
  TxnShard& ts = TxnShardOf(txn);
  std::lock_guard<std::mutex> lk(ts.mu);
  ts.states.erase(txn);
}

bool LockManager::Holds(TxnId txn, const LockName& name, LockMode mode) {
  TxnShard& ts = TxnShardOf(txn);
  std::lock_guard<std::mutex> lk(ts.mu);
  auto tit = ts.states.find(txn);
  if (tit == ts.states.end()) return false;
  std::lock_guard<std::mutex> hl(tit->second->mu);
  auto hit = tit->second->held.find(name);
  return hit != tit->second->held.end() && LockCovers(hit->second, mode);
}

LockTableSnapshot LockManager::SnapshotAllLocked(uint64_t now_ns) {
  LockTableSnapshot snap;
  snap.captured_at_ns = now_ns;
  for (const Shard& sh : shards_) {
    for (const auto& [name, q] : sh.table) {
      LockQueueInfo qi;
      qi.name = name;
      qi.requests.reserve(q.reqs.size());
      for (const auto& r : q.reqs) {
        LockRequestInfo ri;
        ri.txn = r.txn;
        ri.mode = r.mode;
        ri.granted = r.granted;
        ri.converting = r.granted && r.converting;
        ri.conv_target = r.conv_target;
        if (!r.granted || r.converting) {
          ri.wait_us = (now_ns - r.wait_start_ns) / 1000;
        }
        if (r.granted) {
          ri.grant_us = r.grant_ns == 0 ? 0 : (now_ns - r.grant_ns) / 1000;
        }
        qi.requests.push_back(ri);
      }
      snap.queues.push_back(std::move(qi));
    }
  }
  std::sort(snap.queues.begin(), snap.queues.end(),
            [](const LockQueueInfo& a, const LockQueueInfo& b) {
              return std::tie(a.name.space, a.name.object, a.name.a,
                              a.name.b) < std::tie(b.name.space, b.name.object,
                                                   b.name.a, b.name.b);
            });
  for (TxnShard& ts : txn_shards_) {
    std::lock_guard<std::mutex> lk(ts.mu);
    for (const auto& [id, st] : ts.states) {
      TxnLockInfo ti;
      ti.txn = id;
      std::lock_guard<std::mutex> hl(st->mu);
      ti.held = st->held.size();
      snap.txns.push_back(ti);
    }
  }
  std::sort(snap.txns.begin(), snap.txns.end(),
            [](const TxnLockInfo& a, const TxnLockInfo& b) {
              return a.txn < b.txn;
            });
  // Fill blocked state from the queues (one waiting or converting request
  // per txn at a time: a txn has at most one Lock() call in flight).
  for (const Shard& sh : shards_) {
    for (const auto& [name, q] : sh.table) {
      for (const auto& r : q.reqs) {
        if (r.granted && !r.converting) continue;
        auto it = std::lower_bound(snap.txns.begin(), snap.txns.end(), r.txn,
                                   [](const TxnLockInfo& t, TxnId id) {
                                     return t.txn < id;
                                   });
        if (it == snap.txns.end() || it->txn != r.txn) continue;
        it->blocked = true;
        it->blocked_on = name;
        it->blocked_mode = r.granted ? r.conv_target : r.mode;
        it->blocked_us = (now_ns - r.wait_start_ns) / 1000;
      }
    }
  }
  snap.edges = BuildEdgesAllLocked();
  return snap;
}

LockTableSnapshot LockManager::Snapshot() {
  AllShards all(this);
  return SnapshotAllLocked(MonotonicNowNs());
}

std::vector<DeadlockPostmortem> LockManager::Postmortems() {
  std::lock_guard<std::mutex> lk(forensics_mu_);
  return {postmortems_.begin(), postmortems_.end()};
}

void LockManager::SetPostmortemCapacity(size_t cap) {
  std::lock_guard<std::mutex> lk(forensics_mu_);
  postmortem_cap_ = cap;
  while (postmortems_.size() > postmortem_cap_) postmortems_.pop_front();
}

std::vector<uint64_t> LockManager::CycleLengthCounts() {
  std::lock_guard<std::mutex> lk(forensics_mu_);
  return {cycle_len_counts_, cycle_len_counts_ + kMaxTrackedCycleLen + 1};
}

std::string LockManager::DumpState() { return Snapshot().ToString(); }

size_t LockManager::HeldCount(TxnId txn) {
  TxnShard& ts = TxnShardOf(txn);
  std::lock_guard<std::mutex> lk(ts.mu);
  auto tit = ts.states.find(txn);
  if (tit == ts.states.end()) return 0;
  std::lock_guard<std::mutex> hl(tit->second->mu);
  return tit->second->held.size();
}

}  // namespace ariesim
