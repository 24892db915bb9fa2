#include "lock/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/clock.h"
#include "common/commit_breakdown.h"
#include "common/histogram.h"
#include "common/trace.h"

namespace ariesim {

void LockManager::Enlist(TxnId txn) {
  TxnLockState*& hint = hint_.Local();
  TxnId free = kInvalidTxnId;
  if (hint == nullptr ||
      !hint->owner.compare_exchange_strong(free, txn,
                                           std::memory_order_acquire)) {
    FindState(txn, /*create=*/true);
  }
}

LockManager::TxnLockState* LockManager::FindState(TxnId txn, bool create) {
  TxnLockState*& hint = hint_.Local();
  if (hint != nullptr && hint->owner.load(std::memory_order_acquire) == txn) {
    return hint;
  }
  // Only the owning transaction recycles its state (ReleaseAll), so the
  // pointer outlives the registry lock.
  std::lock_guard<std::mutex> lk(registry_mu_);
  for (auto& st : states_) {
    if (st->owner.load(std::memory_order_acquire) == txn) {
      return hint = st.get();
    }
  }
  if (!create) return nullptr;
  for (auto& st : states_) {
    TxnId free = kInvalidTxnId;
    if (st->owner.compare_exchange_strong(free, txn,
                                          std::memory_order_acquire)) {
      return hint = st.get();
    }
  }
  states_.push_back(std::make_unique<TxnLockState>());
  states_.back()->owner.store(txn, std::memory_order_relaxed);
  return hint = states_.back().get();
}

bool LockManager::Compatible(const Head& h, LockMode want,
                             const Request* except) {
  for (int m = 0; m < 5; ++m) {
    const uint32_t n = h.granted[m] - (except != nullptr &&
                                       static_cast<int>(except->mode) == m);
    if (n > 0 && !LockCompatible(static_cast<LockMode>(m), want)) return false;
  }
  return true;
}

void LockManager::Grant(Head& h, Request& r, LockMode mode, uint64_t now_ns) {
  if (r.granted) {
    --h.granted[static_cast<int>(r.mode)];
  } else {
    r.granted = true;
    --h.waiters;
    r.owner->held.fetch_add(1, std::memory_order_relaxed);
  }
  r.mode = mode;
  ++h.granted[static_cast<int>(mode)];
  r.grant_ns = now_ns;
}

void LockManager::Unlink(Shard& sh, Head& h, Request& r) {
  (r.prev != nullptr ? r.prev->next : h.first) = r.next;
  (r.next != nullptr ? r.next->prev : h.last) = r.prev;
  r.linked = false;
  if (!r.granted) {
    --h.waiters;
  } else {
    --h.granted[static_cast<int>(r.mode)];
    if (r.converting) --h.converters;
    r.owner->held.fetch_sub(1, std::memory_order_relaxed);
  }
  GrantWaiters(h);
  if (h.first == nullptr) sh.heads.Erase(&h);
}

void LockManager::GrantWaiters(Head& h) {
  // One clock read at most, and only when something is actually granted.
  uint64_t now = 0;
  auto grant = [&](Request& r, LockMode mode) {
    if (now == 0) now = MonotonicNowNs();
    Grant(h, r, mode, now);
    Wake(*r.owner);
  };
  // Pass 1: conversions.
  for (Request* r = h.first; r != nullptr && h.converters > 0; r = r->next) {
    if (r->converting && Compatible(h, r->conv_target, r)) {
      r->converting = false;
      --h.converters;
      grant(*r, r->conv_target);
    }
  }
  // Pass 2: new waiters, FIFO; a pending conversion blocks them all.
  for (Request* r = h.first; r != nullptr && h.waiters > 0; r = r->next) {
    if (r->granted) continue;
    if (h.converters > 0 || !Compatible(h, r->mode, nullptr)) break;
    grant(*r, r->mode);
  }
}

void LockManager::Wake(TxnLockState& st) {
  std::lock_guard<std::mutex> lk(st.mu);
  ++st.wake_seq;
  st.cv.notify_all();
}

std::vector<WaitsForEdge> LockManager::BuildEdgesAllLocked() const {
  // Waits-for edges:
  //  - a plain waiter depends on every incompatible granted holder, every
  //    converting holder, and every earlier waiter in its queue;
  //  - a converting holder depends on every *other* granted holder whose
  //    mode is incompatible with its conversion target.
  std::vector<WaitsForEdge> out;
  ForEachHeadAllLocked([&](const Head& h) {
    for (const Request* r = h.first; r != nullptr; r = r->next) {
      if (r->granted && r->converting) {
        for (const Request* g = h.first; g != nullptr; g = g->next) {
          if (g->txn == r->txn || !g->granted) continue;
          if (!LockCompatible(g->mode, r->conv_target)) {
            out.push_back({r->txn, g->txn, h.name});
          }
        }
      }
      if (!r->granted) {
        for (const Request* prior = h.first; prior != r; prior = prior->next) {
          if (prior->txn == r->txn) continue;
          bool blocks = !prior->granted || prior->converting ||
                        !LockCompatible(prior->mode, r->mode);
          if (blocks) out.push_back({r->txn, prior->txn, h.name});
        }
      }
    }
  });
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
  auto waiting = [&](TxnId t) {
    const Request* found = nullptr;
    ForEachHeadAllLocked([&](const Head& h) {
      for (const Request* r = h.first; r != nullptr; r = r->next) {
        if (r->txn == t && (!r->granted || r->converting)) found = r;
      }
    });
    return found;
  };
  for (TxnId t : cycle) {
    DeadlockCycleNode node;
    node.txn = t;
    if (const Request* r = waiting(t); r != nullptr) {
      node.name = r->name;
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
  bool live = false;
  ForEachHeadAllLocked([&](const Head& h) {
    for (const Request* r = h.first; r != nullptr; r = r->next) {
      live |= (!r->granted || r->converting) && now - r->wait_start_ns >= thr;
    }
  });
  if (!live) watchdog_fired_ = false;  // the episode has drained
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
  for (auto sleep = kDetectAfter;; sleep = kDetectPoll) {
    {
      // Read wake_seq before dropping the shard: a grant that lands between
      // the unlatch and the sleep moves it, so the wait returns at once.
      std::unique_lock<std::mutex> wl(st.mu);
      const uint64_t seq = st.wake_seq;
      lk.unlock();
      st.cv.wait_for(wl, sleep, [&] { return st.wake_seq != seq; });
    }
    lk.lock();
    if (granted() || (victim = st.deadlock_victim.exchange(false))) break;
    lk.unlock();
    {
      AllShards all(this);
      if (metrics_ != nullptr) {
        metrics_->lock_detect_rounds.fetch_add(1, std::memory_order_relaxed);
      }
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
    if (granted() || (victim = st.deadlock_victim.exchange(false))) break;
  }
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
  TxnLockState& st = *FindState(txn, /*create=*/true);
  Request* mine = FindRequest(st, name);
  // A name this transaction holds in a weaker mode is a conversion
  // (upgrade); anything else is a fresh request.
  const bool converting = mine != nullptr && mine->linked;
  const bool already_held = converting && LockCovers(mine->mode, mode);
  bool waited = false;
  if (!already_held) {
    if (mine == nullptr) {
      if (st.count == st.chunks.size() * kChunkRequests) {
        st.chunks.push_back(std::make_unique<Chunk>());
      }
      mine = &st.At(st.count++);
      st.index.Insert(name) = mine;
    }
    const LockMode prior = mine->mode;
    const LockMode want = converting ? LockSupremum(prior, mode) : mode;
    Shard& sh = ShardOf(name);
    std::unique_lock<Shard> lk(sh);
    Head* h = sh.heads.Find(name);
    if (h == nullptr) {
      h = &sh.heads.Insert(name);
      h->name = name;
    }
    // Conversions have priority; a fresh request also queues behind any
    // waiter or pending conversion (FIFO).
    waited = !Compatible(*h, want, converting ? mine : nullptr) ||
             (!converting && h->waiters + h->converters > 0);
    if (!converting) {  // append to the FIFO as a waiter
      *mine = Request{.name = name, .txn = txn, .owner = &st,
                      .prev = h->last, .mode = want, .linked = true};
      (h->last != nullptr ? h->last->next : h->first) = mine;
      h->last = mine;
      ++h->waiters;
    }
    if (!waited) {
      Grant(*h, *mine, want, MonotonicNowNs());
    } else if (converting) {
      mine->conv_target = want;
      mine->converting = true;
      ++h->converters;
    }
    // Takes back the fresh request (left unlinked in the array for a later
    // request on `name`) or the conversion (the original grant stays), and
    // lets in any waiter it blocked. The head may have moved meanwhile.
    auto withdraw = [&] {
      h = sh.heads.Find(name);
      if (!converting) return Unlink(sh, *h, *mine);
      if (mine->converting) {
        mine->converting = false;
        --h->converters;
      }
      Grant(*h, *mine, prior, mine->grant_ns);
      GrantWaiters(*h);
    };
    if (waited && conditional) {
      withdraw();
      if (metrics_ != nullptr) {
        metrics_->lock_conditional_denied.fetch_add(1,
                                                    std::memory_order_relaxed);
      }
      return Status::Busy((converting ? "lock conversion not grantable: "
                                      : "lock not grantable: ") +
                          name.ToString());
    }
    if (waited && !WaitForGrant(lk, st, txn, name, *mine, converting)) {
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
    // Granted; instant duration releases at once.
    if (duration == LockDuration::kInstant) withdraw();
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
  Request* r = st == nullptr ? nullptr : FindRequest(*st, name);
  if (r == nullptr || !r->linked) return;
  Shard& sh = ShardOf(name);
  std::lock_guard<Shard> lk(sh);
  Unlink(sh, *sh.heads.Find(name), *r);
}

void LockManager::ReleaseAll(TxnId txn) {
  TxnLockState* st = FindState(txn);
  if (st == nullptr) return;
  for (uint32_t i = 0; i < st->count; ++i) {
    Request& r = st->At(i);
    if (!r.linked) continue;
    Shard& sh = ShardOf(r.name);
    std::lock_guard<Shard> lk(sh);
    Unlink(sh, *sh.heads.Find(r.name), r);
  }
  // Recycle the state, trimmed to one chunk and at most kKeepIndex slots.
  st->count = 0;
  if (st->chunks.size() > 1) st->chunks.resize(1);
  if (st->index.slots.size() > kKeepIndex) st->index.slots = {};
  std::fill(st->index.slots.begin(), st->index.slots.end(), nullptr);
  st->index.used = 0;
  st->owner.store(kInvalidTxnId, std::memory_order_release);
}

bool LockManager::Holds(TxnId txn, const LockName& name, LockMode mode) {
  TxnLockState* st = FindState(txn);
  const Request* r = st == nullptr ? nullptr : FindRequest(*st, name);
  return r != nullptr && r->linked && r->granted && LockCovers(r->mode, mode);
}

LockTableSnapshot LockManager::SnapshotAllLocked(uint64_t now_ns) {
  LockTableSnapshot snap;
  snap.captured_at_ns = now_ns;
  {
    std::lock_guard<std::mutex> lk(registry_mu_);
    for (auto& st : states_) {
      TxnLockInfo ti;
      ti.txn = st->owner.load(std::memory_order_relaxed);
      ti.held = st->held.load(std::memory_order_relaxed);
      if (ti.txn != kInvalidTxnId) snap.txns.push_back(ti);
    }
  }
  std::sort(snap.txns.begin(), snap.txns.end(),
            [](const TxnLockInfo& a, const TxnLockInfo& b) {
              return a.txn < b.txn;
            });
  ForEachHeadAllLocked([&](const Head& h) {
    LockQueueInfo qi;
    qi.name = h.name;
    for (const Request* r = h.first; r != nullptr; r = r->next) {
      LockRequestInfo ri;
      ri.txn = r->txn;
      ri.mode = r->mode;
      ri.granted = r->granted;
      ri.converting = r->granted && r->converting;
      ri.conv_target = r->conv_target;
      const bool waiting = !r->granted || r->converting;
      if (waiting) ri.wait_us = (now_ns - r->wait_start_ns) / 1000;
      if (r->granted) ri.grant_us = (now_ns - r->grant_ns) / 1000;
      qi.requests.push_back(ri);
      if (!waiting) continue;
      // The txn's blocked state (a txn has at most one Lock() in flight).
      auto it = std::lower_bound(snap.txns.begin(), snap.txns.end(), r->txn,
                                 [](const TxnLockInfo& t, TxnId id) {
                                   return t.txn < id;
                                 });
      if (it == snap.txns.end() || it->txn != r->txn) continue;
      it->blocked = true;
      it->blocked_on = h.name;
      it->blocked_mode = r->granted ? r->conv_target : r->mode;
      it->blocked_us = ri.wait_us;
    }
    snap.queues.push_back(std::move(qi));
  });
  std::sort(snap.queues.begin(), snap.queues.end(),
            [](const LockQueueInfo& a, const LockQueueInfo& b) {
              return std::tie(a.name.space, a.name.object, a.name.a,
                              a.name.b) < std::tie(b.name.space, b.name.object,
                                                   b.name.a, b.name.b);
            });
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
  TxnLockState* st = FindState(txn);
  return st == nullptr ? 0 : st->held.load(std::memory_order_relaxed);
}

}  // namespace ariesim
