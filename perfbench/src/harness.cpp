#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Fnv1a64(uint64_t v) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xff;
    h *= 0x100000001b3ull;
    v >>= 8;
  }
  return h;
}

void Tag(uint64_t id, char out[17]) {
  std::snprintf(out, 17, "%016llx", static_cast<unsigned long long>(Mix64(id)));
}

}  // namespace

std::string KeyOf(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%011llu", static_cast<unsigned long long>(id));
  return buf;
}

bool ParseKey(std::string_view key, uint64_t* id) {
  if (key.size() != 12 || key[0] != 'k') return false;
  uint64_t v = 0;
  for (size_t i = 1; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  *id = v;
  return true;
}

std::string ValueOf(uint64_t id, uint64_t version) {
  std::string v(kValueBytes, '.');
  char head[32];
  Tag(id, head);
  std::snprintf(head + 16, sizeof(head) - 16, ":%08llu",
                static_cast<unsigned long long>(version % 100000000));
  std::copy(head, head + 25, v.begin());
  const uint64_t h = Mix64(id ^ version);
  for (size_t i = 25; i < kValueBytes; ++i) {
    v[i] = static_cast<char>('a' + (h >> (i % 8 * 8)) % 26);
  }
  return v;
}

bool RowMatches(const Row& row, uint64_t id) {
  if (row.size() != 2 || row[0] != KeyOf(id) || row[1].size() != kValueBytes) {
    return false;
  }
  char tag[17];
  Tag(id, tag);
  return row[1].compare(0, 16, tag) == 0;
}

// ---------------------------------------------------------------------------

ScrambledZipfian::ScrambledZipfian(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  double zetan = 0;
  for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan);
  half_pow_theta_ = std::pow(0.5, theta);
}

uint64_t ScrambledZipfian::Next(Random& rng) const {
  const double u = double(rng.Next() >> 11) * 0x1.0p-53;
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + half_pow_theta_) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(double(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }
  if (rank >= n_) rank = n_ - 1;
  return Fnv1a64(rank) % n_;
}

// ---------------------------------------------------------------------------

double SupportedQuantile(double q, uint64_t n) {
  return q > 0.5 ? std::max(0.5, std::min(q, 1.0 - 10.0 / double(n))) : q;
}

Quantile ExactQuantile(const std::vector<uint32_t>& sorted, double q) {
  Quantile r;
  r.n = sorted.size();
  if (r.n == 0) return r;
  q = SupportedQuantile(q, r.n);
  size_t idx = static_cast<size_t>(std::ceil(q * double(r.n)));
  idx = std::min(r.n - 1, idx == 0 ? 0 : idx - 1);
  r.q = q;
  r.ns = sorted[idx];
  return r;
}

// ---------------------------------------------------------------------------

EngineSnap EngineSnap::Take(const Metrics& m) {
  EngineSnap s;
#define PERFBENCH_TAKE_COUNTER(name) \
  s.counters[C_##name] = m.name.load(std::memory_order_relaxed);
  ARIESIM_METRICS_COUNTERS(PERFBENCH_TAKE_COUNTER)
#undef PERFBENCH_TAKE_COUNTER
#define PERFBENCH_TAKE_HIST(name) m.name.CopyBuckets(s.hists[H_##name].data());
  ARIESIM_METRICS_HISTOGRAMS(PERFBENCH_TAKE_HIST)
#undef PERFBENCH_TAKE_HIST
  return s;
}

void EngineDelta::Add(const EngineSnap& before, const EngineSnap& after) {
  for (int c = 0; c < kCounterCount; ++c) {
    // Gauges (instant_restart_open_us) can move down; count only growth.
    if (after.counters[c] > before.counters[c]) {
      counters_[c] += after.counters[c] - before.counters[c];
    }
  }
  for (int h = 0; h < kHistCount; ++h) {
    for (size_t b = 0; b < hists_[h].size(); ++b) {
      hists_[h][b] += after.hists[h][b] - before.hists[h][b];
    }
  }
}

uint64_t EngineDelta::samples(Hist h) const {
  uint64_t n = 0;
  for (uint64_t c : hists_[h]) n += c;
  return n;
}

double EngineDelta::quantile_us(Hist h, double q) const {
  const uint64_t total = samples(h);
  if (total == 0) return 0;
  q = SupportedQuantile(q, total);
  uint64_t rank = static_cast<uint64_t>(q * double(total));
  if (rank >= total) rank = total - 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < hists_[h].size(); ++b) {
    seen += hists_[h][b];
    if (seen > rank) {
      return double(ariesim::LatencyHistogram::BucketMidpoint(b)) / 1000.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------

const char* SpanName(Span s) {
  switch (s) {
    case Span::kRequest: return "request";
    case Span::kRequestSelf: return "request_self";
    case Span::kBegin: return "db.begin";
    case Span::kFetchByKey: return "table.fetch_by_key";
    case Span::kUpdate: return "table.update";
    case Span::kInsert: return "table.insert";
    case Span::kScanOpen: return "scan.open";
    case Span::kScanNext: return "scan.next";
    case Span::kCommit: return "db.commit";
    case Span::kRollback: return "db.rollback";
    case Span::kCount: break;
  }
  return "?";
}

void Tracer::BeginRequest(bool on, uint64_t now_ns) {
  on_ = on;
  if (!on) return;
  request_ = next_request_++;
  keep_ = request_ % kKeepEvery == 0;
  request_start_ = now_ns;
  child_ns_ = 0;
}

void Tracer::Record(Span kind, uint64_t start_ns, uint64_t end_ns) {
  if (!on_) return;
  const uint64_t d = end_ns - start_ns;
  durations(kind).push_back(static_cast<uint32_t>(std::min<uint64_t>(d, UINT32_MAX)));
  child_ns_ += d;
  if (keep_) {
    kept_.push_back({request_, start_ns,
                     static_cast<uint32_t>(std::min<uint64_t>(d, UINT32_MAX)),
                     kind});
  }
}

void Tracer::EndRequest(uint64_t end_ns) {
  if (!on_) return;
  const uint64_t d = end_ns - request_start_;
  const uint64_t self = d > child_ns_ ? d - child_ns_ : 0;
  durations(Span::kRequest).push_back(
      static_cast<uint32_t>(std::min<uint64_t>(d, UINT32_MAX)));
  durations(Span::kRequestSelf).push_back(
      static_cast<uint32_t>(std::min<uint64_t>(self, UINT32_MAX)));
  if (keep_) {
    kept_.push_back({request_, request_start_,
                     static_cast<uint32_t>(std::min<uint64_t>(d, UINT32_MAX)),
                     Span::kRequest});
  }
  on_ = false;
}

// ---------------------------------------------------------------------------

Client::Client(int client_id, uint64_t seed, size_t cap)
    : id(client_id),
      rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(client_id) + 1),
      trace(static_cast<uint64_t>(client_id) << 40),
      sample_cap(cap),
      reservoir_rng(Mix64(seed) ^ static_cast<uint64_t>(client_id)) {
  op_ns.reserve(cap);
  commit_ns.reserve(cap);
  kinds.reserve(cap);
}

void Client::RecordOk(ReqKind kind, uint64_t op, uint64_t commit) {
  ++ok;
  if (!recording) return;
  ++recorded;
  size_t slot = op_ns.size();
  if (slot < sample_cap) {
    op_ns.push_back(0);
    commit_ns.push_back(0);
    kinds.push_back(kind);
  } else {
    slot = reservoir_rng.Uniform(recorded);  // Algorithm R
    if (slot >= sample_cap) return;
  }
  op_ns[slot] = static_cast<uint32_t>(std::min<uint64_t>(op, UINT32_MAX));
  commit_ns[slot] = static_cast<uint32_t>(std::min<uint64_t>(commit, UINT32_MAX));
  kinds[slot] = kind;
}

// ---------------------------------------------------------------------------

void Report::E2E(std::string name, double v, std::string unit,
                 std::string note) {
  end_to_end.push_back({std::move(name), v, std::move(unit), std::move(note)});
}
void Report::Layer(std::string name, double v, std::string unit,
                   std::string note) {
  per_layer.push_back({std::move(name), v, std::move(unit), std::move(note)});
}
void Report::Extra(std::string name, double v, std::string unit,
                   std::string note) {
  extra.push_back({std::move(name), v, std::move(unit), std::move(note)});
}
void Report::Error(std::string what) { errors.push_back(std::move(what)); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
