#include "common/metrics_sampler.h"

#include <unistd.h>

#include <chrono>

#include "common/json.h"

namespace ariesim {

MetricsSampler::MetricsSampler(const Metrics* metrics, uint32_t interval_ms,
                               std::string jsonl_path, size_t ring_capacity)
    : metrics_(metrics),
      interval_ms_(interval_ms),
      jsonl_path_(std::move(jsonl_path)),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

MetricsSampler::~MetricsSampler() {
  Stop();
  std::lock_guard<std::mutex> lk(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void MetricsSampler::Start() {
  if (interval_ms_ == 0) return;  // manual mode: no thread, ever
  std::lock_guard<std::mutex> lk(run_mu_);
  if (run_flag_) return;
  run_flag_ = true;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void MetricsSampler::Stop() {
  {
    std::lock_guard<std::mutex> lk(run_mu_);
    if (!run_flag_ && !thread_.joinable()) return;
    run_flag_ = false;
    run_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  running_ = false;
  // Every line is already fflushed as it is written (the stream's tail
  // survives a process crash); fsync here so a stopped stream — including
  // the final sample the loop just took — also survives power loss.
  std::lock_guard<std::mutex> lk(mu_);
  if (file_ != nullptr) {
    std::fflush(file_);
    ::fsync(::fileno(file_));
  }
}

void MetricsSampler::Loop() {
  // First sample immediately: the stream starts with the state at Start(),
  // not one interval later.
  SampleOnce();
  std::unique_lock<std::mutex> lk(run_mu_);
  while (run_flag_) {
    run_cv_.wait_for(lk, std::chrono::milliseconds(interval_ms_),
                     [&] { return !run_flag_; });
    if (!run_flag_) break;
    lk.unlock();
    SampleOnce();
    lk.lock();
  }
  lk.unlock();
  // Final sample: the stream always ends with the run's endpoint state.
  SampleOnce();
}

MetricsSample MetricsSampler::SampleOnce() {
  MetricsSample s{metrics_->Snapshot()};

  std::lock_guard<std::mutex> lk(mu_);
  s.seq = seq_++;
  std::string line;
  if (!jsonl_path_.empty()) {
    line = ToJsonl(s, have_prev_ ? &prev_ : nullptr);
  }
  prev_ = s;
  have_prev_ = true;
  ring_.push_back(s);
  while (ring_.size() > ring_capacity_) ring_.pop_front();
  if (!line.empty()) WriteLine(line);
  return s;
}

std::vector<MetricsSample> MetricsSampler::RecentSamples(size_t max) const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = ring_.size();
  size_t take = (max == 0 || max > n) ? n : max;
  return std::vector<MetricsSample>(ring_.end() - take, ring_.end());
}

size_t MetricsSampler::sample_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.size();
}

std::string MetricsSampler::ToJsonl(const MetricsSample& s,
                                    const MetricsSample* prev) {
  // Rates are per wall-clock second between the two samples; the first
  // sample (prev == nullptr) reports deltas against zero with rate 0 (no
  // baseline interval to divide by).
  const double dt_s =
      prev == nullptr
          ? 0.0
          : static_cast<double>(s.t_ns - prev->t_ns) / 1e9;
  // Counters are monotonic; a Reset() between samples shows up as a
  // negative delta, clamped to 0 (and flagged by the replay test).
  uint64_t deltas[Metrics::kCounterCount];
  for (size_t i = 0; i < Metrics::kCounterCount; i++) {
    uint64_t prev_v = prev == nullptr ? 0 : prev->counters[i];
    deltas[i] = s.counters[i] >= prev_v ? s.counters[i] - prev_v : 0;
  }
  const char* const* cnames = Metrics::CounterNames();
  const char* const* hnames = Metrics::HistogramNames();
  std::string out;
  out.reserve(4096);
  JsonWriter w(&out);
  w.BeginObject()
      .Key("seq").Uint(s.seq)
      .Key("t_ns").Uint(s.t_ns)
      .Key("counters").BeginObject();
  for (size_t i = 0; i < Metrics::kCounterCount; i++) {
    w.Key(cnames[i]).Uint(s.counters[i]);
  }
  w.EndObject().Key("deltas").BeginObject();
  for (size_t i = 0; i < Metrics::kCounterCount; i++) {
    w.Key(cnames[i]).Uint(deltas[i]);
  }
  w.EndObject().Key("rates_per_s").BeginObject();
  for (size_t i = 0; i < Metrics::kCounterCount; i++) {
    w.Key(cnames[i]).Fixed(
        dt_s <= 0.0 ? 0.0 : static_cast<double>(deltas[i]) / dt_s, 3);
  }
  w.EndObject().Key("histograms").BeginObject();
  for (size_t i = 0; i < Metrics::kHistogramCount; i++) {
    const HistogramSnapshot& h = s.hists[i];
    w.Key(hnames[i]).BeginObject()
        .Key("count").Uint(h.count)
        .Key("sum_ns").Uint(h.sum_ns)
        .Key("p50_ns").Uint(h.p50_ns)
        .Key("p95_ns").Uint(h.p95_ns)
        .Key("p99_ns").Uint(h.p99_ns)
        .Key("max_ns").Uint(h.max_ns)
        .EndObject();
  }
  w.EndObject().EndObject();
  return out;
}

void MetricsSampler::WriteLine(const std::string& line) {
  if (file_ == nullptr) {
    file_ = std::fopen(jsonl_path_.c_str(), "a");
    if (file_ == nullptr) return;  // stream silently off; ring still works
  }
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

}  // namespace ariesim
