// Engine benchmark program. Runs one workload through the public API and
// prints every metric by name and unit, then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The metrics are the
// end-to-end set for --trace 0 and the per-layer set for --trace 1.
//
//   perfbench --workload point_read --seed 1 --seconds 10 --trace 0
//             --dir <scratch dir> [--trace-file spans.json]
//
// perfbench/run.py builds this binary and is the command to run.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

void PrintMetrics(const char* section,
                  const std::vector<perfbench::Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-6s %-36s %16.4f %-6s %s\n", section, m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload point_read|commit_bound|scan_cold "
               "--seed N --seconds S --trace 0|1 --dir DIR "
               "[--trace-file FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--dir") {
      a.dir = v;
    } else if (flag == "--trace-file") {
      a.trace_file = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !perfbench::IsWorkload(a.workload) || a.dir.empty() ||
      !(a.seconds > 0)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(a.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", a.dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  perfbench::Report r;
  perfbench::RunWorkload(a, &r);
  std::filesystem::remove_all(a.dir, ec);

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  PrintMetrics("e2e", r.end_to_end);
  PrintMetrics("extra", r.extra);
  PrintMetrics("layer", r.per_layer);
  for (const auto& e : r.errors) std::printf("error  %s\n", e.c_str());

  const auto& chosen = a.trace ? r.per_layer : r.end_to_end;
  bool correct = r.errors.empty() && !chosen.empty();
  std::string metrics;
  for (const auto& m : chosen) {
    if (!std::isfinite(m.value)) correct = false;
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " +
               Number(std::isfinite(m.value) ? m.value : 0) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
