// The benchmark's three workloads. Each one sets up its database (several
// times, for a steady setup_s), runs its measured region, checks the
// results, and fills in a Report.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;         ///< private scratch directory for the databases
  std::string trace_file;  ///< where a traced run writes its spans
};

bool IsWorkload(const std::string& name);
void RunWorkload(const RunArgs& args, Report* report);

}  // namespace perfbench
