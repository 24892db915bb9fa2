// Out-of-process runners for the offline tools (fsck, wal_dump) that the
// tools_test binary drives over crashed, torn and cleanly closed databases.
#pragma once

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace ariesim {
namespace testing {

// Run `bin` on the database directory `dir`; returns its exit code and
// leaves its stdout and stderr in *out.
inline int RunTool(const char* bin, const std::string& dir, std::string* out) {
  const std::string cmd = std::string(bin) + " " + dir + " 2>&1";
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return -1;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) *out += buf;
  const int status = ::pclose(p);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

inline int RunFsck(const std::string& dir, std::string* out) {
  return RunTool(ARIESIM_FSCK_BIN, dir, out);
}

inline int RunWalDump(const std::string& dir, std::string* out) {
  return RunTool(ARIESIM_WAL_DUMP_BIN, dir, out);
}

}  // namespace testing
}  // namespace ariesim
