// blackbox_dump — pretty-print a database's flight-recorder record offline
// (PR 10; docs/OBSERVABILITY.md "Flight recorder"). Sits next to fsck and
// wal_dump: point it at a crashed directory and it explains what the engine
// knew when it went down, without opening the database.
//
//   ./build/examples/blackbox_dump <dbdir>         dump <dbdir>/blackbox.json
//   ./build/examples/blackbox_dump <file>          dump a record file directly
//   ./build/examples/blackbox_dump --raw <path>    print the raw JSON
//   ./build/examples/blackbox_dump --selftest      create a temp database,
//                                                  capture an incident, crash
//                                                  it, reopen (annotating the
//                                                  record) and dump it
//
// Exit codes: 0 = record parsed, 1 = record exists but does not parse,
// 2 = usage / no record found. The --selftest mode is what
// tools/check_blackbox.sh lints in ctest.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/blackbox.h"
#include "common/json.h"
#include "db/database.h"

using namespace ariesim;

namespace {

int Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "blackbox_dump: %s: %s\n", what, s.ToString().c_str());
  return 2;
}

std::string ResolvePath(const std::string& arg) {
  struct stat st;
  if (::stat(arg.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    return arg + "/blackbox.json";
  }
  return arg;
}

// `fields` maps dotted paths of the first two object levels to scalar text
// (see ParseJson); absent keys print as "-".
std::string F(const std::map<std::string, std::string>& fields,
              const char* key) {
  auto it = fields.find(key);
  return it == fields.end() ? "-" : it->second;
}

bool Has(const std::map<std::string, std::string>& fields, const char* key) {
  return fields.count(key) > 0;
}

int DumpRecord(const std::string& path, bool raw) {
  std::string json;
  Status s = BlackBox::ReadFile(path, &json);
  if (!s.ok()) return Fail(path.c_str(), s);
  if (raw) {
    std::fputs(json.c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::map<std::string, std::string> fields;
  std::string err;
  if (!ParseJson(json, &fields, &err)) {
    std::fprintf(stderr, "blackbox_dump: %s does not parse: %s\n",
                 path.c_str(), err.c_str());
    return 1;
  }
  std::printf("blackbox: %s (%zu bytes, parse OK)\n", path.c_str(),
              json.size());
  std::printf("seq=%s trigger=%s reason=\"%s\"\n", F(fields, "seq").c_str(),
              F(fields, "trigger").c_str(), F(fields, "reason").c_str());
  std::printf("captured: ts_unix_ms=%s pid=%s version=%s\n",
              F(fields, "ts_unix_ms").c_str(), F(fields, "pid").c_str(),
              F(fields, "version").c_str());
  std::printf("health: %s reason=\"%s\"\n", F(fields, "health").c_str(),
              F(fields, "health_reason").c_str());
  std::printf("wal: durable_lsn=%s next_lsn=%s last_lsn=%s\n",
              F(fields, "wal.durable_lsn").c_str(),
              F(fields, "wal.next_lsn").c_str(),
              F(fields, "wal.last_lsn").c_str());
  std::printf("fault: kind=%s site=%s armed=%s frozen=%s fires=%s\n",
              F(fields, "fault.kind").c_str(), F(fields, "fault.site").c_str(),
              F(fields, "fault.armed").c_str(),
              F(fields, "fault.frozen").c_str(),
              F(fields, "fault.fires").c_str());
  std::printf("restart: instant=%s loser_txns=%s total_us=%s\n",
              F(fields, "restart.instant").c_str(),
              F(fields, "restart.loser_txns").c_str(),
              F(fields, "restart.total_us").c_str());
  if (Has(fields, "incident.trigger")) {
    std::printf("incident: trigger=%s reason=\"%s\" seq=%s\n",
                F(fields, "incident.trigger").c_str(),
                F(fields, "incident.reason").c_str(),
                F(fields, "incident.seq").c_str());
  } else {
    std::printf("incident: none this incarnation\n");
  }
  if (Has(fields, "prev.trigger")) {
    std::printf("prev: trigger=%s reason=\"%s\"\n",
                F(fields, "prev.trigger").c_str(),
                F(fields, "prev.reason").c_str());
  }
  if (Has(fields, "recovery.mode")) {
    std::printf("recovery: mode=%s health_after=%s\n",
                F(fields, "recovery.mode").c_str(),
                F(fields, "recovery.health_after").c_str());
  } else {
    std::printf("recovery: not annotated (no reopen since capture)\n");
  }
  std::printf("sections: commit_breakdown=%s locks=%s trace_excerpt=%s "
              "openmetrics=%s(%zu chars)\n",
              json.find("\"commit_breakdown\":") != std::string::npos ? "yes"
                                                                      : "no",
              json.find("\"locks\":") != std::string::npos ? "yes" : "no",
              json.find("\"trace_excerpt\":") != std::string::npos ? "yes"
                                                                   : "no",
              Has(fields, "openmetrics") ? "yes" : "no",
              F(fields, "openmetrics").size());
  return 0;
}

// Exercise the full lifecycle: incident capture, crash, annotated reopen.
int Selftest() {
  const std::string dir = "/tmp/ariesim_blackbox_dump_selftest";
  std::string cmd = "rm -rf " + dir;
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "blackbox_dump: cleanup of %s failed\n", dir.c_str());
    return 2;
  }
  Options opts;
  opts.blackbox_interval_ms = 0;  // deterministic: forced captures only
  {
    auto opened = Database::Open(dir, opts);
    if (!opened.ok()) return Fail("open", opened.status());
    std::unique_ptr<Database> db = std::move(opened).value();
    auto table = db->CreateTable("t", 2);
    if (!table.ok()) return Fail("create table", table.status());
    for (int i = 0; i < 20; i++) {
      Transaction* txn = db->Begin();
      char key[16];
      std::snprintf(key, sizeof(key), "k%04d", i);
      Status s = table.value()->Insert(txn, {key, "v"});
      if (s.ok()) s = db->Commit(txn);
      if (!s.ok()) return Fail("workload", s);
    }
    Status s = db->CaptureIncident("selftest incident");
    if (!s.ok()) return Fail("capture", s);
    db->SimulateCrash();
  }
  int rc;
  {
    auto reopened = Database::Open(dir, opts);
    if (!reopened.ok()) return Fail("reopen", reopened.status());
    std::unique_ptr<Database> db = std::move(reopened).value();
    if (db->last_incident_json().empty()) {
      std::fprintf(stderr, "blackbox_dump: reopen found no last_incident\n");
      return 1;
    }
    // Dump while the database is open: the on-disk record is the previous
    // incarnation's crash annotated with this open's recovery outcome (the
    // clean shutdown below will overwrite it with a "clean_shutdown" one).
    rc = DumpRecord(dir + "/blackbox.json", /*raw=*/false);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool raw = false;
  std::string target;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--raw") == 0) {
      raw = true;
    } else if (std::strcmp(argv[i], "--selftest") == 0) {
      return Selftest();
    } else {
      target = argv[i];
    }
  }
  if (target.empty()) {
    std::fprintf(stderr, "usage: %s [--raw] <dbdir-or-file> | --selftest\n",
                 argv[0]);
    return 2;
  }
  return DumpRecord(ResolvePath(target), raw);
}
