// ariesh — an interactive shell over the ariesim engine.
//
// A small REPL a downstream user can poke the engine with: DDL, per-session
// transactions, point and range queries, crash simulation, WAL/metrics
// inspection. One implicit transaction per statement unless BEGIN..COMMIT /
// ROLLBACK brackets are used.
//
//   ./build/examples/ariesh /tmp/mydb
//
// Commands (case-insensitive keywords; strings are bare words):
//   create table <name> <ncols>
//   create index <name> on <table> <column> [unique] [kvl|indexspecific]
//   insert <table> <field1> <field2> ...
//   get <table> <index> <key>
//   scan <table> <index> <start> <stop>
//   delete <table> <index> <key>
//   begin | commit | rollback | savepoint | rollback_to
//   checkpoint | crash | validate <index> | tables | help | quit
//   .stats                       structured engine snapshot (JSON)
//   .locks [dot|json]            lock-table snapshot + deadlock postmortems
//   .trace on|off|dump [path]    event tracer control (see docs/OBSERVABILITY.md)
//   .metrics                     OpenMetrics/Prometheus text exposition
//   .incident [reason]           last black-box record / force a capture
//   .watch [ms] [n]              live top-counters + commit-breakdown view
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"

using namespace ariesim;

namespace {

struct Shell {
  std::string dir;
  Options options;
  std::unique_ptr<Database> db;
  Transaction* txn = nullptr;  // explicit transaction, if open
  Lsn savepoint = kNullLsn;

  bool Reopen() {
    db.reset();
    auto r = Database::Open(dir, options);
    if (!r.ok()) {
      std::printf("open failed: %s\n", r.status().ToString().c_str());
      return false;
    }
    db = std::move(r).value();
    txn = nullptr;
    const RestartStats& st = db->restart_stats();
    if (st.analysis_records > 0) {
      std::printf("recovered: %lu analyzed, %lu redone, %lu undone, %lu losers\n",
                  (unsigned long)st.analysis_records,
                  (unsigned long)st.redo_applied,
                  (unsigned long)st.undo_records, (unsigned long)st.loser_txns);
    }
    return true;
  }

  Transaction* Txn() { return txn != nullptr ? txn : db->Begin(); }
  void Finish(Transaction* t, bool ok_statement) {
    if (t == txn) return;  // explicit txn: user commits
    Status s = ok_statement ? db->Commit(t) : db->Rollback(t);
    if (!s.ok()) std::printf("txn end: %s\n", s.ToString().c_str());
  }

  void Execute(const std::vector<std::string>& tok);
};

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

void PrintRow(const Row& row, Rid rid) {
  std::printf("  [%s]", rid.ToString().c_str());
  for (const auto& f : row) std::printf(" %s", f.c_str());
  std::printf("\n");
}

void Shell::Execute(const std::vector<std::string>& tok) {
  const std::string cmd = Lower(tok[0]);
  if (cmd == "help") {
    std::printf(
        "create table <name> <ncols>\n"
        "create index <name> on <table> <col> [unique] [kvl|indexspecific]\n"
        "insert <table> <fields...>\n"
        "get <table> <index> <key>\n"
        "scan <table> <index> <start> <stop>\n"
        "delete <table> <index> <key>\n"
        "begin | commit | rollback | savepoint | rollback_to\n"
        "checkpoint | crash | validate <index> | tables | quit\n"
        ".stats                      engine snapshot as JSON\n"
        ".locks                      lock-table snapshot + postmortems\n"
        ".locks dot                  waits-for graph as Graphviz DOT\n"
        ".locks json                 full lock forensics as JSON\n"
        ".trace on|off               enable/disable event tracing\n"
        ".trace dump [path]          write Chrome trace JSON (default "
        "trace.json)\n"
        ".metrics                    OpenMetrics/Prometheus exposition\n"
        ".incident [reason]          show the last black-box incident; with\n"
        "                            a reason, capture one first\n"
        ".watch [ms] [n]             redraw top counters, rates and commit\n"
        "                            breakdown every ms (default 1000), n\n"
        "                            times (default 10)\n");
    return;
  }
  if (cmd == "tables") {
    for (auto& [name, t] : db->catalog()->tables()) {
      std::printf("table %s (id %u, %u columns)\n", name.c_str(), t.id,
                  t.num_columns);
    }
    for (auto& [name, i] : db->catalog()->indexes()) {
      std::printf("index %s on table %u col %u%s root=%u\n", name.c_str(),
                  i.table_id, i.column, i.unique ? " unique" : "", i.root);
    }
    return;
  }
  if (cmd == "create" && tok.size() >= 4 && Lower(tok[1]) == "table") {
    auto r = db->CreateTable(tok[2], static_cast<uint32_t>(std::stoul(tok[3])));
    std::printf("%s\n", r.ok() ? "ok" : r.status().ToString().c_str());
    return;
  }
  if (cmd == "create" && tok.size() >= 6 && Lower(tok[1]) == "index") {
    bool unique = false;
    LockingProtocolKind proto = options.index_locking;
    for (size_t i = 6; i < tok.size(); ++i) {
      std::string f = Lower(tok[i]);
      if (f == "unique") unique = true;
      if (f == "kvl") proto = LockingProtocolKind::kKeyValue;
      if (f == "indexspecific") proto = LockingProtocolKind::kIndexSpecific;
    }
    auto r = db->CreateIndexWithProtocol(
        tok[4], tok[2], static_cast<uint32_t>(std::stoul(tok[5])), unique, proto);
    std::printf("%s\n", r.ok() ? "ok" : r.status().ToString().c_str());
    return;
  }
  if (cmd == "insert" && tok.size() >= 3) {
    Table* t = db->GetTable(tok[1]);
    if (t == nullptr) {
      std::printf("no table %s\n", tok[1].c_str());
      return;
    }
    Row row(tok.begin() + 2, tok.end());
    Transaction* x = Txn();
    Rid rid;
    Status s = t->Insert(x, row, &rid);
    Finish(x, s.ok());
    std::printf("%s\n", s.ok() ? ("ok " + rid.ToString()).c_str()
                               : s.ToString().c_str());
    return;
  }
  if ((cmd == "get" || cmd == "delete") && tok.size() >= 4) {
    Table* t = db->GetTable(tok[1]);
    if (t == nullptr) {
      std::printf("no table %s\n", tok[1].c_str());
      return;
    }
    Transaction* x = Txn();
    std::optional<Row> row;
    Rid rid;
    Status s = t->FetchByKey(x, tok[2], tok[3], &row, &rid);
    if (s.ok() && cmd == "get") {
      if (row.has_value()) {
        PrintRow(*row, rid);
      } else {
        std::printf("not found (next key locked for repeatable read)\n");
      }
    } else if (s.ok() && cmd == "delete") {
      if (!row.has_value()) {
        std::printf("not found\n");
      } else {
        s = t->Delete(x, rid);
        std::printf("%s\n", s.ok() ? "deleted" : s.ToString().c_str());
      }
    } else {
      std::printf("%s\n", s.ToString().c_str());
    }
    Finish(x, s.ok());
    return;
  }
  if (cmd == "scan" && tok.size() >= 5) {
    Table* t = db->GetTable(tok[1]);
    BTree* ix = db->GetIndex(tok[2]);
    if (t == nullptr || ix == nullptr) {
      std::printf("unknown table/index\n");
      return;
    }
    Transaction* x = Txn();
    TableScan scan(t, ix);
    Status s = scan.Open(x, tok[3], FetchCond::kGe);
    if (s.ok()) s = scan.SetStop(tok[4], /*inclusive=*/true);
    int n = 0;
    while (s.ok()) {
      Row row;
      Rid rid;
      bool done = false;
      s = scan.Next(x, &row, &rid, &done);
      if (!s.ok() || done) break;
      PrintRow(row, rid);
      ++n;
    }
    std::printf("%d row(s)%s\n", n, s.ok() ? "" : (" " + s.ToString()).c_str());
    Finish(x, s.ok());
    return;
  }
  if (cmd == "begin") {
    if (txn != nullptr) {
      std::printf("transaction already open\n");
    } else {
      txn = db->Begin();
      std::printf("txn %lu\n", (unsigned long)txn->id());
    }
    return;
  }
  if (cmd == "commit" || cmd == "rollback") {
    if (txn == nullptr) {
      std::printf("no open transaction\n");
      return;
    }
    Status s = cmd == "commit" ? db->Commit(txn) : db->Rollback(txn);
    std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
    txn = nullptr;
    return;
  }
  if (cmd == "savepoint") {
    if (txn == nullptr) {
      std::printf("no open transaction\n");
    } else {
      savepoint = txn->Savepoint();
      std::printf("savepoint at lsn %lu\n", (unsigned long)savepoint);
    }
    return;
  }
  if (cmd == "rollback_to") {
    if (txn == nullptr) {
      std::printf("no open transaction\n");
    } else {
      Status s = db->RollbackToSavepoint(txn, savepoint);
      std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
    }
    return;
  }
  if (cmd == "checkpoint") {
    Status s = db->Checkpoint();
    std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
    return;
  }
  if (cmd == "crash") {
    std::printf(">>> simulated crash; recovering...\n");
    db->SimulateCrash();
    Reopen();
    return;
  }
  if (cmd == "validate" && tok.size() >= 2) {
    BTree* ix = db->GetIndex(tok[1]);
    if (ix == nullptr) {
      std::printf("no index %s\n", tok[1].c_str());
      return;
    }
    size_t keys = 0;
    Status s = ix->Validate(&keys);
    std::printf("%s (%zu keys)\n", s.ToString().c_str(), keys);
    return;
  }
  if (cmd == ".stats") {
    std::printf("%s\n", db->Stats().ToJson().c_str());
    return;
  }
  if (cmd == ".incident") {
    // With an argument: force a capture first (`.incident disk smells off`),
    // then show what is on disk. Without: the previous incarnation's record.
    if (tok.size() >= 2) {
      std::string reason;
      for (size_t i = 1; i < tok.size(); ++i) {
        if (i > 1) reason += ' ';
        reason += tok[i];
      }
      Status s = db->CaptureIncident(reason);
      if (!s.ok()) {
        std::printf("capture failed: %s\n", s.ToString().c_str());
        return;
      }
      std::string json;
      s = BlackBox::ReadFile(db->blackbox()->path(), &json);
      if (!s.ok()) {
        std::printf("read failed: %s\n", s.ToString().c_str());
        return;
      }
      std::printf("%s\n", json.c_str());
      return;
    }
    const std::string& last = db->last_incident_json();
    if (last.empty()) {
      std::printf("no incident record (fresh directory, or recorder off)\n");
    } else {
      std::printf("%s\n", last.c_str());
    }
    return;
  }
  if (cmd == ".locks") {
    const std::string sub = tok.size() >= 2 ? Lower(tok[1]) : "";
    if (sub == "dot") {
      std::printf("%s", db->locks()->Snapshot().ToDot().c_str());
    } else if (sub == "json") {
      std::printf("%s\n", db->LockForensicsJson().c_str());
    } else {
      LockTableSnapshot snap = db->locks()->Snapshot();
      std::string text = snap.ToString();
      if (text.empty()) text = "(lock table empty)\n";
      std::printf("%s", text.c_str());
      std::vector<DeadlockPostmortem> pms = db->locks()->Postmortems();
      std::printf("%zu deadlock postmortem(s)\n", pms.size());
      for (const DeadlockPostmortem& pm : pms) {
        std::printf("  #%lu %s\n", (unsigned long)pm.seq,
                    pm.Summary().c_str());
      }
      for (const auto& e : db->locks()->TopContention(5)) {
        std::printf("  hot lock %s: %lu waits, %lu us\n",
                    e.key.ToString().c_str(), (unsigned long)e.waits,
                    (unsigned long)(e.wait_ns / 1000));
      }
    }
    return;
  }
  if (cmd == ".trace" && tok.size() >= 2) {
    const std::string sub = Lower(tok[1]);
    if (sub == "on" || sub == "off") {
      db->SetTracing(sub == "on");
      std::printf("tracing %s\n", db->tracing() ? "on" : "off");
    } else if (sub == "dump") {
      const std::string path = tok.size() >= 3 ? tok[2] : "trace.json";
      Status s = db->DumpTrace(path);
      if (s.ok()) {
        TraceCounts c = Tracer::Instance().Counts();
        std::printf("wrote %s (%lu events recorded, %lu dropped)\n",
                    path.c_str(), (unsigned long)c.recorded,
                    (unsigned long)c.dropped);
      } else {
        std::printf("%s\n", s.ToString().c_str());
      }
    } else {
      std::printf("usage: .trace on|off|dump [path]\n");
    }
    return;
  }
  if (cmd == ".metrics") {
    std::printf("%s", db->metrics().ToOpenMetrics().c_str());
    return;
  }
  if (cmd == ".watch") {
    // Live view over registry snapshots. Each redraw shows the busiest
    // counters by delta with their per-second rates, plus the
    // commit-breakdown share of each segment over the window.
    uint32_t interval_ms = 1000;
    int redraws = 10;
    if (tok.size() >= 2) interval_ms = static_cast<uint32_t>(std::stoul(tok[1]));
    if (tok.size() >= 3) redraws = std::stoi(tok[2]);
    if (interval_ms == 0) interval_ms = 1000;
    MetricsSnapshot prev = db->metrics().Snapshot();
    const char* const* cnames = Metrics::CounterNames();
    const char* const* hnames = Metrics::HistogramNames();
    for (int i = 0; i < redraws; i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      MetricsSnapshot cur = db->metrics().Snapshot();
      double dt_s = static_cast<double>(cur.t_ns - prev.t_ns) / 1e9;
      if (dt_s <= 0) dt_s = 1;
      std::vector<std::pair<uint64_t, size_t>> deltas;
      for (size_t c = 0; c < Metrics::kCounterCount; c++) {
        uint64_t d = cur.counters[c] - prev.counters[c];
        if (d > 0) deltas.emplace_back(d, c);
      }
      std::sort(deltas.rbegin(), deltas.rend());
      std::printf("-- watch %d/%d (%.1fs window) --\n", i + 1, redraws, dt_s);
      size_t shown = 0;
      for (auto& [d, c] : deltas) {
        if (shown++ >= 8) break;
        std::printf("  %-26s +%-10lu %10.1f/s (total %lu)\n", cnames[c],
                    (unsigned long)d, static_cast<double>(d) / dt_s,
                    (unsigned long)cur.counters[c]);
      }
      if (deltas.empty()) std::printf("  (no counter activity)\n");
      // Commit-breakdown shares over this window, from the commit_seg_*
      // histogram sum deltas.
      uint64_t seg_total = 0;
      std::vector<std::pair<const char*, uint64_t>> segs;
      for (size_t h = 0; h < Metrics::kHistogramCount; h++) {
        const std::string name = hnames[h];
        if (name.rfind("commit_seg_", 0) != 0) continue;
        uint64_t d = cur.hists[h].sum_ns - prev.hists[h].sum_ns;
        segs.emplace_back(hnames[h] + sizeof("commit_seg_") - 1, d);
        seg_total += d;
      }
      if (seg_total > 0) {
        std::printf("  commit breakdown:");
        for (auto& [name, d] : segs) {
          std::printf(" %s %.1f%%", name,
                      100.0 * static_cast<double>(d) /
                          static_cast<double>(seg_total));
        }
        std::printf("\n");
      }
      prev = cur;
    }
    return;
  }
  std::printf("unknown command (try 'help')\n");
}

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  shell.dir = argc > 1 ? argv[1] : "/tmp/ariesh_db";
  if (!shell.Reopen()) return 1;
  std::printf("ariesim shell — db at %s (try 'help')\n", shell.dir.c_str());
  std::string line;
  while (true) {
    std::printf("%s> ", shell.txn != nullptr ? "txn" : "aries");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::istringstream ls(line);
    std::vector<std::string> tok;
    std::string w;
    while (ls >> w) tok.push_back(w);
    if (tok.empty()) continue;
    std::string cmd = tok[0];
    for (char& c : cmd) c = static_cast<char>(std::tolower(c));
    if (cmd == "quit" || cmd == "exit") break;
    shell.Execute(tok);
  }
  return 0;
}
