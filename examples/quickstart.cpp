// Quickstart: open a database, create a table + ARIES/IM index, run a few
// transactions (insert, point fetch, range scan, delete, rollback), and
// show the instrumentation counters.
//
//   ./build/examples/quickstart [db-dir]
#include <cstdio>
#include <filesystem>

#include "db/database.h"

using namespace ariesim;

#define CHECK_OK(expr)                                        \
  do {                                                        \
    ::ariesim::Status _st = (expr);                           \
    if (!_st.ok()) {                                          \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__,     \
                   __LINE__, _st.ToString().c_str());         \
      return 1;                                               \
    }                                                         \
  } while (0)

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/ariesim_quickstart";
  std::filesystem::remove_all(dir);

  // 1. Open (creates the data file, WAL, and catalog).
  Options options;  // 4 KiB pages, data-only locking, record granularity
  auto db_result = Database::Open(dir, options);
  if (!db_result.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_result.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_result).value();
  std::printf("opened %s\n", dir.c_str());

  // 2. DDL: a table with a unique primary index and a nonunique secondary.
  Table* users = db->CreateTable("users", /*num_columns=*/3).value();
  CHECK_OK(db->CreateIndex("users", "users_pk", 0, /*unique=*/true).status());
  CHECK_OK(db->CreateIndex("users", "users_by_city", 2, /*unique=*/false)
               .status());

  // 3. A transaction inserting rows; every index is maintained with the
  // ARIES/IM protocol (instant next-key locks, data-only locking).
  Transaction* txn = db->Begin();
  CHECK_OK(users->Insert(txn, {"u1", "Ada", "london"}));
  CHECK_OK(users->Insert(txn, {"u2", "Grace", "washington"}));
  CHECK_OK(users->Insert(txn, {"u3", "Edsger", "austin"}));
  CHECK_OK(users->Insert(txn, {"u4", "Barbara", "london"}));
  CHECK_OK(db->Commit(txn));
  std::printf("inserted 4 users\n");

  // 4. Point fetch through the unique index.
  Transaction* q = db->Begin();
  std::optional<Row> row;
  CHECK_OK(users->FetchByKey(q, "users_pk", "u2", &row));
  std::printf("u2 -> %s from %s\n", (*row)[1].c_str(), (*row)[2].c_str());

  // A miss is repeatable-read protected: the next key is locked until this
  // transaction commits, so no phantom "u2a" can appear.
  CHECK_OK(users->FetchByKey(q, "users_pk", "u2a", &row));
  std::printf("u2a -> %s\n", row.has_value() ? "found" : "not found (locked)");
  CHECK_OK(db->Commit(q));

  // 5. Range scan over the nonunique city index.
  Transaction* scan_txn = db->Begin();
  TableScan scan(users, db->GetIndex("users_by_city"));
  CHECK_OK(scan.Open(scan_txn, "london", FetchCond::kGe));
  CHECK_OK(scan.SetStop("london", /*inclusive=*/true));
  std::printf("users in london:\n");
  while (true) {
    Row r;
    Rid rid;
    bool done = false;
    CHECK_OK(scan.Next(scan_txn, &r, &rid, &done));
    if (done) break;
    std::printf("  %s (%s)\n", r[1].c_str(), r[0].c_str());
  }
  CHECK_OK(db->Commit(scan_txn));

  // 6. Rollback: the delete below never happened.
  Transaction* rb = db->Begin();
  Rid rid;
  CHECK_OK(users->FetchByKey(rb, "users_pk", "u1", &row, &rid));
  CHECK_OK(users->Delete(rb, rid));
  CHECK_OK(db->Rollback(rb));
  Transaction* verify = db->Begin();
  CHECK_OK(users->FetchByKey(verify, "users_pk", "u1", &row));
  std::printf("after rollback, u1 %s\n", row.has_value() ? "exists" : "GONE?!");
  CHECK_OK(db->Commit(verify));

  // 7. Instrumentation.
  std::printf("metrics: %s\n", db->metrics().ToJson().c_str());
  return 0;
}
