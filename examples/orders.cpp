// Order entry: the classic phantom-problem workload the paper's next-key
// locking solves. An auditor repeatedly sums a customer's orders inside one
// transaction while entry clerks insert new orders for the same customer.
// Under repeatable read, the two sums inside one auditor transaction must
// agree — ARIES/IM's next-key locks on the scanned range block inserts into
// it until the auditor commits.
//
//   ./build/examples/orders [db-dir]
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "db/database.h"
#include "util/random.h"

using namespace ariesim;

namespace {

int64_t SumCustomerOrders(Database* db, Table* orders, Transaction* txn,
                          const std::string& customer) {
  TableScan scan(orders, db->GetIndex("orders_by_cust"));
  if (!scan.Open(txn, customer, FetchCond::kGe).ok()) return -1;
  if (!scan.SetStop(customer, /*inclusive=*/true).ok()) return -1;
  int64_t total = 0;
  while (true) {
    Row row;
    Rid rid;
    bool done = false;
    if (!scan.Next(txn, &row, &rid, &done).ok() || done) break;
    total += std::stoll(row[2]);
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/ariesim_orders";
  std::filesystem::remove_all(dir);

  auto db = std::move(Database::Open(dir).value());
  Table* orders = db->CreateTable("orders", 3).value();  // id, customer, amount
  db->CreateIndex("orders", "orders_pk", 0, true).value();
  db->CreateIndex("orders", "orders_by_cust", 1, false).value();

  // Seed some orders for two customers.
  Transaction* seed = db->Begin();
  Random rnd(7);
  int next_order = 0;
  for (int i = 0; i < 20; ++i) {
    std::string cust = (i % 2 == 0) ? "acme" : "globex";
    Status s = orders->Insert(
        seed, {"ord" + rnd.Key(static_cast<uint64_t>(next_order++), 5), cust,
               std::to_string(100 + i)});
    if (!s.ok()) {
      std::fprintf(stderr, "seed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!db->Commit(seed).ok()) return 1;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inserted{0};
  std::atomic<uint64_t> audits{0};
  std::atomic<uint64_t> phantom_violations{0};

  // Entry clerks insert new acme orders continuously.
  std::vector<std::thread> clerks;
  std::atomic<int> order_counter{1000};
  for (int c = 0; c < 2; ++c) {
    clerks.emplace_back([&, c] {
      Random crnd(100 + static_cast<uint64_t>(c));
      while (!stop.load()) {
        Transaction* txn = db->Begin();
        int id = order_counter.fetch_add(1);
        Status s = orders->Insert(
            txn, {"ord" + crnd.Key(static_cast<uint64_t>(id), 5), "acme",
                  std::to_string(crnd.Range(10, 500))});
        if (s.ok() && db->Commit(txn).ok()) {
          inserted.fetch_add(1);
        } else {
          (void)db->Rollback(txn);
        }
      }
    });
  }

  // The auditor: two sums inside one transaction must agree (RR).
  std::thread auditor([&] {
    while (!stop.load()) {
      Transaction* txn = db->Begin();
      int64_t first = SumCustomerOrders(db.get(), orders, txn, "acme");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      int64_t second = SumCustomerOrders(db.get(), orders, txn, "acme");
      if (first != second) phantom_violations.fetch_add(1);
      (void)db->Commit(txn);
      audits.fetch_add(1);
    }
  });

  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop = true;
  for (auto& c : clerks) c.join();
  auditor.join();

  std::printf("clerks inserted %lu orders; auditor ran %lu audits\n",
              static_cast<unsigned long>(inserted.load()),
              static_cast<unsigned long>(audits.load()));
  std::printf("repeatable-read violations: %lu (%s)\n",
              static_cast<unsigned long>(phantom_violations.load()),
              phantom_violations.load() == 0 ? "RR holds — no phantoms"
                                             : "PHANTOMS DETECTED!");
  std::printf("metrics: %s\n", db->metrics().ToJson().c_str());
  return phantom_violations.load() == 0 ? 0 : 1;
}
