// End-to-end Database tests: DDL, CRUD through indexes, commit/rollback
// semantics, statement-level atomicity, reopen persistence.
#include "db/database.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ariesim {
namespace {

using testing::SmallPageOptions;
using testing::TempDir;

TEST(DatabaseTest, OpenFreshAndReopen) {
  TempDir dir("db_open");
  {
    auto db = Database::Open(dir.path(), SmallPageOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
  }
  {
    auto db = Database::Open(dir.path(), SmallPageOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
  }
}

TEST(DatabaseTest, CreateTableAndIndex) {
  TempDir dir("db_ddl");
  auto dbr = Database::Open(dir.path(), SmallPageOptions());
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(dbr).value();
  auto table = db->CreateTable("accounts", 2);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto index = db->CreateIndex("accounts", "accounts_pk", 0, /*unique=*/true);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_NE(db->GetTable("accounts"), nullptr);
  EXPECT_NE(db->GetIndex("accounts_pk"), nullptr);
  EXPECT_EQ(db->GetTable("nope"), nullptr);
  // Duplicate DDL is rejected.
  EXPECT_TRUE(db->CreateTable("accounts", 2).status().IsDuplicate());
  EXPECT_TRUE(
      db->CreateIndex("accounts", "accounts_pk", 0, true).status().IsDuplicate());
}

TEST(DatabaseTest, InsertFetchDeleteCommitted) {
  TempDir dir("db_crud");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* t = db->CreateTable("kv", 2).value();
  ASSERT_TRUE(db->CreateIndex("kv", "kv_pk", 0, true).ok());

  Transaction* txn = db->Begin();
  Rid rid;
  ASSERT_OK(t->Insert(txn, {"alpha", "1"}, &rid));
  ASSERT_OK(t->Insert(txn, {"beta", "2"}));
  ASSERT_OK(db->Commit(txn));

  Transaction* txn2 = db->Begin();
  std::optional<Row> row;
  ASSERT_OK(t->FetchByKey(txn2, "kv_pk", "alpha", &row));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1], "1");
  ASSERT_OK(t->FetchByKey(txn2, "kv_pk", "gamma", &row));
  EXPECT_FALSE(row.has_value());
  ASSERT_OK(t->Delete(txn2, rid));
  ASSERT_OK(t->FetchByKey(txn2, "kv_pk", "alpha", &row));
  EXPECT_FALSE(row.has_value());
  ASSERT_OK(db->Commit(txn2));
}

TEST(DatabaseTest, RollbackUndoesEverything) {
  TempDir dir("db_rb");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* t = db->CreateTable("kv", 2).value();
  ASSERT_TRUE(db->CreateIndex("kv", "kv_pk", 0, true).ok());

  Transaction* t1 = db->Begin();
  ASSERT_OK(t->Insert(t1, {"stays", "x"}));
  ASSERT_OK(db->Commit(t1));

  Transaction* t2 = db->Begin();
  Rid rid;
  std::optional<Row> row;
  ASSERT_OK(t->Insert(t2, {"goes", "y"}));
  ASSERT_OK(t->FetchByKey(t2, "kv_pk", "stays", &row, &rid));
  ASSERT_TRUE(row.has_value());
  ASSERT_OK(t->Delete(t2, rid));
  ASSERT_OK(db->Rollback(t2));

  Transaction* t3 = db->Begin();
  ASSERT_OK(t->FetchByKey(t3, "kv_pk", "goes", &row));
  EXPECT_FALSE(row.has_value()) << "rolled-back insert leaked";
  ASSERT_OK(t->FetchByKey(t3, "kv_pk", "stays", &row));
  EXPECT_TRUE(row.has_value()) << "rolled-back delete not undone";
  ASSERT_OK(db->Commit(t3));

  size_t keys = 0;
  ASSERT_OK(db->GetIndex("kv_pk")->Validate(&keys));
  EXPECT_EQ(keys, 1u);
}

TEST(DatabaseTest, EndedTransactionIsRejected) {
  TempDir dir("db_ended");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* t = db->CreateTable("kv", 2).value();
  ASSERT_TRUE(db->CreateIndex("kv", "kv_pk", 0, true).ok());

  Transaction* committed = db->Begin();
  ASSERT_OK(t->Insert(committed, {"a", "x"}));
  ASSERT_OK(db->Commit(committed));
  Transaction* rolled_back = db->Begin();
  ASSERT_OK(t->Insert(rolled_back, {"b", "y"}));
  ASSERT_OK(db->Rollback(rolled_back));
  const Lsn end = db->wal()->next_lsn();
  for (Transaction* ended : {committed, rolled_back}) {
    EXPECT_EQ(db->Commit(ended).code(), Code::kInvalidArgument);
    EXPECT_EQ(db->CommitAsync(ended).code(), Code::kInvalidArgument);
    EXPECT_EQ(db->Rollback(ended).code(), Code::kInvalidArgument);
  }
  EXPECT_EQ(db->wal()->next_lsn(), end) << "an ended transaction logged";

  Transaction* check = db->Begin();
  std::optional<Row> row;
  ASSERT_OK(t->FetchByKey(check, "kv_pk", "a", &row));
  EXPECT_TRUE(row.has_value());
  ASSERT_OK(t->FetchByKey(check, "kv_pk", "b", &row));
  EXPECT_FALSE(row.has_value());
  ASSERT_OK(db->Commit(check));
}

TEST(DatabaseTest, UniqueViolationIsStatementAtomic) {
  TempDir dir("db_uni");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* t = db->CreateTable("kv", 2).value();
  ASSERT_TRUE(db->CreateIndex("kv", "kv_pk", 0, true).ok());

  Transaction* t1 = db->Begin();
  ASSERT_OK(t->Insert(t1, {"k", "v1"}));
  ASSERT_OK(db->Commit(t1));

  Transaction* t2 = db->Begin();
  Status s = t->Insert(t2, {"k", "v2"});
  EXPECT_TRUE(s.IsDuplicate()) << s.ToString();
  // The failed statement's heap insert must have been rolled back; the
  // transaction itself stays usable.
  ASSERT_OK(t->Insert(t2, {"k2", "v2"}));
  ASSERT_OK(db->Commit(t2));

  Transaction* t3 = db->Begin();
  std::optional<Row> row;
  ASSERT_OK(t->FetchByKey(t3, "kv_pk", "k", &row));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1], "v1");
  ASSERT_OK(db->Commit(t3));

  std::vector<std::pair<Rid, std::string>> rows;
  ASSERT_OK(t->heap()->ScanAll(&rows));
  EXPECT_EQ(rows.size(), 2u) << "failed statement leaked a heap record";
}

TEST(DatabaseTest, PersistsAcrossCleanReopen) {
  TempDir dir("db_persist");
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    Table* t = db->CreateTable("kv", 2).value();
    ASSERT_TRUE(db->CreateIndex("kv", "kv_pk", 0, true).ok());
    Transaction* txn = db->Begin();
    for (int i = 0; i < 50; ++i) {
      ASSERT_OK(t->Insert(txn, {"key" + std::to_string(i), "v"}));
    }
    ASSERT_OK(db->Commit(txn));
  }
  {
    auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
    Table* t = db->GetTable("kv");
    ASSERT_NE(t, nullptr);
    Transaction* txn = db->Begin();
    std::optional<Row> row;
    for (int i = 0; i < 50; ++i) {
      ASSERT_OK(t->FetchByKey(txn, "kv_pk", "key" + std::to_string(i), &row));
      EXPECT_TRUE(row.has_value()) << "key" << i;
    }
    ASSERT_OK(db->Commit(txn));
    size_t keys = 0;
    ASSERT_OK(db->GetIndex("kv_pk")->Validate(&keys));
    EXPECT_EQ(keys, 50u);
  }
}

TEST(DatabaseTest, SavepointPartialRollback) {
  TempDir dir("db_sp");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* t = db->CreateTable("kv", 2).value();
  ASSERT_TRUE(db->CreateIndex("kv", "kv_pk", 0, true).ok());

  Transaction* txn = db->Begin();
  ASSERT_OK(t->Insert(txn, {"before", "1"}));
  Lsn sp = txn->Savepoint();
  ASSERT_OK(t->Insert(txn, {"after1", "2"}));
  ASSERT_OK(t->Insert(txn, {"after2", "3"}));
  ASSERT_OK(db->RollbackToSavepoint(txn, sp));
  ASSERT_OK(t->Insert(txn, {"after3", "4"}));
  ASSERT_OK(db->Commit(txn));

  Transaction* check = db->Begin();
  std::optional<Row> row;
  ASSERT_OK(t->FetchByKey(check, "kv_pk", "before", &row));
  EXPECT_TRUE(row.has_value());
  ASSERT_OK(t->FetchByKey(check, "kv_pk", "after1", &row));
  EXPECT_FALSE(row.has_value());
  ASSERT_OK(t->FetchByKey(check, "kv_pk", "after2", &row));
  EXPECT_FALSE(row.has_value());
  ASSERT_OK(t->FetchByKey(check, "kv_pk", "after3", &row));
  EXPECT_TRUE(row.has_value());
  ASSERT_OK(db->Commit(check));
}

TEST(DatabaseTest, IndexBackfillOnCreateIndex) {
  TempDir dir("db_backfill");
  auto db = std::move(Database::Open(dir.path(), SmallPageOptions())).value();
  Table* t = db->CreateTable("kv", 2).value();
  Transaction* txn = db->Begin();
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(t->Insert(txn, {"k" + std::to_string(i), "v"}));
  }
  ASSERT_OK(db->Commit(txn));
  ASSERT_TRUE(db->CreateIndex("kv", "kv_late", 0, false).ok());
  size_t keys = 0;
  ASSERT_OK(db->GetIndex("kv_late")->Validate(&keys));
  EXPECT_EQ(keys, 30u);
}

}  // namespace
}  // namespace ariesim
