// Table: a heap file plus its indexes. Rows are vectors of string fields;
// each index covers one column. Statement-level atomicity is provided via
// ARIES partial rollback: every multi-step statement establishes a
// savepoint and rolls back to it on failure, leaving the transaction alive.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "db/catalog.h"
#include "record/heap_file.h"
#include "record/record_manager.h"

namespace ariesim {

using Row = std::vector<std::string>;

std::string EncodeRow(const Row& row);
Status DecodeRow(std::string_view data, Row* row);

struct IndexHandle {
  IndexMeta meta;
  BTree* tree = nullptr;
};

class Table {
 public:
  Table(EngineContext* ctx, RecordManager* records, TableMeta meta,
        std::unique_ptr<HeapFile> heap)
      : ctx_(ctx), records_(records), meta_(std::move(meta)),
        heap_(std::move(heap)) {}

  const TableMeta& meta() const { return meta_; }
  HeapFile* heap() { return heap_.get(); }
  void AttachIndex(IndexHandle h) { indexes_.push_back(std::move(h)); }
  const std::vector<IndexHandle>& indexes() const { return indexes_; }
  BTree* index(const std::string& name) const;
  /// True if `tree` is one of this table's data-only indexes, whose key
  /// locks are the record locks (paper §2.1).
  bool DataOnly(const BTree* tree) const;

  /// Insert a row: record insert (commit X record lock) followed by a key
  /// insert into every index (instant X next-key locks). On failure the
  /// statement is rolled back to its savepoint.
  Status Insert(Transaction* txn, const Row& row, Rid* rid_out = nullptr);

  /// Delete the row at `rid`: commit X record lock, key deletes (commit X
  /// next-key locks), then the heap tombstone.
  Status Delete(Transaction* txn, Rid rid);

  /// Update the row at `rid` in place (the RID is stable): commit X record
  /// lock, delete+insert of every index key whose column changed, then the
  /// heap overwrite. Statement-atomic via savepoint. May fail kNoSpace when
  /// the new row does not fit the page.
  Status Update(Transaction* txn, Rid rid, const Row& new_row);

  /// Point lookup through an index (kEq). Under data-only locking the index
  /// fetch already locked the record, so the heap read is lock-free.
  Status FetchByKey(Transaction* txn, const std::string& index_name,
                    std::string_view key, std::optional<Row>* row,
                    Rid* rid_out = nullptr);

  /// Direct heap read (S commit record lock unless `already_locked`).
  Status FetchByRid(Transaction* txn, Rid rid, std::optional<Row>* row,
                    bool already_locked = false);

 private:
  EngineContext* ctx_;
  RecordManager* records_;
  TableMeta meta_;
  std::unique_ptr<HeapFile> heap_;
  std::vector<IndexHandle> indexes_;
};

/// Index range scan over a table: yields full rows. Over a data-only index
/// Fetch Next already holds the record lock, so the heap read takes none.
class TableScan {
 public:
  TableScan(Table* table, BTree* tree)
      : table_(table), tree_(tree), data_only_(table->DataOnly(tree)) {}

  /// Position at the first key satisfying (start, cond).
  Status Open(Transaction* txn, std::string_view start, FetchCond cond);
  Status SetStop(std::string_view stop, bool inclusive);
  /// Fetch the next row; *done=true at range end.
  Status Next(Transaction* txn, Row* row, Rid* rid, bool* done);

 private:
  Table* table_;
  BTree* tree_;
  bool data_only_;
  ScanCursor cursor_;
  bool first_pending_ = false;
  FetchResult first_;
};

}  // namespace ariesim
