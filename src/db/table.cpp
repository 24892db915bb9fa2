#include "db/table.h"

#include "common/health.h"
#include "recovery/recovery_manager.h"
#include "util/coding.h"

namespace ariesim {

std::string EncodeRow(const Row& row) {
  std::string out;
  PutFixed16(&out, static_cast<uint16_t>(row.size()));
  for (const auto& f : row) PutLengthPrefixed(&out, f);
  return out;
}

Status DecodeRow(std::string_view data, Row* row) {
  BufferReader r(data);
  uint16_t n = r.GetFixed16();
  row->clear();
  row->reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    row->emplace_back(r.GetLengthPrefixed());
  }
  if (!r.ok()) return Status::Corruption("bad row encoding");
  return Status::OK();
}

BTree* Table::index(const std::string& name) const {
  for (const auto& h : indexes_) {
    if (h.meta.name == name) return h.tree;
  }
  return nullptr;
}

bool Table::DataOnly(const BTree* tree) const {
  for (const auto& h : indexes_) {
    if (h.tree == tree) {
      return h.meta.protocol == LockingProtocolKind::kDataOnly;
    }
  }
  return false;
}

Status Table::Insert(Transaction* txn, const Row& row, Rid* rid_out) {
  if (ctx_->health != nullptr) {
    ARIES_RETURN_NOT_OK(ctx_->health->CheckWritable());
  }
  if (row.size() != meta_.num_columns) {
    return Status::InvalidArgument("row has wrong arity");
  }
  for (const auto& h : indexes_) {
    if (h.meta.column >= row.size()) {
      return Status::InvalidArgument("index column out of range");
    }
    if (row[h.meta.column].size() > h.tree->MaxValueLen()) {
      return Status::InvalidArgument("key too long for index " + h.meta.name);
    }
  }
  Lsn savepoint = txn->Savepoint();
  ARIES_ASSIGN_OR_RETURN(Rid rid,
                         records_->InsertRecord(txn, heap_.get(), EncodeRow(row)));
  for (const auto& h : indexes_) {
    Status s = h.tree->Insert(txn, row[h.meta.column], rid);
    if (!s.ok()) {
      // Statement atomicity via ARIES partial rollback (§1.2): undo the
      // heap insert and any index inserts already performed, keep the
      // transaction alive.
      Status rb = ctx_->recovery->UndoTransaction(txn, savepoint);
      if (!rb.ok()) return rb;
      return s;
    }
  }
  if (rid_out != nullptr) *rid_out = rid;
  return Status::OK();
}

Status Table::Delete(Transaction* txn, Rid rid) {
  if (ctx_->health != nullptr) {
    ARIES_RETURN_NOT_OK(ctx_->health->CheckWritable());
  }
  // X lock first (no latches held), then read the row for the key deletes.
  ARIES_RETURN_NOT_OK(records_->LockRecord(txn, meta_.id, rid, LockMode::kX,
                                           LockDuration::kCommit,
                                           /*conditional=*/false));
  auto fetched = heap_->Fetch(rid);
  if (!fetched.ok()) return fetched.status();
  Row row;
  ARIES_RETURN_NOT_OK(DecodeRow(fetched.value(), &row));
  Lsn savepoint = txn->Savepoint();
  for (const auto& h : indexes_) {
    Status s = h.tree->Delete(txn, row[h.meta.column], rid);
    if (!s.ok()) {
      Status rb = ctx_->recovery->UndoTransaction(txn, savepoint);
      if (!rb.ok()) return rb;
      return s;
    }
  }
  Status s = heap_->Delete(txn, rid);
  if (!s.ok()) {
    Status rb = ctx_->recovery->UndoTransaction(txn, savepoint);
    if (!rb.ok()) return rb;
  }
  return s;
}

Status Table::Update(Transaction* txn, Rid rid, const Row& new_row) {
  if (ctx_->health != nullptr) {
    ARIES_RETURN_NOT_OK(ctx_->health->CheckWritable());
  }
  if (new_row.size() != meta_.num_columns) {
    return Status::InvalidArgument("row has wrong arity");
  }
  ARIES_RETURN_NOT_OK(records_->LockRecord(txn, meta_.id, rid, LockMode::kX,
                                           LockDuration::kCommit,
                                           /*conditional=*/false));
  auto fetched = heap_->Fetch(rid);
  if (!fetched.ok()) return fetched.status();
  Row old_row;
  ARIES_RETURN_NOT_OK(DecodeRow(fetched.value(), &old_row));

  Lsn savepoint = txn->Savepoint();
  auto fail = [&](Status s) {
    Status rb = ctx_->recovery->UndoTransaction(txn, savepoint);
    return rb.ok() ? s : rb;
  };
  for (const auto& h : indexes_) {
    const std::string& old_key = old_row[h.meta.column];
    const std::string& new_key = new_row[h.meta.column];
    if (old_key == new_key) continue;
    Status s = h.tree->Delete(txn, old_key, rid);
    if (!s.ok()) return fail(s);
    s = h.tree->Insert(txn, new_key, rid);
    if (!s.ok()) return fail(s);
  }
  Status s = heap_->Update(txn, rid, EncodeRow(new_row));
  if (!s.ok()) return fail(s);
  return Status::OK();
}

Status Table::FetchByKey(Transaction* txn, const std::string& index_name,
                         std::string_view key, std::optional<Row>* row,
                         Rid* rid_out) {
  row->reset();
  BTree* tree = index(index_name);
  if (tree == nullptr) return Status::NotFound("no index " + index_name);
  FetchResult res;
  ARIES_RETURN_NOT_OK(tree->Fetch(txn, key, FetchCond::kEq, &res));
  if (!res.found) return Status::OK();  // not-found state is lock-protected
  ARIES_ASSIGN_OR_RETURN(std::string data,
                         records_->FetchRecord(txn, heap_.get(), res.rid,
                                               DataOnly(tree)));
  Row decoded;
  ARIES_RETURN_NOT_OK(DecodeRow(data, &decoded));
  *row = std::move(decoded);
  if (rid_out != nullptr) *rid_out = res.rid;
  return Status::OK();
}

Status Table::FetchByRid(Transaction* txn, Rid rid, std::optional<Row>* row,
                         bool already_locked) {
  row->reset();
  auto data = records_->FetchRecord(txn, heap_.get(), rid, already_locked);
  if (!data.ok()) {
    if (data.status().IsNotFound()) return Status::OK();
    return data.status();
  }
  Row decoded;
  ARIES_RETURN_NOT_OK(DecodeRow(data.value(), &decoded));
  *row = std::move(decoded);
  return Status::OK();
}

Status TableScan::Open(Transaction* txn, std::string_view start,
                       FetchCond cond) {
  ARIES_RETURN_NOT_OK(tree_->OpenScan(txn, start, cond, &cursor_, &first_));
  first_pending_ = !first_.eof && first_.found;
  return Status::OK();
}

Status TableScan::SetStop(std::string_view stop, bool inclusive) {
  return tree_->SetStop(&cursor_, stop, inclusive);
}

Status TableScan::Next(Transaction* txn, Row* row, Rid* rid, bool* done) {
  *done = false;
  FetchResult res;
  if (first_pending_) {
    first_pending_ = false;
    res = first_;
    // Respect the stop specification for the opening key too.
    if (cursor_.has_stop) {
      int cmp = res.value.compare(cursor_.stop_value);
      if (cursor_.stop_inclusive ? cmp > 0 : cmp >= 0) {
        *done = true;
        return Status::OK();
      }
    }
  } else {
    ARIES_RETURN_NOT_OK(tree_->FetchNext(txn, &cursor_, &res));
    if (!res.found) {
      *done = true;
      return Status::OK();
    }
  }
  std::optional<Row> fetched;
  ARIES_RETURN_NOT_OK(table_->FetchByRid(txn, res.rid, &fetched, data_only_));
  if (!fetched.has_value()) {
    return Status::Corruption("scan: index key without record at " +
                              res.rid.ToString());
  }
  *row = std::move(*fetched);
  if (rid != nullptr) *rid = res.rid;
  return Status::OK();
}

}  // namespace ariesim
