// Index locking protocols (paper Figure 2 and §2.1).
//
// ARIES/IM's default is *data-only locking*: the lock of a key IS the lock
// of the record the key points at, so single-record operations acquire the
// minimum number of locks. Two alternatives are provided for ablation and
// baseline benchmarks:
//  - index-specific locking: lock (index, key-value, RID) names — slightly
//    more concurrency than data-only, more locks (paper §2.1);
//  - ARIES/KVL-style key-value locking: lock (index, key-value) names —
//    coarser on nonunique indexes and more locks per operation (paper §1).
//
// Every lock request below is made with the leaf S- or X-latched by the
// latch-coupled descent (docs/CONCURRENCY.md, "Latch coupling").
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/config.h"
#include "common/status.h"
#include "lock/lock_manager.h"
#include "txn/transaction.h"

namespace ariesim {

/// A located key, or the per-index EOF pseudo-key (paper §2.2: "a special
/// lock name unique to this index is used" at end of file).
struct IndexKeyRef {
  bool eof = false;
  std::string value;
  Rid rid;

  static IndexKeyRef Eof() {
    IndexKeyRef k;
    k.eof = true;
    return k;
  }
  static IndexKeyRef Of(std::string_view v, Rid r) {
    IndexKeyRef k;
    k.value.assign(v);
    k.rid = r;
    return k;
  }
};

class LockingProtocol {
 public:
  virtual ~LockingProtocol() = default;

  /// Fetch / Fetch Next: S commit on the current (found or EOF) key.
  virtual Status LockFetchCurrent(Transaction* txn, const IndexKeyRef& key,
                                  bool conditional) = 0;
  /// Insert, unique index: S commit on an equal-valued existing key, to
  /// check whether the key value is committed (paper §2.4).
  virtual Status LockUniqueCheck(Transaction* txn, const IndexKeyRef& key,
                                 bool conditional) = 0;
  /// Insert: X instant on the next key (paper Figure 2).
  virtual Status LockInsertNext(Transaction* txn, const IndexKeyRef& next,
                                std::string_view insert_value,
                                bool conditional) = 0;
  /// Insert: lock on the inserted key itself. No-op under data-only locking
  /// (the record manager already holds the commit X record lock).
  virtual Status LockInsertCurrent(Transaction* txn, std::string_view value,
                                   Rid rid, bool conditional) = 0;
  /// Delete: X commit on the next key (paper Figure 2).
  virtual Status LockDeleteNext(Transaction* txn, const IndexKeyRef& next,
                                std::string_view delete_value,
                                bool conditional) = 0;
  /// Delete: lock on the deleted key itself. No-op under data-only locking.
  virtual Status LockDeleteCurrent(Transaction* txn, std::string_view value,
                                   Rid rid, bool conditional) = 0;
};

/// Factory; `table_id` is the table whose records the index references
/// (used by data-only locking).
std::unique_ptr<LockingProtocol> MakeLockingProtocol(
    LockingProtocolKind kind, LockManager* locks, ObjectId index_id,
    ObjectId table_id, bool unique, LockGranularity granularity);

}  // namespace ariesim
