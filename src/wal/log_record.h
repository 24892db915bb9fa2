// Write-ahead log record model (ARIES, [MHLPS92]).
//
// Every record carries: its type, the owning transaction, the PrevLSN chain
// pointer, the affected page (records are physiological: one page per
// record), an RM id + opcode that selects the redo/undo interpreter, and an
// opaque payload. CLRs additionally carry UndoNxtLSN. The LSN of a record is
// its byte offset in the log file, so LSNs are monotonic and double as
// addresses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace ariesim {

enum class LogType : uint8_t {
  kInvalid = 0,
  kUpdate = 1,           ///< undo-redo record written by a resource manager
  kCompensation = 2,     ///< redo-only CLR; dummy CLR when rm == kNone
  kCommit = 3,
  kAbort = 4,            ///< rollback initiated (informational)
  kEnd = 5,              ///< transaction fully finished
  kBeginCheckpoint = 6,
  kEndCheckpoint = 7,
  /// Persisted page-log-index chunk (PR 8, instant restart): part of the
  /// fuzzy-checkpoint payload, written between the begin- and end-checkpoint
  /// records. Payload: u32 n_pages, then per page u32 page_id, u32 n_lsns,
  /// n_lsns x u64 ascending LSNs of that page's redoable records. A large
  /// index is split across several kPageIndex records; analysis merges them.
  kPageIndex = 8,
};

/// Resource-manager ids; recovery dispatches redo/undo through these.
enum class RmId : uint8_t {
  kNone = 0,
  kMeta = 1,   ///< space map (free list / high-water) on the meta page
  kHeap = 2,   ///< data (record) pages
  kBtree = 3,  ///< index pages
};

/// Fixed serialized header: u32 total_len, u32 crc, u8 type, u8 rm, u8 op,
/// u8 flags, u64 txn, u64 prev_lsn, u64 undo_next_lsn, u32 page_id,
/// u32 payload_len.
inline constexpr size_t kLogHeaderSize = 44;
/// The log file starts with a magic prologue so that offset 0 is never a
/// valid LSN (kNullLsn = 0).
inline constexpr size_t kLogFilePrologue = 8;
inline constexpr uint64_t kLogMagic = 0x4152494553494D00ull;  // "ARIESIM\0"

struct LogRecord {
  LogType type = LogType::kInvalid;
  RmId rm = RmId::kNone;
  uint8_t op = 0;
  TxnId txn_id = kInvalidTxnId;
  Lsn prev_lsn = kNullLsn;
  Lsn undo_next_lsn = kNullLsn;  ///< CLRs only
  PageId page_id = kInvalidPageId;
  std::string payload;

  /// Assigned by LogManager::Append.
  Lsn lsn = kNullLsn;

  bool IsClr() const { return type == LogType::kCompensation; }
  /// A dummy CLR closes a nested top action (paper §1.2): no page, no RM.
  bool IsDummyClr() const { return IsClr() && rm == RmId::kNone; }
  /// Records that change a page and must be replayed by redo.
  bool IsRedoable() const {
    return (type == LogType::kUpdate || type == LogType::kCompensation) &&
           rm != RmId::kNone;
  }
  /// Records that must be compensated when the transaction rolls back.
  bool IsUndoable() const { return type == LogType::kUpdate && rm != RmId::kNone; }

  size_t SerializedSize() const { return kLogHeaderSize + payload.size(); }
  void AppendTo(std::string* out) const;

  /// Parse one record from `data` (which must start at a record boundary).
  /// Returns Corruption on a bad crc / truncated record — recovery treats
  /// that as the end of the log.
  static Status Parse(std::string_view data, LogRecord* out);

  std::string ToString() const;
};

/// Sequential reader over a log file descriptor, starting at an LSN. It is
/// the one place that decides where the durable log ends: LogManager::Open
/// and its file reads, fsck and wal_dump all walk with it. Each record costs
/// a header pread, then a body pread.
class LogFileReader {
 public:
  LogFileReader(int fd, Lsn start) : fd_(fd), pos_(start) {}

  /// Whether the file starts with the magic prologue.
  static bool HasPrologue(int fd);

  /// Read the record at position() and step past it. Returns NotFound at the
  /// end of the log: EOF, a zero header (preallocated slack), an implausible
  /// length, a short read, or a CRC/framing failure (a torn tail).
  Status Next(LogRecord* out);
  Lsn position() const { return pos_; }

 private:
  int fd_;
  Lsn pos_;
};

}  // namespace ariesim
