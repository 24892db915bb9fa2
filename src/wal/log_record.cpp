#include "wal/log_record.h"

#include <unistd.h>

#include "util/coding.h"
#include "util/crc32c.h"

namespace ariesim {

void LogRecord::AppendTo(std::string* out) const {
  size_t start = out->size();
  PutFixed32(out, static_cast<uint32_t>(SerializedSize()));
  PutFixed32(out, 0);  // crc placeholder
  out->push_back(static_cast<char>(type));
  out->push_back(static_cast<char>(rm));
  out->push_back(static_cast<char>(op));
  out->push_back(0);  // flags / pad
  PutFixed64(out, txn_id);
  PutFixed64(out, prev_lsn);
  PutFixed64(out, undo_next_lsn);
  PutFixed32(out, page_id);
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
  // CRC covers everything after the crc field itself.
  uint32_t crc = crc32c::Value(out->data() + start + 8, out->size() - start - 8);
  EncodeFixed32(out->data() + start + 4, crc32c::Mask(crc));
}

Status LogRecord::Parse(std::string_view data, LogRecord* out) {
  if (data.size() < kLogHeaderSize) {
    return Status::Corruption("truncated log header");
  }
  BufferReader r(data.data(), data.size());
  uint32_t total_len = r.GetFixed32();
  uint32_t stored_crc = r.GetFixed32();
  if (total_len < kLogHeaderSize || total_len > data.size()) {
    return Status::Corruption("bad log record length");
  }
  uint32_t crc = crc32c::Value(data.data() + 8, total_len - 8);
  if (crc32c::Mask(crc) != stored_crc) {
    return Status::Corruption("log record crc mismatch");
  }
  out->type = static_cast<LogType>(data[8]);
  out->rm = static_cast<RmId>(data[9]);
  out->op = static_cast<uint8_t>(data[10]);
  BufferReader body(data.data() + 12, total_len - 12);
  out->txn_id = body.GetFixed64();
  out->prev_lsn = body.GetFixed64();
  out->undo_next_lsn = body.GetFixed64();
  out->page_id = body.GetFixed32();
  uint32_t payload_len = body.GetFixed32();
  if (payload_len != total_len - kLogHeaderSize) {
    return Status::Corruption("log payload length mismatch");
  }
  out->payload.assign(data.data() + kLogHeaderSize, payload_len);
  return Status::OK();
}

bool LogFileReader::HasPrologue(int fd) {
  char magic[kLogFilePrologue];
  return ::pread(fd, magic, sizeof(magic), 0) ==
             static_cast<ssize_t>(sizeof(magic)) &&
         DecodeFixed64(magic) == kLogMagic;
}

Status LogFileReader::Next(LogRecord* out) {
  char hdr[kLogHeaderSize];
  if (::pread(fd_, hdr, sizeof(hdr), static_cast<off_t>(pos_)) !=
      static_cast<ssize_t>(sizeof(hdr))) {
    return Status::NotFound("end of log");
  }
  const uint32_t total_len = DecodeFixed32(hdr);
  if (total_len < kLogHeaderSize || total_len > (1u << 26)) {
    return Status::NotFound("end of log");  // zero header or implausible length
  }
  std::string buf(total_len, '\0');
  if (::pread(fd_, buf.data(), total_len, static_cast<off_t>(pos_)) !=
          static_cast<ssize_t>(total_len) ||
      !LogRecord::Parse(buf, out).ok()) {
    return Status::NotFound("torn log tail");
  }
  out->lsn = pos_;
  pos_ += total_len;
  return Status::OK();
}

std::string LogRecord::ToString() const {
  static const char* kTypeNames[] = {"invalid", "update", "clr",  "commit",
                                     "abort",   "end",    "bchk", "echk",
                                     "pgidx"};
  std::string s = "[lsn=" + std::to_string(lsn) +
                  " type=" + kTypeNames[static_cast<int>(type)] +
                  " txn=" + std::to_string(txn_id) +
                  " prev=" + std::to_string(prev_lsn);
  if (IsClr()) s += " undo_next=" + std::to_string(undo_next_lsn);
  if (page_id != kInvalidPageId) s += " page=" + std::to_string(page_id);
  s += " rm=" + std::to_string(static_cast<int>(rm)) +
       " op=" + std::to_string(op) + " len=" + std::to_string(payload.size()) +
       "]";
  return s;
}

}  // namespace ariesim
