// Offline consistency verifier:
//   fsck <db-dir> [page-size]
//
// Scans the closed database WITHOUT opening it through the engine —
// LogManager::Open truncates a torn log tail as a side effect, and a
// verifier must never modify what it verifies. Checks:
//   - wal.log: magic prologue, then a CRC walk of every record; reports the
//     first bad LSN (a torn tail) and the durable end of the log. An
//     all-zero remainder is the log's preallocated slack, not a finding;
//   - data.db: the buffer pool's strict load predicate on every page — a
//     typed page must carry a matching checksum, an untyped page must be
//     entirely zero;
//   - cross-check: no page may carry a page_LSN beyond the durable end of
//     the log (a WAL-rule violation: the page got to disk before its log);
//   - page-index cross-check: every per-page LSN chain entry persisted in a
//     checkpoint's kPageIndex chunks must reference a real redoable record
//     for that page in the raw log walk — a divergent entry would make
//     instant restart replay garbage (or skip history) on first touch.
//
// Exit 0 when clean, 1 when findings were reported, 2 on usage/IO errors.
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.h"
#include "recovery/page_index.h"
#include "storage/page.h"
#include "storage/space_manager.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "wal/log_record.h"

using namespace ariesim;

namespace {

int findings = 0;

void Finding(const std::string& msg) {
  std::printf("FSCK: %s\n", msg.c_str());
  ++findings;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f.is_open()) return false;
  out->resize(static_cast<size_t>(f.tellg()));
  f.seekg(0);
  f.read(out->data(), static_cast<std::streamsize>(out->size()));
  return f.good() || out->empty();
}

/// Walk the log from the prologue; returns the durable end (the byte offset
/// one past the last record that parses with a valid CRC).
Lsn ScanLog(const std::string& log) {
  if (log.size() < kLogFilePrologue) {
    Finding("wal.log shorter than its prologue (" +
            std::to_string(log.size()) + " bytes)");
    return kLogFilePrologue;
  }
  if (DecodeFixed64(log.data()) != kLogMagic) {
    Finding("wal.log has a bad magic prologue");
    return kLogFilePrologue;
  }
  Lsn pos = kLogFilePrologue;
  uint64_t records = 0;
  size_t slack = 0;
  while (pos < log.size()) {
    LogRecord rec;
    Status s = Status::Corruption("record header extends past end of file");
    if (pos + kLogHeaderSize <= log.size()) {
      s = LogRecord::Parse(
          std::string_view(log.data() + pos, log.size() - pos), &rec);
    }
    if (!s.ok()) {
      if (std::string_view(log).substr(pos).find_first_not_of('\0') ==
          std::string_view::npos) {
        slack = log.size() - pos;  // zero-filled ahead of the append point
      } else {
        Finding("torn log tail: first bad LSN " + std::to_string(pos) + " (" +
                std::to_string(log.size() - pos) +
                " trailing bytes fail the CRC walk; restart recovery would "
                "truncate here)");
      }
      break;
    }
    pos += rec.SerializedSize();
    ++records;
  }
  std::printf(
      "fsck: wal.log %zu bytes, %llu records, durable end-of-log %llu, %zu "
      "bytes preallocated\n",
      log.size(), static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(pos), slack);
  return pos;
}

/// Cross-check every persisted page-index chunk against a second raw walk
/// of the durable log: each chain entry must name an LSN at which the log
/// really holds a redoable record for that page. The first divergence is
/// reported in detail; the rest are only counted.
void CheckPageIndex(const std::string& log, Lsn durable_end) {
  std::unordered_map<PageId, std::unordered_set<Lsn>> redoable;
  struct Chunk {
    Lsn lsn;
    std::string payload;
  };
  std::vector<Chunk> chunks;
  Lsn pos = kLogFilePrologue;
  while (pos < durable_end) {
    LogRecord rec;
    if (!LogRecord::Parse(
             std::string_view(log.data() + pos, log.size() - pos), &rec)
             .ok()) {
      break;  // already reported by ScanLog
    }
    if (rec.IsRedoable() && rec.page_id != kInvalidPageId) {
      redoable[rec.page_id].insert(pos);
    } else if (rec.type == LogType::kPageIndex) {
      chunks.push_back({pos, rec.payload});
    }
    pos += rec.SerializedSize();
  }
  uint64_t entries = 0;
  uint64_t divergent = 0;
  bool reported = false;
  for (const Chunk& c : chunks) {
    PageLsnChains chains;  // fresh per chunk: check each independently
    if (!PageLogIndex::ParseChunk(c.payload, &chains).ok()) {
      Finding("page-index chunk at LSN " + std::to_string(c.lsn) +
              " is malformed");
      continue;
    }
    for (const auto& [page, chain] : chains) {
      for (Lsn lsn : chain) {
        ++entries;
        auto it = redoable.find(page);
        if (it == redoable.end() || it->second.count(lsn) == 0) {
          ++divergent;
          if (!reported) {
            reported = true;
            Finding("page-index divergence: chunk at LSN " +
                    std::to_string(c.lsn) + " claims page " +
                    std::to_string(page) + " has a redoable record at LSN " +
                    std::to_string(lsn) +
                    ", but the raw log walk found none there");
          }
        }
      }
    }
  }
  if (divergent > 1) {
    Finding("page-index: " + std::to_string(divergent) +
            " divergent entr(ies) total (first reported above)");
  }
  std::printf(
      "fsck: page-index %zu chunk(s), %llu entr(ies) checked, %llu "
      "divergent\n",
      chunks.size(), static_cast<unsigned long long>(entries),
      static_cast<unsigned long long>(divergent));
}

void ScanData(std::string* data, size_t page_size, Lsn durable_end) {
  // Pad the trailing partial page with zeros, as DiskManager::ReadPage does.
  size_t npages = (data->size() + page_size - 1) / page_size;
  data->resize(npages * page_size, '\0');
  uint64_t corrupt = 0;
  for (size_t pid = 0; pid < npages; ++pid) {
    PageView v(data->data() + pid * page_size, page_size);
    if (v.type() == PageType::kInvalid) {
      if (std::string_view(data->data() + pid * page_size, page_size)
              .find_first_not_of('\0') != std::string_view::npos) {
        Finding("page " + std::to_string(pid) + " is unformatted but not blank");
        ++corrupt;
      }
      continue;
    }
    uint32_t crc = crc32c::Value(data->data() + pid * page_size + 4,
                                 page_size - 4);
    if (v.checksum() != crc32c::Mask(crc)) {
      Finding("page " + std::to_string(pid) + " (type " +
              std::to_string(static_cast<int>(v.type())) +
              ") fails its checksum");
      ++corrupt;
      continue;  // page_lsn is untrustworthy on a corrupt page
    }
    if (v.page_lsn() > durable_end) {
      Finding("page " + std::to_string(pid) + " carries page_lsn " +
              std::to_string(v.page_lsn()) +
              " beyond the durable end of the log " +
              std::to_string(durable_end) + " (WAL-rule violation)");
    }
  }
  std::printf("fsck: data.db %zu pages scanned, %llu corrupt\n", npages,
              static_cast<unsigned long long>(corrupt));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: fsck <db-dir> [page-size]\n");
    return 2;
  }
  const std::string dir = argv[1];
  size_t page_size = Options().page_size;
  if (argc == 3) page_size = std::stoul(argv[2]);
  if (page_size < 64) {
    std::fprintf(stderr, "fsck: implausible page size %zu\n", page_size);
    return 2;
  }

  std::string log;
  if (!ReadFile(dir + "/wal.log", &log)) {
    std::fprintf(stderr, "fsck: cannot read %s/wal.log\n", dir.c_str());
    return 2;
  }
  Lsn durable_end = ScanLog(log);
  CheckPageIndex(log, durable_end);

  std::string data;
  if (!ReadFile(dir + "/data.db", &data)) {
    std::fprintf(stderr, "fsck: cannot read %s/data.db\n", dir.c_str());
    return 2;
  }
  ScanData(&data, page_size, durable_end);

  if (findings == 0) {
    std::printf("fsck: clean\n");
    return 0;
  }
  std::printf("fsck: %d finding(s)\n", findings);
  return 1;
}
