// Offline consistency verifier:
//   fsck <db-dir> [page-size]
//
// Scans the closed database WITHOUT opening it through the engine —
// LogManager::Open truncates a torn log tail as a side effect, and a
// verifier must never modify what it verifies. Checks:
//   - wal.log: magic prologue, then one CRC walk of every record with the
//     engine's LogFileReader (opened O_RDONLY); reports the first bad LSN (a
//     torn tail) and the durable end of the log. An all-zero remainder is
//     the log's preallocated slack, not a finding;
//   - data.db: the buffer pool's strict load predicate on every page — a
//     typed page must carry a matching checksum, an untyped page must be
//     entirely zero;
//   - cross-check: no page may carry a page_LSN beyond the durable end of
//     the log (a WAL-rule violation: the page got to disk before its log);
//   - page-index cross-check: every per-page LSN chain entry persisted in a
//     checkpoint's kPageIndex chunks must reference a real redoable record
//     for that page in the same log walk — a divergent entry would make
//     instant restart replay garbage (or skip history) on first touch.
//
// Exit 0 when clean, 1 when findings were reported, 2 on usage/IO errors.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

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

/// What the one walk of wal.log collects for the page-index cross-check.
struct LogScan {
  Lsn durable_end = kLogFilePrologue;
  std::unordered_map<PageId, std::unordered_set<Lsn>> redoable;
  std::vector<LogRecord> chunks;  // kPageIndex records
};

/// Walk the log from the prologue with the engine's LogFileReader, so fsck
/// ends the log exactly where restart would. Past the durable end, an
/// all-zero remainder is the preallocated slack; anything else is torn.
LogScan ScanLog(int fd) {
  LogScan scan;
  struct stat st;
  const uint64_t size =
      ::fstat(fd, &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
  if (size < kLogFilePrologue) {
    Finding("wal.log shorter than its prologue (" + std::to_string(size) +
            " bytes)");
    return scan;
  }
  if (!LogFileReader::HasPrologue(fd)) {
    Finding("wal.log has a bad magic prologue");
    return scan;
  }
  LogFileReader reader(fd, kLogFilePrologue);
  LogRecord rec;
  uint64_t records = 0;
  for (; reader.Next(&rec).ok(); ++records) {
    if (rec.IsRedoable() && rec.page_id != kInvalidPageId) {
      scan.redoable[rec.page_id].insert(rec.lsn);
    } else if (rec.type == LogType::kPageIndex) {
      scan.chunks.push_back(rec);
    }
  }
  scan.durable_end = reader.position();
  std::string rest(size - scan.durable_end, '\0');
  size_t slack = 0;
  if (::pread(fd, rest.data(), rest.size(),
              static_cast<off_t>(scan.durable_end)) ==
          static_cast<ssize_t>(rest.size()) &&
      rest.find_first_not_of('\0') == std::string::npos) {
    slack = rest.size();  // zero-filled ahead of the append point
  } else {
    Finding("torn log tail: first bad LSN " + std::to_string(scan.durable_end) +
            " (" + std::to_string(rest.size()) +
            " trailing bytes fail the CRC walk; restart recovery would "
            "truncate here)");
  }
  std::printf(
      "fsck: wal.log %llu bytes, %llu records, durable end-of-log %llu, %zu "
      "bytes preallocated\n",
      static_cast<unsigned long long>(size),
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(scan.durable_end), slack);
  return scan;
}

/// Cross-check every persisted page-index chunk against the log walk: each
/// chain entry must name an LSN at which the log really holds a redoable
/// record for that page. The first divergence is reported in detail; the
/// rest are only counted.
void CheckPageIndex(const LogScan& scan) {
  uint64_t entries = 0;
  uint64_t divergent = 0;
  bool reported = false;
  for (const LogRecord& c : scan.chunks) {
    PageLsnChains chains;  // fresh per chunk: check each independently
    if (!PageLogIndex::ParseChunk(c.payload, &chains).ok()) {
      Finding("page-index chunk at LSN " + std::to_string(c.lsn) +
              " is malformed");
      continue;
    }
    for (const auto& [page, chain] : chains) {
      for (Lsn lsn : chain) {
        ++entries;
        auto it = scan.redoable.find(page);
        if (it == scan.redoable.end() || it->second.count(lsn) == 0) {
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
      scan.chunks.size(), static_cast<unsigned long long>(entries),
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

  const int log_fd = ::open((dir + "/wal.log").c_str(), O_RDONLY);
  if (log_fd < 0) {
    std::fprintf(stderr, "fsck: cannot read %s/wal.log\n", dir.c_str());
    return 2;
  }
  const LogScan scan = ScanLog(log_fd);
  ::close(log_fd);
  CheckPageIndex(scan);

  std::string data;
  if (!ReadFile(dir + "/data.db", &data)) {
    std::fprintf(stderr, "fsck: cannot read %s/data.db\n", dir.c_str());
    return 2;
  }
  ScanData(&data, page_size, scan.durable_end);

  if (findings == 0) {
    std::printf("fsck: clean\n");
    return 0;
  }
  std::printf("fsck: %d finding(s)\n", findings);
  return 1;
}
