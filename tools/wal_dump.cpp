// WAL dump utility: prints every log record, decoding btree/heap/meta ops.
//   wal_dump <db-dir> [page-id-filter]
//
// Read-only: it opens wal.log O_RDONLY and walks it with the engine's
// LogFileReader, as fsck does, never through LogManager, whose Open trims
// the tail it finds.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "btree/node.h"
#include "record/heap_page.h"
#include "recovery/page_index.h"
#include "util/coding.h"
#include "wal/log_record.h"

using namespace ariesim;

static const char* HeapOpName(uint8_t op) {
  static const char* kNames[] = {"?",      "insert",   "delete", "update",
                                 "format", "set_next", "unformat", "revive",
                                 "purge"};
  return op <= 8 ? kNames[op] : "??";
}

static const char* BtOpName(uint8_t op) {
  static const char* kNames[] = {"?",        "insert_key", "delete_key",
                                 "format",   "unformat",   "truncate",
                                 "restore",  "set_next",   "set_prev",
                                 "splice",   "unsplice",   "parent_rm",
                                 "parent_rs", "replace_all", "to_free",
                                 "from_free"};
  return op <= 15 ? kNames[op] : "??";
}

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: wal_dump <db-dir> [page-id]\n");
    return 1;
  }
  const std::string path = std::string(argv[1]) + "/wal.log";
  const int fd = ::open(path.c_str(), O_RDONLY);
  struct stat st;
  if (fd < 0 || ::fstat(fd, &st) != 0 || !LogFileReader::HasPrologue(fd)) {
    std::fprintf(stderr, "wal_dump: %s is missing or has a bad prologue\n",
                 path.c_str());
    return 1;
  }
  PageId filter = argc > 2 ? static_cast<PageId>(std::stoul(argv[2]))
                           : kInvalidPageId;
  // The CRC walk restart would make: it ends at the first record that does
  // not parse (a zero header or a torn tail).
  LogFileReader reader(fd, kLogFilePrologue);
  LogRecord rec;
  while (reader.Next(&rec).ok()) {
    // Page-index chunks carry no page_id of their own; with a filter active
    // they pass through and print only the filtered page's chain.
    if (filter != kInvalidPageId && rec.page_id != filter &&
        rec.type != LogType::kPageIndex) {
      continue;
    }
    std::string extra;
    if (rec.type == LogType::kPageIndex) {
      // Checkpoint page-index chunk: page -> LSN chain of redoable records
      // (what instant restart replays on the page's first fetch).
      PageLsnChains chains;
      if (PageLogIndex::ParseChunk(rec.payload, &chains).ok()) {
        size_t entries = 0;
        for (auto& [p, c] : chains) entries += c.size();
        extra = " pages=" + std::to_string(chains.size()) +
                " entries=" + std::to_string(entries) + " {";
        bool first_page = true;
        for (auto& [p, c] : chains) {
          if (filter != kInvalidPageId && p != filter) continue;
          if (!first_page) extra += ' ';
          first_page = false;
          extra += std::to_string(p) + ":[";
          for (size_t i = 0; i < c.size(); ++i) {
            if (i > 0) extra += ',';
            extra += std::to_string(c[i]);
          }
          extra += ']';
        }
        extra += "}";
      } else {
        extra = " <malformed page-index payload>";
      }
    } else if (rec.rm == RmId::kHeap) {
      extra = std::string(" heap:") + HeapOpName(rec.op);
      switch (rec.op) {
        case heap::kOpInsert:
        case heap::kOpDelete:
        case heap::kOpUpdate:
        case heap::kOpRevive:
        case heap::kOpPurge: {
          BufferReader r(rec.payload);
          extra += " slot=" + std::to_string(r.GetFixed16());
          break;
        }
        case heap::kOpSetNext: {
          BufferReader r(rec.payload);
          PageId old_next = r.GetFixed32();
          PageId new_next = r.GetFixed32();
          extra += " " + std::to_string(old_next) + "->" +
                   std::to_string(new_next);
          break;
        }
        default:
          break;
      }
    } else if (rec.rm == RmId::kBtree) {
      extra = std::string(" bt:") + BtOpName(rec.op);
      if (rec.op == bt::kOpInsertKey || rec.op == bt::kOpDeleteKey) {
        std::string_view value;
        Rid rid;
        bt::DecodeKeyOp(rec.payload, nullptr, &value, &rid, nullptr);
        extra += " key='" + std::string(value) + "' rid=" + rid.ToString();
      } else if (rec.op == bt::kOpFormat) {
        BufferReader r(rec.payload);
        (void)r.GetFixed32();
        uint8_t type = r.GetFixed8();
        uint8_t level = r.GetFixed8();
        (void)r.GetFixed8();
        PageId prev = r.GetFixed32();
        PageId next = r.GetFixed32();
        uint16_t n = r.GetFixed16();
        extra += " type=" + std::to_string(type) + " lvl=" +
                 std::to_string(level) + " prev=" + std::to_string(prev) +
                 " next=" + std::to_string(next) + " cells[";
        for (uint16_t i = 0; i < n; ++i) {
          std::string_view cell = r.GetLengthPrefixed();
          if (level == 0 && type == 3) {
            bt::LeafEntry e = bt::DecodeLeafCell(cell);
            extra += std::string(e.value) + ",";
          } else {
            bt::InternalEntry e = bt::DecodeInternalCell(cell);
            extra += (e.inf ? std::string("INF") : std::string(e.value)) +
                     "->" + std::to_string(e.child) + ",";
          }
        }
        extra += "]";
      } else if (rec.op == bt::kOpTruncate) {
        BufferReader r(rec.payload);
        (void)r.GetFixed32();
        uint16_t from = r.GetFixed16();
        PageId old_next = r.GetFixed32();
        PageId new_next = r.GetFixed32();
        bool replace_last = r.GetFixed8() != 0;
        (void)r.GetLengthPrefixed();
        std::string_view new_last = r.GetLengthPrefixed();
        uint16_t n = r.GetFixed16();
        extra += " from=" + std::to_string(from) +
                 " old_next=" + std::to_string(old_next) +
                 " new_next=" + std::to_string(new_next) + " removed=" +
                 std::to_string(n);
        if (replace_last) {
          bt::InternalEntry e = bt::DecodeInternalCell(new_last);
          extra += " new_last=" + (e.inf ? std::string("INF")
                                         : std::string(e.value)) +
                   "->" + std::to_string(e.child);
        }
        extra += " removed_cells[";
        for (uint16_t i = 0; i < n; ++i) {
          std::string_view cell = r.GetLengthPrefixed();
          // Heuristic: internal cells end with a child id; leaf cells do
          // not. Print leaf decode (value only) which is safe for both.
          bt::LeafEntry e = bt::DecodeLeafCell(cell);
          extra += std::string(e.value) + ",";
        }
        extra += "]";
      } else if (rec.op == bt::kOpParentSplice) {
        BufferReader r(rec.payload);
        (void)r.GetFixed32();
        uint16_t slot = r.GetFixed16();
        (void)r.GetLengthPrefixed();
        bt::InternalEntry ne = bt::DecodeInternalCell(r.GetLengthPrefixed());
        bt::InternalEntry ie = bt::DecodeInternalCell(r.GetLengthPrefixed());
        extra += " slot=" + std::to_string(slot) + " new=" +
                 (ne.inf ? "INF" : std::string(ne.value)) + "->" +
                 std::to_string(ne.child) + " ins=" +
                 (ie.inf ? "INF" : std::string(ie.value)) + "->" +
                 std::to_string(ie.child);
      }
    }
    std::printf("%s%s\n", rec.ToString().c_str(), extra.c_str());
  }
  // fsck tells preallocated zeros from a torn tail.
  const Lsn end = reader.position();
  std::printf("end of log at LSN %llu; %llu bytes past it left in place "
              "(preallocated zeros or a torn tail)\n",
              static_cast<unsigned long long>(end),
              static_cast<unsigned long long>(st.st_size) - end);
  ::close(fd);
  return 0;
}
