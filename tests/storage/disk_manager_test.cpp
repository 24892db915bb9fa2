#include "storage/disk_manager.h"

#include <gtest/gtest.h>

#include <dirent.h>

#include <cstring>
#include <functional>
#include <thread>

#include "test_util.h"

namespace ariesim {
namespace {

using testing::TempDir;

TEST(DiskManagerTest, WriteReadRoundTrip) {
  TempDir dir("disk_rw");
  Metrics m;
  DiskManager dm(dir.path() + "/data.db", 512, &m);
  ASSERT_OK(dm.Open());
  std::string page(512, 'p');
  ASSERT_OK(dm.WritePage(3, page.data()));
  std::string read(512, '\0');
  ASSERT_OK(dm.ReadPage(3, read.data()));
  EXPECT_EQ(read, page);
  EXPECT_EQ(dm.PagesOnDisk(), 4u);  // pages 0..3 materialized
}

TEST(DiskManagerTest, BeyondEofReadsZeroFilled) {
  TempDir dir("disk_eof");
  Metrics m;
  DiskManager dm(dir.path() + "/data.db", 512, &m);
  ASSERT_OK(dm.Open());
  std::string read(512, 'q');
  ASSERT_OK(dm.ReadPage(100, read.data()));
  EXPECT_EQ(read, std::string(512, '\0'));
}

TEST(DiskManagerTest, SparseHoleReadsZeroFilled) {
  TempDir dir("disk_hole");
  Metrics m;
  DiskManager dm(dir.path() + "/data.db", 512, &m);
  ASSERT_OK(dm.Open());
  std::string page(512, 'z');
  ASSERT_OK(dm.WritePage(5, page.data()));
  std::string read(512, 'q');
  ASSERT_OK(dm.ReadPage(2, read.data()));  // hole before page 5
  EXPECT_EQ(read, std::string(512, '\0'));
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  TempDir dir("disk_reopen");
  Metrics m;
  std::string path = dir.path() + "/data.db";
  {
    DiskManager dm(path, 256, &m);
    ASSERT_OK(dm.Open());
    std::string page(256, 'k');
    ASSERT_OK(dm.WritePage(1, page.data()));
    ASSERT_OK(dm.Sync());
  }
  {
    DiskManager dm(path, 256, &m);
    ASSERT_OK(dm.Open());
    std::string read(256, '\0');
    ASSERT_OK(dm.ReadPage(1, read.data()));
    EXPECT_EQ(read, std::string(256, 'k'));
  }
}

TEST(DiskManagerTest, MetricsCountIo) {
  TempDir dir("disk_metrics");
  Metrics m;
  DiskManager dm(dir.path() + "/data.db", 512, &m);
  ASSERT_OK(dm.Open());
  std::string page(512, 'a');
  ASSERT_OK(dm.WritePage(0, page.data()));
  ASSERT_OK(dm.WritePage(1, page.data()));
  ASSERT_OK(dm.ReadPage(0, page.data()));
  EXPECT_EQ(m.pages_written.load(), 2u);
  EXPECT_EQ(m.pages_read.load(), 1u);
}

// ReadPage goes through one of a fixed set of read-only descriptors, picked
// by the calling thread. Threads started one after another take consecutive
// picks, so 32 of them cover every descriptor (there are at most 16).
void OnEveryReadDescriptor(const std::function<void()>& body) {
  for (int i = 0; i < 32; ++i) std::thread(body).join();
}

TEST(DiskManagerTest, EveryReadDescriptorSeesWritesAtOnce) {
  TempDir dir("disk_readers");
  Metrics m;
  DiskManager dm(dir.path() + "/data.db", 512, &m);
  ASSERT_OK(dm.Open());
  // Each round overwrites page 0 and grows the file by writing further out.
  for (PageId last : {0u, 3u, 40u}) {
    const char fill = static_cast<char>('a' + last % 26);
    std::string page(512, fill);
    ASSERT_OK(dm.WritePage(0, page.data()));
    ASSERT_OK(dm.WritePage(last, page.data()));
    OnEveryReadDescriptor([&] {
      std::string read(512, '\0');
      ASSERT_OK(dm.ReadPage(0, read.data()));
      EXPECT_EQ(read, page);
      ASSERT_OK(dm.ReadPage(last, read.data()));
      EXPECT_EQ(read, page);
      ASSERT_OK(dm.ReadPage(last + 1, read.data()));  // past EOF
      EXPECT_EQ(read, std::string(512, '\0'));
    });
  }
}

TEST(DiskManagerTest, DataReadFaultFiresOnEveryReadDescriptor) {
  TempDir dir("disk_read_fault");
  Metrics m;
  FaultInjector fault;
  DiskManager dm(dir.path() + "/data.db", 512, &m);
  ASSERT_OK(dm.Open());
  dm.SetFaultInjector(&fault);
  std::string page(512, 'f');
  ASSERT_OK(dm.WritePage(2, page.data()));
  FaultSpec spec;
  spec.kind = FaultKind::kPersistentError;
  spec.site = FaultSite::kDataRead;
  spec.page_id = 2;
  fault.Arm(spec);
  OnEveryReadDescriptor([&] {
    std::string read(512, '\0');
    EXPECT_EQ(dm.ReadPage(2, read.data()).code(), Code::kIOError);
    ASSERT_OK(dm.ReadPage(1, read.data()));  // other pages still read
  });
  fault.Disarm();
  std::string read(512, '\0');
  ASSERT_OK(dm.ReadPage(2, read.data()));
  EXPECT_EQ(read, page);
}

size_t OpenDescriptors() {
  size_t n = 0;
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (readdir(d) != nullptr) ++n;
  closedir(d);
  return n;
}

TEST(DiskManagerTest, CloseReleasesEveryDescriptor) {
  TempDir dir("disk_fds");
  Metrics m;
  const size_t before = OpenDescriptors();
  ASSERT_GT(before, 0u);
  {
    DiskManager dm(dir.path() + "/data.db", 512, &m);
    ASSERT_OK(dm.Open());
    EXPECT_GE(OpenDescriptors(), before + 2);  // the writer and >= 1 reader
    dm.Close();
    EXPECT_EQ(OpenDescriptors(), before);
    std::string read(512, '\0');  // closed: an I/O error, not a crash
    EXPECT_EQ(dm.ReadPage(0, read.data()).code(), Code::kIOError);
    ASSERT_OK(dm.Open());  // reopen, then the destructor closes
  }
  EXPECT_EQ(OpenDescriptors(), before);
}

}  // namespace
}  // namespace ariesim
