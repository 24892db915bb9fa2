#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace ariesim {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vectors.
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8a9136aau);
  std::string ones(32, '\xff');
  EXPECT_EQ(crc32c::Value(ones.data(), ones.size()), 0x62a8ab43u);
  const char* digits = "123456789";
  EXPECT_EQ(crc32c::Value(digits, 9), 0xe3069283u);
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(crc32c::Value("hello", 5), crc32c::Value("hellp", 5));
  EXPECT_NE(crc32c::Value("hello", 5), crc32c::Value("hello", 4));
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = crc32c::Value("payload", 7);
  uint32_t masked = crc32c::Mask(crc);
  EXPECT_NE(masked, crc);
  EXPECT_EQ(crc32c::Unmask(masked), crc);
}

TEST(Crc32cTest, ExtendViaInit) {
  // Chaining through `init` continues the same polynomial division, so the
  // crc of "ab" extended by "cd" is the crc of "abcd".
  uint32_t a = crc32c::Value("ab", 2);
  EXPECT_EQ(crc32c::Value("cd", 2, a), crc32c::Value("abcd", 4));
  EXPECT_NE(crc32c::Value("cd", 2, a), crc32c::Value("cd", 2));
}

// On a CPU with SSE4.2, Value() is the hardware path; elsewhere both calls
// run the table loop.
TEST(Crc32cTest, HardwareMatchesTableOnRandomLengthsAndOffsets) {
  std::mt19937_64 rng(42);
  std::vector<char> buf(8192 + 8);
  for (char& c : buf) c = static_cast<char>(rng());
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t off = rng() % 8;
    const size_t len = rng() % 8193;
    const uint32_t init = (iter % 2 == 0) ? 0 : static_cast<uint32_t>(rng());
    ASSERT_EQ(crc32c::Value(buf.data() + off, len, init),
              crc32c::TableValue(buf.data() + off, len, init))
        << "offset " << off << " length " << len << " init " << init;
  }
}

// The hardware path runs inputs of 3 x 1360 bytes or more as three
// interleaved streams joined by zero-shift tables; check the lengths around
// each round boundary, a page body (4092), every alignment and a nonzero
// starting crc.
TEST(Crc32cTest, StripeBoundariesMatchTable) {
  constexpr size_t kRound = 3 * 1360;
  std::mt19937_64 rng(11);
  std::vector<char> buf(2 * kRound + 7 + 8);
  for (char& c : buf) c = static_cast<char>(rng());
  for (size_t len : {kRound - 1, kRound, kRound + 1, 2 * kRound + 7,
                     size_t{4092}}) {
    for (size_t off = 0; off < 8; ++off) {
      for (uint32_t init : {0u, 0x9e3779b9u}) {
        ASSERT_EQ(crc32c::Value(buf.data() + off, len, init),
                  crc32c::TableValue(buf.data() + off, len, init))
            << "offset " << off << " length " << len << " init " << init;
      }
    }
  }
}

TEST(Crc32cTest, ChainedSplitsMatchWholeBuffer) {
  std::mt19937_64 rng(7);
  std::vector<char> buf(8192);
  for (char& c : buf) c = static_cast<char>(rng());
  const uint32_t whole = crc32c::Value(buf.data(), buf.size());
  EXPECT_EQ(whole, crc32c::TableValue(buf.data(), buf.size()));
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<size_t> cuts = {0, buf.size()};
    for (int k = rng() % 6; k > 0; --k) cuts.push_back(rng() % buf.size());
    std::sort(cuts.begin(), cuts.end());
    uint32_t hw = 0, table = 0;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const size_t n = cuts[i + 1] - cuts[i];
      hw = crc32c::Value(buf.data() + cuts[i], n, hw);
      table = crc32c::TableValue(buf.data() + cuts[i], n, table);
    }
    ASSERT_EQ(hw, whole) << "iteration " << iter;
    ASSERT_EQ(table, whole) << "iteration " << iter;
  }
}

}  // namespace
}  // namespace ariesim
