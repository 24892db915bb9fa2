#include "util/crc32c.h"

#include <array>
#include <cstring>

namespace ariesim {
namespace crc32c {

namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli polynomial

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[i] = c;
  }
  return t;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if defined(__x86_64__)
/// Three-stream rounds: each stream covers kStripe bytes, so one round
/// (kRound = 4080) takes a 4,092-byte page body; `crc32` has a latency of
/// three cycles but issues every cycle, so three streams keep it busy.
constexpr size_t kStripe = 1360;
constexpr size_t kRound = 3 * kStripe;

/// Applies "append `zeros` zero bytes" to a raw (uninverted) crc state:
/// a linear map, so a 4x256 table per byte lane is exact.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

ShiftTable MakeShiftTable(size_t zeros) {
  const auto& t = Table();
  uint32_t basis[32];
  for (int bit = 0; bit < 32; ++bit) {
    uint32_t c = uint32_t{1} << bit;
    for (size_t i = 0; i < zeros; ++i) c = t[c & 0xFF] ^ (c >> 8);
    basis[bit] = c;
  }
  ShiftTable shift{};
  for (int lane = 0; lane < 4; ++lane) {
    for (uint32_t b = 0; b < 256; ++b) {
      for (int k = 0; k < 8; ++k) {
        if (b & (1u << k)) shift[lane][b] ^= basis[8 * lane + k];
      }
    }
  }
  return shift;
}

uint32_t Shift(const ShiftTable& s, uint32_t c) {
  return s[0][c & 0xFF] ^ s[1][(c >> 8) & 0xFF] ^ s[2][(c >> 16) & 0xFF] ^
         s[3][c >> 24];
}

/// SSE4.2 `crc32`: three interleaved streams per kRound bytes, joined by
/// shifting the first two past the ones after them; then eight bytes per
/// instruction and a byte tail. Same pre- and post-inversion as the table
/// loop.
__attribute__((target("sse4.2"))) uint32_t HardwareValue(const char* data,
                                                         size_t n,
                                                         uint32_t init) {
  uint64_t c = ~init;
  if (n >= kRound) {
    static const ShiftTable shift1 = MakeShiftTable(kStripe);
    static const ShiftTable shift2 = MakeShiftTable(2 * kStripe);
    for (; n >= kRound; n -= kRound, data += kRound) {
      uint64_t b = 0, d = 0;
      for (size_t i = 0; i < kStripe; i += 8) {
        uint64_t w0, w1, w2;
        std::memcpy(&w0, data + i, 8);
        std::memcpy(&w1, data + kStripe + i, 8);
        std::memcpy(&w2, data + 2 * kStripe + i, 8);
        c = __builtin_ia32_crc32di(c, w0);
        b = __builtin_ia32_crc32di(b, w1);
        d = __builtin_ia32_crc32di(d, w2);
      }
      c = Shift(shift2, static_cast<uint32_t>(c)) ^
          Shift(shift1, static_cast<uint32_t>(b)) ^ static_cast<uint32_t>(d);
    }
  }
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));  // unaligned-safe load
    c = __builtin_ia32_crc32di(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++data) {
    c32 = __builtin_ia32_crc32qi(c32, static_cast<uint8_t>(*data));
  }
  return ~c32;
}
#endif

}  // namespace

uint32_t TableValue(const char* data, size_t n, uint32_t init) {
  const auto& t = Table();
  uint32_t c = ~init;
  for (size_t i = 0; i < n; ++i) {
    c = t[(c ^ static_cast<uint8_t>(data[i])) & 0xFF] ^ (c >> 8);
  }
  return ~c;
}

uint32_t Value(const char* data, size_t n, uint32_t init) {
#if defined(__x86_64__)
  static const bool sse42 = __builtin_cpu_supports("sse4.2");
  if (sse42) return HardwareValue(data, n, init);
#endif
  return TableValue(data, n, init);
}

}  // namespace crc32c
}  // namespace ariesim
