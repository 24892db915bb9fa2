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
/// SSE4.2 `crc32`: eight bytes per instruction, then a byte tail, with the
/// same pre- and post-inversion as the table loop.
__attribute__((target("sse4.2"))) uint32_t HardwareValue(const char* data,
                                                         size_t n,
                                                         uint32_t init) {
  uint64_t c = ~init;
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
