// CRC32C (Castagnoli), used for per-page and per-log-record checksums so
// recovery can detect the torn tail of the log and page corruption. On
// x86-64 CPUs with SSE4.2, Value() runs the `crc32` instruction eight bytes
// at a time (chosen once, at the first call), in three interleaved streams
// over each 4,080-byte round of a longer input; elsewhere it falls back to a
// byte-at-a-time table loop. Both give identical results.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ariesim {
namespace crc32c {

/// Compute CRC32C of data[0..n), extending `init` (pass 0 for a fresh crc):
/// Value(b, nb, Value(a, na)) equals the crc of a followed by b.
uint32_t Value(const char* data, size_t n, uint32_t init = 0);

/// The portable table loop Value() falls back to. Exposed so tests can
/// check it against the hardware path.
uint32_t TableValue(const char* data, size_t n, uint32_t init = 0);

/// Masked crc (RocksDB-style) so that a crc stored alongside the data it
/// covers does not produce degenerate self-checksums.
inline uint32_t Mask(uint32_t crc) { return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul; }
inline uint32_t Unmask(uint32_t m) {
  uint32_t rot = m - 0xa282ead8ul;
  return (rot << 15) | (rot >> 17);
}

}  // namespace crc32c
}  // namespace ariesim
