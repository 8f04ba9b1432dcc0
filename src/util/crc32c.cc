#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define TIEBREAK_CRC32C_SSE42 1
#endif

namespace tiebreak {

namespace {

// Reflected CRC32C polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

// 8 tables of 256 entries: table[0] is the classic byte-at-a-time table,
// table[k][b] is the CRC of byte b followed by k zero bytes. Built once at
// first use (function-local static, thread-safe since C++11).
struct Tables {
  uint32_t t[8][256];
  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

#ifdef TIEBREAK_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes exactly this CRC (Castagnoli,
// reflected), 8 bytes per instruction. Compiled for SSE4.2 regardless of
// the build flags; only called once the CPU is known to support it.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  uint64_t wide = c;
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    wide = _mm_crc32_u64(wide, chunk);
    p += 8;
    n -= 8;
  }
  c = static_cast<uint32_t>(wide);
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  return ~c;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

Crc32cFn PickCrc32c() {
#ifdef TIEBREAK_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

// Product of two polynomials modulo P, both in the reflected bit order the
// CRC uses (bit 31 is x^0). `a` must be nonzero — every x^k mod P is.
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t m = 1u << 31;
  uint32_t product = 0;
  for (;;) {
    if (a & m) {
      product ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// x^(2^k) mod P for every k X8nModP can ask for: 8n = 2^3 · n with n up
// to 64 bits, so k = 0..66. zlib keeps only 32 entries and wraps k, which
// is sound for the primitive CRC-32 polynomial (x^(2^32) ≡ x there) but
// not for CRC32C, whose polynomial has the factor x + 1.
struct PowerTable {
  static constexpr int kSize = 3 + 64;
  uint32_t x2n[kSize];
  PowerTable() {
    uint32_t p = 1u << 30;  // x^1
    x2n[0] = p;
    for (int k = 1; k < kSize; ++k) x2n[k] = p = MultModP(p, p);
  }
};

// x^(8n) mod P: the operator that shifts a CRC past n zero bytes.
uint32_t X8nModP(uint64_t n) {
  static const PowerTable table;
  uint32_t p = 1u << 31;  // x^0
  for (int k = 3; n != 0; n >>= 1, ++k) {
    if (n & 1) p = MultModP(table.x2n[k], p);
  }
  return p;
}

}  // namespace

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n) {
  const Tables& tables = GetTables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  // Byte-at-a-time until 8-byte aligned.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = (crc >> 8) ^ tables.t[0][(crc ^ *p++) & 0xFF];
    --n;
  }
  // Slice-by-8 over the aligned middle.
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk ^= crc;  // fold the running CRC into the low word
    crc = tables.t[7][chunk & 0xFF] ^ tables.t[6][(chunk >> 8) & 0xFF] ^
          tables.t[5][(chunk >> 16) & 0xFF] ^
          tables.t[4][(chunk >> 24) & 0xFF] ^
          tables.t[3][(chunk >> 32) & 0xFF] ^
          tables.t[2][(chunk >> 40) & 0xFF] ^
          tables.t[1][(chunk >> 48) & 0xFF] ^ tables.t[0][(chunk >> 56)];
    p += 8;
    n -= 8;
  }
  // Byte-at-a-time tail.
  while (n > 0) {
    crc = (crc >> 8) ^ tables.t[0][(crc ^ *p++) & 0xFF];
    --n;
  }
  return ~crc;
}

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  static const Crc32cFn impl = PickCrc32c();
  return impl(crc, data, n);
}

uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  // The pre/post inversions cancel: appending B shifts A's CRC past len_b
  // bytes and adds B's CRC, exactly as for zlib's crc32_combine.
  return MultModP(X8nModP(len_b), crc_a) ^ crc_b;
}

}  // namespace tiebreak
