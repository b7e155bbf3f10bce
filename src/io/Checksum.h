//===- io/Checksum.h - CRC32C for journal segments --------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Software CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the
/// checksum guarding every profile-journal segment. Slicing-by-8: eight
/// 256-entry tables fold eight input bytes per step, with a byte-wise
/// loop for the head and tail. Portable C++ with no ISA-specific path,
/// so the recovery path works in any build; input words are assembled
/// byte by byte, so the result does not depend on host endianness or
/// alignment.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_IO_CHECKSUM_H
#define DJX_IO_CHECKSUM_H

#include <cstddef>
#include <cstdint>

namespace djx {

class Crc32c {
public:
  /// CRC32C of \p Len bytes at \p Data. \p Seed chains computations:
  /// compute(B, n, compute(A, m)) == compute(AB, m + n).
  static uint32_t compute(const void *Data, size_t Len, uint32_t Seed = 0) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    const Tables &T = tables();
    uint32_t Crc = ~Seed;
    for (; Len >= 8; P += 8, Len -= 8) {
      uint32_t Lo = Crc ^ (static_cast<uint32_t>(P[0]) |
                           static_cast<uint32_t>(P[1]) << 8 |
                           static_cast<uint32_t>(P[2]) << 16 |
                           static_cast<uint32_t>(P[3]) << 24);
      Crc = T.T[7][Lo & 0xff] ^ T.T[6][(Lo >> 8) & 0xff] ^
            T.T[5][(Lo >> 16) & 0xff] ^ T.T[4][Lo >> 24] ^ T.T[3][P[4]] ^
            T.T[2][P[5]] ^ T.T[1][P[6]] ^ T.T[0][P[7]];
    }
    for (; Len > 0; ++P, --Len)
      Crc = T.T[0][(Crc ^ *P) & 0xffu] ^ (Crc >> 8);
    return ~Crc;
  }

private:
  /// T[0] is the byte-at-a-time table; T[K][B] is the CRC of byte B
  /// followed by K zero bytes.
  struct Tables {
    uint32_t T[8][256];
    Tables() {
      for (uint32_t I = 0; I < 256; ++I) {
        uint32_t C = I;
        for (int K = 0; K < 8; ++K)
          C = (C & 1) ? (0x82f63b78u ^ (C >> 1)) : (C >> 1);
        T[0][I] = C;
      }
      for (int K = 1; K < 8; ++K)
        for (uint32_t I = 0; I < 256; ++I)
          T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xff];
    }
  };

  static const Tables &tables() {
    static const Tables T;
    return T;
  }
};

} // namespace djx

#endif // DJX_IO_CHECKSUM_H
