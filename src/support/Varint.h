//===- Varint.h - LEB128 varint encoding ------------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unsigned LEB128: seven value bits per byte, low group first, high bit
/// set on every byte but the last. Profile counters are mostly small, so
/// the profile codec (ThreadProfile::encode/apply) spends one or two
/// bytes on most fields where fixed-width u64s would spend eight.
///
/// The reader is bounded and rejects what a writer never emits: a varint
/// longer than ten bytes, a tenth byte carrying more than the top bit of
/// a u64, and a value too wide for the field being read.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_SUPPORT_VARINT_H
#define DJX_SUPPORT_VARINT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace djx {

/// Longest encoding of a u64.
inline constexpr size_t kMaxVarintBytes = 10;

inline void putVarint(std::string &Out, uint64_t V) {
  char Buf[kMaxVarintBytes];
  size_t N = 0;
  while (V >= 0x80) {
    Buf[N++] = static_cast<char>((V & 0x7f) | 0x80);
    V >>= 7;
  }
  Buf[N++] = static_cast<char>(V);
  Out.append(Buf, N);
}

/// Length-prefixed byte string.
inline void putBytes(std::string &Out, std::string_view S) {
  putVarint(Out, S.size());
  Out.append(S.data(), S.size());
}

/// Bounded cursor over an encoded buffer. Every read checks the bytes
/// left; a failed read returns false and leaves the output unspecified.
class VarintReader {
public:
  explicit VarintReader(std::string_view Bytes) : Rest(Bytes) {}

  bool u64(uint64_t &V) {
    V = 0;
    for (size_t I = 0; I < kMaxVarintBytes && I < Rest.size(); ++I) {
      uint64_t B = static_cast<uint8_t>(Rest[I]);
      if (I == kMaxVarintBytes - 1 && B > 1)
        return false; // Bits past the 64th.
      V |= (B & 0x7f) << (7 * I);
      if (!(B & 0x80)) {
        Rest.remove_prefix(I + 1);
        return true;
      }
    }
    return false; // Truncated, or longer than kMaxVarintBytes.
  }

  bool u32(uint32_t &V) {
    uint64_t W;
    if (!u64(W) || W > UINT32_MAX)
      return false;
    V = static_cast<uint32_t>(W);
    return true;
  }

  /// A length-prefixed byte string, as putBytes wrote it.
  bool bytes(std::string_view &S) {
    uint64_t Len;
    if (!u64(Len) || Len > Rest.size())
      return false;
    S = Rest.substr(0, static_cast<size_t>(Len));
    Rest.remove_prefix(static_cast<size_t>(Len));
    return true;
  }

  bool atEnd() const { return Rest.empty(); }

private:
  std::string_view Rest;
};

} // namespace djx

#endif // DJX_SUPPORT_VARINT_H
