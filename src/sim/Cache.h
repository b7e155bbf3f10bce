//===- Cache.h - Set-associative cache model --------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-associative, LRU-replacement cache model. Instances are composed by
/// MemoryHierarchy into the private-L1 / private-L2 / shared-L3 structure of
/// the paper's evaluation machine (Xeon E5-2650 v4: 32 KiB L1, 256 KiB L2,
/// 30 MiB shared L3, 64 B lines), and a one-set Cache is the data TLB.
///
/// Hot-path design: a set is Ways line addresses, 8 B each, kept in
/// MRU→LRU order with empty ways (~0) at the tail, so an 8-way set is one
/// 64-byte host line and every operation is one scan. A hit rotates the
/// line to the front; a miss drops the tail (an eviction only if it was
/// valid) and inserts at the front; invalidate closes the gap. Rank order
/// holds exactly the lines a timestamped true-LRU cache holds, so hit,
/// miss and eviction counts are those of true LRU. Line and set indexing
/// are precomputed shift/mask operations, and an MRU memo answers a repeat
/// access to the line touched last without scanning. The tag array is
/// allocated on the first access: until then the cache is empty at no
/// memory cost, and flush() is free.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_SIM_CACHE_H
#define DJX_SIM_CACHE_H

#include <cstdint>
#include <vector>

namespace djx {

/// Geometry of one cache level.
struct CacheConfig {
  uint64_t SizeBytes = 32 * 1024;
  uint32_t LineBytes = 64;
  uint32_t Ways = 8;

  uint64_t numSets() const {
    uint64_t SetBytes = static_cast<uint64_t>(LineBytes) * Ways;
    return SetBytes ? SizeBytes / SetBytes : 0;
  }
};

/// One set-associative cache with true-LRU replacement.
class Cache {
public:
  /// \throws VmError(Internal) unless the line size is a power of two of at
  /// least 2 bytes and the set count is a non-zero power of two.
  explicit Cache(const CacheConfig &Config);

  /// Looks up \p Addr; on miss, fills the line (evicting LRU).
  /// \returns true on hit.
  bool access(uint64_t Addr) {
    uint64_t LA = lineAddr(Addr);
    // MRU fast path: repeated access to the line touched last (sequential
    // sweeps hit the same line LineBytes/stride times in a row). It is
    // already at the front of its set.
    if (LA == LastLineAddr) {
      ++Hits;
      return true;
    }
    return accessSet(LA);
  }

  /// Probes without filling. \returns true when the line is resident.
  bool contains(uint64_t Addr) const;

  /// Invalidates the line holding \p Addr, if resident.
  void invalidate(uint64_t Addr);

  /// Drops all contents (e.g. between benchmark repetitions).
  void flush();

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t evictions() const { return Evictions; }
  const CacheConfig &config() const { return Config; }
  /// Bytes of tag storage allocated: 0 until the first access().
  uint64_t memoryFootprint() const { return Tags.size() * sizeof(uint64_t); }

private:
  /// Tag of an empty way. Line addresses never reach it: lines are at
  /// least 2 bytes, so a line address is below 2^63.
  static constexpr uint64_t kEmpty = ~0ULL;

  uint64_t lineAddr(uint64_t Addr) const { return Addr >> LineShift; }
  /// access() past the MRU memo: the set scan, fill and rank update.
  bool accessSet(uint64_t LineAddr);
  /// Index in Tags of the first way of \p LineAddr's set.
  uint64_t setBase(uint64_t LineAddr) const {
    return (LineAddr & SetMask) * Config.Ways;
  }

  CacheConfig Config;
  uint32_t LineShift = 0; ///< log2(LineBytes).
  uint64_t SetMask = 0;   ///< NumSets - 1 (sets are a power of two).
  /// NumSets * Ways line addresses, row-major by set, each set in MRU→LRU
  /// order with kEmpty ways last. Empty until the first access().
  std::vector<uint64_t> Tags;
  /// MRU memo: the line hit or filled by the last access, which is at the
  /// front of its set.
  uint64_t LastLineAddr = kEmpty;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
};

} // namespace djx

#endif // DJX_SIM_CACHE_H
