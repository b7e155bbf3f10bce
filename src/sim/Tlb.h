//===- Tlb.h - Data TLB model -----------------------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fully-associative data TLB with LRU replacement. DTLB_LOAD_MISSES is one
/// of the precise events DJXPerf can sample (§4.1).
///
/// The TLB is a one-set, Entries-way Cache whose lines are pages, so it
/// shares the cache's rank-ordered tag set, MRU memo (a 4 KiB page covers
/// 512 word accesses, so sequential sweeps almost never scan) and
/// allocation on first use.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_SIM_TLB_H
#define DJX_SIM_TLB_H

#include "sim/Cache.h"

#include <cstdint>

namespace djx {

/// Geometry of the data TLB.
struct TlbConfig {
  uint32_t Entries = 64;
  uint32_t PageBytes = 4096;
};

/// Fully-associative LRU TLB.
class Tlb {
public:
  /// \throws VmError(Internal) for zero entries or a page size that is not
  /// a power of two.
  explicit Tlb(const TlbConfig &Cfg)
      : Config(Cfg),
        Pages(CacheConfig{static_cast<uint64_t>(Cfg.Entries) * Cfg.PageBytes,
                          Cfg.PageBytes, Cfg.Entries}) {}

  /// Translates \p Addr; fills on miss. \returns true on hit.
  bool access(uint64_t Addr) { return Pages.access(Addr); }

  void flush() { Pages.flush(); }

  uint64_t hits() const { return Pages.hits(); }
  uint64_t misses() const { return Pages.misses(); }
  const TlbConfig &config() const { return Config; }
  /// Bytes of entry storage allocated: 0 until the first access().
  uint64_t memoryFootprint() const { return Pages.memoryFootprint(); }

private:
  TlbConfig Config;
  Cache Pages; ///< One set of Entries ways, one page per line.
};

} // namespace djx

#endif // DJX_SIM_TLB_H
