//===- Cache.cpp - Set-associative cache model ----------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"

#include "support/Bits.h"
#include "support/VmError.h"

#include <algorithm>
#include <string>

using namespace djx;

Cache::Cache(const CacheConfig &Cfg) : Config(Cfg) {
  // Checked in every build mode: a bad geometry would silently alias sets.
  auto Reject = [&Cfg](const char *Why) {
    throw VmError(VmErrorKind::Internal,
                  "invalid cache geometry (" + std::to_string(Cfg.SizeBytes) +
                      " B, " + std::to_string(Cfg.LineBytes) + " B lines, " +
                      std::to_string(Cfg.Ways) + " ways): " + Why);
  };
  if (!isPowerOfTwo(Cfg.LineBytes) || Cfg.LineBytes < 2)
    Reject("line size must be a power of two of at least 2 bytes");
  uint64_t NumSets = Cfg.numSets();
  if (!isPowerOfTwo(NumSets))
    Reject("set count must be a non-zero power of two");
  LineShift = floorLog2(Config.LineBytes);
  SetMask = NumSets - 1;
}

bool Cache::accessSet(uint64_t LA) {
  if (Tags.empty())
    Tags.assign((SetMask + 1) * Config.Ways, kEmpty);
  LastLineAddr = LA;
  // One pass inserts the line at the front and shifts each way back one
  // rank until it reaches the line's old way (a hit) or falls off the
  // tail (a miss). Empty ways sit at the tail, so a miss drops an empty
  // way while the set has one, and the LRU line once it is full.
  uint64_t *Set = Tags.data() + setBase(LA);
  uint64_t Carry = LA;
  for (uint32_t W = 0; W < Config.Ways; ++W) {
    uint64_t Cur = Set[W];
    Set[W] = Carry;
    if (Cur == LA) {
      ++Hits;
      return true;
    }
    Carry = Cur;
  }
  ++Misses;
  Evictions += Carry != kEmpty;
  return false;
}

bool Cache::contains(uint64_t Addr) const {
  if (Tags.empty())
    return false;
  uint64_t LA = lineAddr(Addr);
  const uint64_t *Set = Tags.data() + setBase(LA);
  return std::find(Set, Set + Config.Ways, LA) != Set + Config.Ways;
}

void Cache::invalidate(uint64_t Addr) {
  if (Tags.empty())
    return;
  uint64_t LA = lineAddr(Addr);
  if (LA == LastLineAddr)
    LastLineAddr = kEmpty;
  uint64_t *Set = Tags.data() + setBase(LA);
  uint64_t *End = Set + Config.Ways;
  uint64_t *Way = std::find(Set, End, LA);
  if (Way == End)
    return;
  // Close the gap; the freed way joins the empty tail.
  std::copy(Way + 1, End, Way);
  End[-1] = kEmpty;
}

void Cache::flush() {
  std::fill(Tags.begin(), Tags.end(), kEmpty);
  LastLineAddr = kEmpty;
}
