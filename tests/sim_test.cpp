//===- sim_test.cpp - Unit tests for src/sim --------------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"
#include "sim/MemoryHierarchy.h"
#include "sim/NumaTopology.h"
#include "sim/Tlb.h"
#include "support/Bits.h"
#include "support/Random.h"
#include "support/VmError.h"

#include <gtest/gtest.h>

#include <vector>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(sim_test, 97.0, 71.0,
    "src/sim/Cache.cpp",
    "src/sim/Cache.h",
    "src/sim/MemoryHierarchy.cpp",
    "src/sim/MemoryHierarchy.h",
    "src/sim/Tlb.h");

// --- Cache -------------------------------------------------------------------

TEST(Cache, MissThenHit) {
  Cache C(CacheConfig{1024, 64, 2});
  EXPECT_FALSE(C.access(0));
  EXPECT_TRUE(C.access(0));
  EXPECT_TRUE(C.access(63)); // Same line.
  EXPECT_FALSE(C.access(64)); // Next line.
  EXPECT_EQ(C.hits(), 2u);
  EXPECT_EQ(C.misses(), 2u);
}

TEST(Cache, LruEvictionWithinSet) {
  // 2-way, 8 sets (1024/64/2). Lines 0, 8, 16 map to set 0.
  Cache C(CacheConfig{1024, 64, 2});
  uint64_t A = 0, B = 8 * 64, D = 16 * 64;
  C.access(A);
  C.access(B);
  C.access(A);    // A is MRU.
  C.access(D);    // Evicts B (LRU).
  EXPECT_TRUE(C.access(A));
  EXPECT_FALSE(C.access(B));
  EXPECT_EQ(C.evictions(), 2u); // D evicted B; B refill evicted someone.
}

TEST(Cache, AssociativityHoldsConflictingLines) {
  Cache C(CacheConfig{4096, 64, 4}); // 16 sets, 4 ways.
  // Four lines in the same set must all be resident.
  for (int I = 0; I < 4; ++I)
    C.access(static_cast<uint64_t>(I) * 16 * 64);
  for (int I = 0; I < 4; ++I)
    EXPECT_TRUE(C.contains(static_cast<uint64_t>(I) * 16 * 64));
}

TEST(Cache, InvalidateAndFlush) {
  Cache C(CacheConfig{1024, 64, 2});
  C.access(0);
  C.access(128);
  C.invalidate(0);
  EXPECT_FALSE(C.contains(0));
  EXPECT_TRUE(C.contains(128));
  C.flush();
  EXPECT_FALSE(C.contains(128));
}

TEST(Cache, SequentialWalkMissesOncePerLine) {
  Cache C(CacheConfig{32 * 1024, 64, 8});
  for (uint64_t Addr = 0; Addr < 16 * 1024; Addr += 8)
    C.access(Addr);
  EXPECT_EQ(C.misses(), 16 * 1024 / 64);
}

/// Capacity property across configurations: touching exactly as many
/// distinct lines as the cache holds keeps all of them resident.
class CacheCapacityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheCapacityTest, WorkingSetAtCapacityStaysResident) {
  auto [SizeKb, Ways] = GetParam();
  CacheConfig Cfg{static_cast<uint64_t>(SizeKb) * 1024, 64,
                  static_cast<uint32_t>(Ways)};
  Cache C(Cfg);
  uint64_t Lines = Cfg.SizeBytes / Cfg.LineBytes;
  for (uint64_t I = 0; I < Lines; ++I)
    C.access(I * 64);
  for (uint64_t I = 0; I < Lines; ++I)
    EXPECT_TRUE(C.contains(I * 64)) << "line " << I;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CacheCapacityTest,
                         ::testing::Combine(::testing::Values(4, 32, 256),
                                            ::testing::Values(1, 2, 8)));

/// Reference true-LRU cache: every line carries a last-use timestamp and a
/// miss scans the set for an invalid way or the least-recently-used one.
/// This is the model Cache used to implement directly; the rank-ordered
/// Cache must agree with it on every return value and counter.
class LruOracle {
public:
  explicit LruOracle(const CacheConfig &Cfg)
      : Cfg(Cfg), NumSets(Cfg.numSets()), LineShift(floorLog2(Cfg.LineBytes)),
        Lines(NumSets * Cfg.Ways) {}

  bool access(uint64_t Addr) {
    uint64_t LA = Addr >> LineShift;
    ++Clock;
    if (Line *Hit = findWay(LA)) {
      Hit->LastUse = Clock;
      ++Hits;
      return true;
    }
    Line *Base = &Lines[(LA % NumSets) * Cfg.Ways];
    Line *Victim = nullptr;
    for (uint32_t W = 0; W < Cfg.Ways; ++W) {
      Line &Way = Base[W];
      if (!Victim || !Way.Valid ||
          (Victim->Valid && Way.LastUse < Victim->LastUse))
        Victim = &Way;
    }
    ++Misses;
    if (Victim->Valid)
      ++Evictions;
    *Victim = Line{LA, Clock, true};
    return false;
  }
  bool contains(uint64_t Addr) { return findWay(Addr >> LineShift); }
  void invalidate(uint64_t Addr) {
    if (Line *Way = findWay(Addr >> LineShift))
      Way->Valid = false;
  }
  void flush() {
    for (Line &L : Lines)
      L.Valid = false;
  }

  uint64_t Hits = 0, Misses = 0, Evictions = 0;

private:
  struct Line {
    uint64_t Tag = 0;
    uint64_t LastUse = 0;
    bool Valid = false;
  };
  Line *findWay(uint64_t LA) {
    Line *Base = &Lines[(LA % NumSets) * Cfg.Ways];
    for (uint32_t W = 0; W < Cfg.Ways; ++W)
      if (Base[W].Valid && Base[W].Tag == LA)
        return &Base[W];
    return nullptr;
  }

  CacheConfig Cfg;
  uint64_t NumSets;
  uint32_t LineShift;
  std::vector<Line> Lines;
  uint64_t Clock = 0;
};

/// Differential test: seeded random streams of access/contains/invalidate/
/// flush over a line pool four times the cache's capacity, with repeats of
/// the previous address (the MRU memo) and of recent lines (hits deep in a
/// set), compared op by op against LruOracle.
class CacheOracleTest : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(CacheOracleTest, MatchesTimestampLruOnRandomStreams) {
  const CacheConfig Cfg = GetParam();
  const uint64_t PoolLines = 4 * Cfg.SizeBytes / Cfg.LineBytes;
  for (uint64_t Seed : {1, 2, 3}) {
    Cache C(Cfg);
    LruOracle Ref(Cfg);
    Random Rng(Seed);
    std::vector<uint64_t> Recent(8, 0);
    uint64_t Prev = 0;
    for (int Op = 0; Op < 20000; ++Op) {
      uint64_t Addr;
      double Pick = Rng.nextDouble();
      if (Pick < 0.2)
        Addr = Prev;
      else if (Pick < 0.5)
        Addr = Recent[Rng.nextBelow(Recent.size())];
      else
        Addr = Rng.nextBelow(PoolLines) * Cfg.LineBytes;
      Addr += Rng.nextBelow(Cfg.LineBytes);
      Prev = Addr;
      Recent[Op % Recent.size()] = Addr;

      double Kind = Rng.nextDouble();
      if (Kind < 0.75) {
        ASSERT_EQ(C.access(Addr), Ref.access(Addr))
            << "seed " << Seed << " op " << Op;
      } else if (Kind < 0.87) {
        ASSERT_EQ(C.contains(Addr), Ref.contains(Addr))
            << "seed " << Seed << " op " << Op;
      } else if (Kind < 0.997) {
        C.invalidate(Addr);
        Ref.invalidate(Addr);
      } else {
        C.flush();
        Ref.flush();
      }
      ASSERT_EQ(C.hits(), Ref.Hits) << "seed " << Seed << " op " << Op;
      ASSERT_EQ(C.misses(), Ref.Misses) << "seed " << Seed << " op " << Op;
      ASSERT_EQ(C.evictions(), Ref.Evictions)
          << "seed " << Seed << " op " << Op;
    }
    // The stream must have exercised every outcome.
    EXPECT_GT(C.hits(), 0u);
    EXPECT_GT(C.evictions(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracleTest,
    ::testing::Values(CacheConfig{1024, 64, 1},          // Direct-mapped.
                      CacheConfig{1024, 64, 2},          // 2-way, 8 sets.
                      CacheConfig{32 * 1024, 64, 8},     // L1 shape.
                      CacheConfig{16 * 1024, 64, 16},    // L3 ways.
                      CacheConfig{64 * 4096, 4096, 64}), // TLB shape.
    [](const ::testing::TestParamInfo<CacheConfig> &Info) {
      return std::to_string(Info.param.numSets()) + "sets_" +
             std::to_string(Info.param.Ways) + "ways";
    });

TEST(Cache, UntouchedCacheAllocatesNothingAndIsEmpty) {
  Cache C(CacheConfig{32 * 1024, 64, 8});
  EXPECT_EQ(C.memoryFootprint(), 0u);
  EXPECT_FALSE(C.contains(0));
  C.invalidate(0);
  C.flush();
  EXPECT_EQ(C.memoryFootprint(), 0u);
  EXPECT_EQ(C.hits() + C.misses() + C.evictions(), 0u);
  EXPECT_FALSE(C.access(0));
  EXPECT_EQ(C.memoryFootprint(), 32u * 1024 / 64 * sizeof(uint64_t));
  EXPECT_TRUE(C.contains(0));
}

TEST(Cache, InvalidGeometryThrowsInEveryBuildMode) {
  auto ExpectInternal = [](const CacheConfig &Cfg) {
    try {
      Cache C(Cfg);
      ADD_FAILURE() << Cfg.SizeBytes << "/" << Cfg.LineBytes << "/"
                    << Cfg.Ways << " accepted";
    } catch (const VmError &E) {
      EXPECT_EQ(E.Kind, VmErrorKind::Internal);
      EXPECT_NE(E.Message.find("invalid cache geometry"), std::string::npos);
    }
  };
  ExpectInternal(CacheConfig{1024, 48, 2});   // Line not a power of two.
  ExpectInternal(CacheConfig{1024, 1, 2});    // 1-byte line.
  ExpectInternal(CacheConfig{1024, 64, 0});   // No ways: zero sets.
  ExpectInternal(CacheConfig{64, 64, 2});     // Too small: zero sets.
  ExpectInternal(CacheConfig{384, 64, 2});    // Three sets.
  EXPECT_THROW(Tlb T(TlbConfig{0, 4096}), VmError);
  EXPECT_THROW(Tlb T(TlbConfig{64, 3000}), VmError);
  MachineConfig M;
  M.L2 = CacheConfig{3 * 64 * 8, 64, 8};
  EXPECT_THROW(MemoryHierarchy H(M), VmError);
}

// --- TLB ----------------------------------------------------------------------

TEST(Tlb, HitOnSamePage) {
  Tlb T(TlbConfig{4, 4096});
  EXPECT_FALSE(T.access(0));
  EXPECT_TRUE(T.access(4095));
  EXPECT_FALSE(T.access(4096));
  EXPECT_EQ(T.misses(), 2u);
}

TEST(Tlb, LruEvictionAtCapacity) {
  Tlb T(TlbConfig{2, 4096});
  T.access(0 * 4096);
  T.access(1 * 4096);
  T.access(0 * 4096);      // Page 0 MRU.
  T.access(2 * 4096);      // Evicts page 1.
  EXPECT_TRUE(T.access(0 * 4096));
  EXPECT_FALSE(T.access(1 * 4096));
}

TEST(Tlb, FlushDropsAll) {
  Tlb T(TlbConfig{8, 4096});
  T.access(0);
  T.flush();
  EXPECT_FALSE(T.access(0));
}

TEST(Tlb, NonPowerOfTwoEntryCountIsOneSet) {
  // 48 entries: one 48-way set, every page in the same LRU order.
  Tlb T(TlbConfig{48, 4096});
  for (uint64_t P = 0; P < 48; ++P)
    EXPECT_FALSE(T.access(P * 4096));
  for (uint64_t P = 0; P < 48; ++P)
    EXPECT_TRUE(T.access(P * 4096));
  EXPECT_FALSE(T.access(48 * 4096)); // Evicts page 0, the LRU.
  EXPECT_FALSE(T.access(0));
  EXPECT_EQ(T.memoryFootprint(), 48u * sizeof(uint64_t));
}

// --- NumaTopology ---------------------------------------------------------------

TEST(Numa, CpuToNodeMapping) {
  NumaTopology N(NumaConfig{2, 12, 4096});
  EXPECT_EQ(N.numCpus(), 24u);
  EXPECT_EQ(N.nodeOfCpu(0), 0);
  EXPECT_EQ(N.nodeOfCpu(11), 0);
  EXPECT_EQ(N.nodeOfCpu(12), 1);
  EXPECT_EQ(N.nodeOfCpu(23), 1);
}

TEST(Numa, FirstTouchPlacesOnToucherNode) {
  NumaTopology N(NumaConfig{2, 12, 4096});
  EXPECT_EQ(N.nodeOfAddr(0x5000), kInvalidNode);
  EXPECT_EQ(N.touch(0x5000, 15), 1); // CPU 15 is on node 1.
  EXPECT_EQ(N.nodeOfAddr(0x5000), 1);
  // Second toucher does not move the page.
  EXPECT_EQ(N.touch(0x5800, 0), 1); // Same page.
  EXPECT_EQ(N.nodeOfAddr(0x5000), 1);
}

TEST(Numa, MovePagesQueryAndMigrate) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  N.touch(0x1000, 0);
  EXPECT_TRUE(N.movePage(0x1000, 1));
  EXPECT_EQ(N.nodeOfAddr(0x1000), 1);
  EXPECT_FALSE(N.movePage(0x1000, 5)); // No such node.
  EXPECT_FALSE(N.movePage(0x1000, -1));
}

TEST(Numa, InterleaveRangeRoundRobins) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  N.interleaveRange(0, 8 * 4096);
  int Node0 = 0, Node1 = 0;
  for (int P = 0; P < 8; ++P) {
    NumaNodeId Id = N.nodeOfAddr(static_cast<uint64_t>(P) * 4096);
    ASSERT_NE(Id, kInvalidNode);
    (Id == 0 ? Node0 : Node1)++;
  }
  EXPECT_EQ(Node0, 4);
  EXPECT_EQ(Node1, 4);
}

TEST(Numa, InterleaveDefeatsFirstTouch) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  N.interleaveRange(0, 2 * 4096);
  NumaNodeId Before = N.nodeOfAddr(4096);
  N.touch(4096, 0); // First touch must not re-place.
  EXPECT_EQ(N.nodeOfAddr(4096), Before);
}

TEST(Numa, BindAndReleaseRange) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  N.bindRange(0, 4 * 4096, 1);
  EXPECT_EQ(N.nodeOfAddr(3 * 4096), 1);
  N.releaseRange(0, 4 * 4096);
  EXPECT_EQ(N.nodeOfAddr(0), kInvalidNode);
  EXPECT_EQ(N.numPlacedPages(), 0u);
}

// --- MemoryHierarchy -------------------------------------------------------------

MachineConfig tinyMachine() {
  MachineConfig M;
  M.L1 = CacheConfig{1024, 64, 2};
  M.L2 = CacheConfig{4096, 64, 4};
  M.L3 = CacheConfig{16384, 64, 8};
  M.Dtlb = TlbConfig{4, 4096};
  M.Numa = NumaConfig{2, 2, 4096};
  return M;
}

TEST(MemoryHierarchy, ColdAccessMissesEverywhere) {
  MemoryHierarchy M(tinyMachine());
  AccessResult R = M.accessMemory(0, 0x10000);
  EXPECT_TRUE(R.L1Miss);
  EXPECT_TRUE(R.L2Miss);
  EXPECT_TRUE(R.L3Miss);
  EXPECT_TRUE(R.TlbMiss);
  EXPECT_FALSE(R.RemoteAccess); // First touch = local.
  EXPECT_EQ(R.HomeNode, 0);
  LatencyModel Lat;
  EXPECT_EQ(R.LatencyCycles, Lat.TlbMissPenalty + Lat.LocalDram);
}

TEST(MemoryHierarchy, WarmAccessHitsL1) {
  MemoryHierarchy M(tinyMachine());
  M.accessMemory(0, 0x10000);
  AccessResult R = M.accessMemory(0, 0x10008);
  EXPECT_FALSE(R.L1Miss);
  EXPECT_FALSE(R.TlbMiss);
  LatencyModel Lat;
  EXPECT_EQ(R.LatencyCycles, Lat.L1Hit);
}

TEST(MemoryHierarchy, PrivateL1PerCpu) {
  MemoryHierarchy M(tinyMachine());
  M.accessMemory(0, 0x10000);
  // Another CPU on the same node: misses L1/L2, hits shared L3.
  AccessResult R = M.accessMemory(1, 0x10000);
  EXPECT_TRUE(R.L1Miss);
  EXPECT_TRUE(R.L2Miss);
  EXPECT_FALSE(R.L3Miss);
}

TEST(MemoryHierarchy, RemoteAccessDetectedAcrossNodes) {
  MemoryHierarchy M(tinyMachine());
  M.accessMemory(0, 0x20000); // CPU0 (node0) first-touches.
  // CPU on node 1 misses its own L3 and reaches node0's DRAM.
  AccessResult R = M.accessMemory(2, 0x20000);
  EXPECT_TRUE(R.L3Miss);
  EXPECT_TRUE(R.RemoteAccess);
  EXPECT_EQ(R.HomeNode, 0);
}

TEST(MemoryHierarchy, RemoteCostsMoreThanLocal) {
  MachineConfig Cfg = tinyMachine();
  Cfg.Latency.DramContentionMaxPenalty = 0; // Isolate base latencies.
  MemoryHierarchy MLocal(Cfg), MRemote(Cfg);
  uint32_t Local = MLocal.accessMemory(0, 0x0).LatencyCycles;
  MRemote.numa().bindRange(0x0, 64, 1);
  uint32_t Remote = MRemote.accessMemory(0, 0x0).LatencyCycles;
  EXPECT_GT(Remote, Local);
  EXPECT_EQ(Remote - Local, Cfg.Latency.RemoteDram - Cfg.Latency.LocalDram);
}

TEST(MemoryHierarchy, ContentionRaisesLatencyForOtherCpus) {
  MachineConfig Cfg = tinyMachine();
  MemoryHierarchy M(Cfg);
  // CPU1 blasts node-0 DRAM (each access a distinct line).
  for (int I = 0; I < 2000; ++I)
    M.accessMemory(1, 0x100000 + static_cast<uint64_t>(I) * 4096);
  // A fresh CPU0 access to node-0 DRAM now pays a contention penalty.
  M.numa().bindRange(0x900000, 64, 0);
  AccessResult R = M.accessMemory(0, 0x900000);
  ASSERT_TRUE(R.L3Miss);
  EXPECT_GT(R.LatencyCycles,
            Cfg.Latency.LocalDram + Cfg.Latency.TlbMissPenalty);
}

TEST(MemoryHierarchy, NoSelfContention) {
  MachineConfig Cfg = tinyMachine();
  MemoryHierarchy M(Cfg);
  // One CPU alone never pays contention, no matter how much it streams.
  uint32_t First = 0, Last = 0;
  for (int I = 0; I < 2000; ++I) {
    AccessResult R =
        M.accessMemory(0, 0x100000 + static_cast<uint64_t>(I) * 4096);
    if (I == 0)
      First = R.LatencyCycles;
    Last = R.LatencyCycles;
  }
  EXPECT_EQ(First, Last);
}

TEST(MemoryHierarchy, StatsAccumulate) {
  MemoryHierarchy M(tinyMachine());
  M.accessMemory(0, 0);
  M.accessMemory(0, 0);
  const HierarchyStats &S = M.stats();
  EXPECT_EQ(S.Accesses, 2u);
  EXPECT_EQ(S.L1Misses, 1u);
  EXPECT_GT(S.TotalLatency, 0u);
  M.resetStats();
  EXPECT_EQ(M.stats().Accesses, 0u);
}

TEST(MemoryHierarchy, FlushKeepingL3) {
  MemoryHierarchy M(tinyMachine());
  M.accessMemory(0, 0x40000);
  M.flushCaches(/*IncludeL3=*/false);
  AccessResult R = M.accessMemory(0, 0x40000);
  EXPECT_TRUE(R.L1Miss);
  EXPECT_TRUE(R.L2Miss);
  EXPECT_FALSE(R.L3Miss) << "L3 should stay warm";
  M.flushCaches(/*IncludeL3=*/true);
  EXPECT_TRUE(M.accessMemory(0, 0x40000).L3Miss);
}

TEST(MemoryHierarchy, AllocatesOnlyTouchedCpusAndNodes) {
  MachineConfig Cfg = tinyMachine();
  MemoryHierarchy M(Cfg);
  EXPECT_EQ(M.memoryFootprint(), 0u);
  M.invalidateLine(0x40000);
  M.flushCaches();
  EXPECT_EQ(M.memoryFootprint(), 0u);
  M.accessMemory(1, 0x40000);
  uint64_t OneCpu = (Cfg.L1.SizeBytes + Cfg.L2.SizeBytes + Cfg.L3.SizeBytes) /
                        64 * sizeof(uint64_t) +
                    Cfg.Dtlb.Entries * sizeof(uint64_t);
  EXPECT_EQ(M.memoryFootprint(), OneCpu);
  M.accessMemory(1, 0x80000); // Same CPU: nothing new.
  M.flushCaches();
  EXPECT_EQ(M.memoryFootprint(), OneCpu);
  M.accessMemory(0, 0x40000); // Same node: new L1/L2/TLB, shared L3.
  EXPECT_EQ(M.memoryFootprint(),
            2 * OneCpu - Cfg.L3.SizeBytes / 64 * sizeof(uint64_t));
}

TEST(MemoryHierarchy, InvalidateLineEverywhere) {
  MemoryHierarchy M(tinyMachine());
  M.accessMemory(0, 0x40000);
  M.invalidateLine(0x40000);
  AccessResult R = M.accessMemory(0, 0x40000);
  EXPECT_TRUE(R.L1Miss && R.L2Miss && R.L3Miss);
}

} // namespace
