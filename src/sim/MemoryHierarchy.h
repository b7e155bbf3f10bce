//===- MemoryHierarchy.h - L1/L2/L3 + TLB + NUMA composition ----*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Composes the per-CPU private L1/L2 caches, the shared L3, the per-CPU
/// data TLB, and the NUMA topology into one access pipeline. Every memory
/// access the MiniJVM performs flows through accessMemory(), which returns
/// the miss profile and latency; the PMU samples from exactly these events,
/// so DJXPerf's hardware metrics are emergent rather than synthetic.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_SIM_MEMORYHIERARCHY_H
#define DJX_SIM_MEMORYHIERARCHY_H

#include "sim/Cache.h"
#include "sim/NumaTopology.h"
#include "sim/Tlb.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace djx {

/// Per-level access latencies in cycles, loosely calibrated to the paper's
/// Broadwell Xeon (L1 4, L2 12, L3 ~40, DRAM ~200, remote DRAM ~2x local).
struct LatencyModel {
  uint32_t L1Hit = 4;
  uint32_t L2Hit = 12;
  uint32_t L3Hit = 42;
  uint32_t LocalDram = 200;
  uint32_t RemoteDram = 400;
  uint32_t TlbMissPenalty = 36;
  /// Extra cycles added to a DRAM access when DRAM traffic concentrates on
  /// the accessed page's home node — a simple memory-controller contention
  /// proxy (workers "compete for memory bandwidth", §7.5). The penalty
  /// scales with the share of all other CPUs' DRAM traffic that targets
  /// the same home node.
  uint32_t DramContentionMaxPenalty = 240;
};

/// Full machine configuration.
struct MachineConfig {
  CacheConfig L1{32 * 1024, 64, 8};
  CacheConfig L2{256 * 1024, 64, 8};
  CacheConfig L3{4 * 1024 * 1024, 64, 16}; // Scaled-down shared L3.
  TlbConfig Dtlb{64, 4096};
  NumaConfig Numa{2, 12, 4096};
  LatencyModel Latency;
};

/// Result of one memory access: which levels missed and what it cost.
struct AccessResult {
  bool L1Miss = false;
  bool L2Miss = false;
  bool L3Miss = false;
  bool TlbMiss = false;
  /// True when the access reached DRAM on a node other than the CPU's.
  bool RemoteAccess = false;
  /// Node where the page resides (after first-touch placement).
  NumaNodeId HomeNode = kInvalidNode;
  /// Total latency in cycles.
  uint32_t LatencyCycles = 0;
};

/// Aggregate counters for a hierarchy (whole machine).
struct HierarchyStats {
  uint64_t Accesses = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
  uint64_t L3Misses = 0;
  uint64_t TlbMisses = 0;
  uint64_t RemoteAccesses = 0;
  uint64_t TotalLatency = 0;
};

/// The simulated memory system of the whole machine.
///
/// Concurrency contract: a MemoryHierarchy instance is single-writer —
/// it has no internal locking, and every access mutates cache/TLB/NUMA
/// state. The serial VM drives one shared instance; the parallel runtime
/// gives each simulated thread a worker-private instance (JavaThread::
/// setMachine) and merges the per-instance stats deterministically in
/// thread-id order (Analyzer::mergeHierarchyStats).
class MemoryHierarchy {
public:
  explicit MemoryHierarchy(const MachineConfig &Config);

  /// Performs one data access from \p Cpu to \p Addr. Stores and loads are
  /// modeled identically (the PMU distinguishes them by event type only).
  AccessResult accessMemory(uint32_t Cpu, uint64_t Addr);

  /// Invalidates the line holding \p Addr in every cache (used by the GC
  /// when it relocates objects, approximating coherence traffic).
  void invalidateLine(uint64_t Addr);

  /// Flushes caches and TLBs; NUMA placement is preserved. When
  /// \p IncludeL3 is false the shared L3 keeps its contents — the paper's
  /// machine has a 30 MiB L3 that typically retains the heap across a GC,
  /// so a post-GC reload costs an L3 hit rather than a DRAM round trip.
  void flushCaches(bool IncludeL3 = true);

  /// Bytes of cache and TLB tag storage allocated so far. Caches allocate
  /// on first access, so this counts only the CPUs and nodes touched.
  uint64_t memoryFootprint() const;

  NumaTopology &numa() { return Numa; }
  const NumaTopology &numa() const { return Numa; }
  const HierarchyStats &stats() const { return Stats; }
  void resetStats() { Stats = HierarchyStats(); }
  const MachineConfig &config() const { return Config; }
  uint32_t numCpus() const { return Numa.numCpus(); }

private:
  MachineConfig Config;
  NumaTopology Numa;
  std::vector<Cache> L1s;        // One per CPU.
  std::vector<Cache> L2s;        // One per CPU.
  std::vector<Cache> L3PerNode;  // One shared L3 per socket.
  std::vector<Tlb> Dtlbs;        // One per CPU.
  HierarchyStats Stats;
  /// Decaying per-node DRAM access counters for the contention proxy,
  /// plus a per-(node, cpu) breakdown so an access is only slowed by
  /// *other* CPUs' traffic to the same home node.
  std::vector<uint64_t> DramTraffic;
  std::vector<uint64_t> DramTrafficByCpu; // [Node * NumCpus + Cpu]
  uint64_t DramTrafficTotal = 0;
};

} // namespace djx

#endif // DJX_SIM_MEMORYHIERARCHY_H
