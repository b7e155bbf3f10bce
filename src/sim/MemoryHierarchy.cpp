//===- MemoryHierarchy.cpp - L1/L2/L3 + TLB + NUMA composition ------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/MemoryHierarchy.h"

#include <algorithm>
#include <cassert>

using namespace djx;

MemoryHierarchy::MemoryHierarchy(const MachineConfig &Cfg)
    : Config(Cfg), Numa(Cfg.Numa) {
  uint32_t Cpus = Numa.numCpus();
  L1s.reserve(Cpus);
  L2s.reserve(Cpus);
  Dtlbs.reserve(Cpus);
  for (uint32_t I = 0; I < Cpus; ++I) {
    L1s.emplace_back(Config.L1);
    L2s.emplace_back(Config.L2);
    Dtlbs.emplace_back(Config.Dtlb);
  }
  L3PerNode.reserve(Numa.numNodes());
  for (uint32_t I = 0; I < Numa.numNodes(); ++I)
    L3PerNode.emplace_back(Config.L3);
  DramTraffic.resize(Numa.numNodes(), 0);
  DramTrafficByCpu.resize(static_cast<size_t>(Numa.numNodes()) * Cpus, 0);
}

AccessResult MemoryHierarchy::accessMemory(uint32_t Cpu, uint64_t Addr) {
  assert(Cpu < numCpus() && "CPU id out of range");
  AccessResult R;
  const LatencyModel &Lat = Config.Latency;

  R.TlbMiss = !Dtlbs[Cpu].access(Addr);
  if (R.TlbMiss)
    R.LatencyCycles += Lat.TlbMissPenalty;

  // First touch places the page; later touches just report its home.
  R.HomeNode = Numa.touch(Addr, Cpu);
  NumaNodeId CpuNode = Numa.nodeOfCpu(Cpu);

  if (L1s[Cpu].access(Addr)) {
    R.LatencyCycles += Lat.L1Hit;
  } else {
    R.L1Miss = true;
    if (L2s[Cpu].access(Addr)) {
      R.LatencyCycles += Lat.L2Hit;
    } else {
      R.L2Miss = true;
      if (L3PerNode[CpuNode].access(Addr)) {
        R.LatencyCycles += Lat.L3Hit;
      } else {
        R.L3Miss = true;
        R.RemoteAccess = R.HomeNode != CpuNode;
        R.LatencyCycles += R.RemoteAccess ? Lat.RemoteDram : Lat.LocalDram;
        // Contention proxy: the busier the home node's memory controller,
        // the slower this access.
        if (Lat.DramContentionMaxPenalty > 0) {
          // Contention proxy: penalty grows with the share of all DRAM
          // traffic that *other* CPUs direct at this page's home node.
          // Counters are cumulative because threads are cooperatively
          // scheduled — logically-concurrent workers execute one after
          // another, so a window of "recent" accesses would only ever see
          // the current thread.
          size_t Slot = static_cast<size_t>(R.HomeNode) * numCpus() + Cpu;
          uint64_t Others =
              DramTraffic[R.HomeNode] - DramTrafficByCpu[Slot];
          R.LatencyCycles += static_cast<uint32_t>(
              static_cast<uint64_t>(Lat.DramContentionMaxPenalty) * Others /
              std::max<uint64_t>(DramTrafficTotal, 1));
          ++DramTraffic[R.HomeNode];
          ++DramTrafficByCpu[Slot];
          ++DramTrafficTotal;
        }
      }
    }
  }

  ++Stats.Accesses;
  Stats.L1Misses += R.L1Miss;
  Stats.L2Misses += R.L2Miss;
  Stats.L3Misses += R.L3Miss;
  Stats.TlbMisses += R.TlbMiss;
  Stats.RemoteAccesses += R.RemoteAccess;
  Stats.TotalLatency += R.LatencyCycles;
  return R;
}

void MemoryHierarchy::invalidateLine(uint64_t Addr) {
  for (Cache &C : L1s)
    C.invalidate(Addr);
  for (Cache &C : L2s)
    C.invalidate(Addr);
  for (Cache &C : L3PerNode)
    C.invalidate(Addr);
}

void MemoryHierarchy::flushCaches(bool IncludeL3) {
  for (Cache &C : L1s)
    C.flush();
  for (Cache &C : L2s)
    C.flush();
  if (IncludeL3)
    for (Cache &C : L3PerNode)
      C.flush();
  for (Tlb &T : Dtlbs)
    T.flush();
}

uint64_t MemoryHierarchy::memoryFootprint() const {
  uint64_t Bytes = 0;
  for (const std::vector<Cache> *Level : {&L1s, &L2s, &L3PerNode})
    for (const Cache &C : *Level)
      Bytes += C.memoryFootprint();
  for (const Tlb &T : Dtlbs)
    Bytes += T.memoryFootprint();
  return Bytes;
}
