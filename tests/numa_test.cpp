//===- numa_test.cpp - NUMA placement, policy, and boundary-bug tests ------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the NUMA-aware parallel runtime and the boundary fixes that
/// shipped with it: releaseRange's "pages fully inside" contract,
/// Heap::shardOf's reserved-range guard, the page table's tombstone-aware
/// rehash, placement-mutator interactions with the per-CPU memo, the
/// Executor's node-spread CPU mapping and shard placement policies
/// (first-touch / bind / interleave), the per-object node residency
/// histograms with their remediation hints, and jobs-invariance of the
/// rendered reports under every policy. Run under the tsan preset these
/// tests double as the data-race check for the NUMA-aware runtime.
///
//===----------------------------------------------------------------------===//

#include "core/DjxPerf.h"
#include "core/HtmlReport.h"
#include "core/Report.h"
#include "jvm/Heap.h"
#include "runtime/Executor.h"
#include "sim/NumaTopology.h"
#include "workloads/BytecodePrograms.h"
#include "workloads/Parallel.h"

#include <gtest/gtest.h>


#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(numa_test, 74.0, 58.0,
    "src/sim/NumaTopology.cpp",
    "src/sim/NumaTopology.h");

// --- releaseRange boundary contract ---------------------------------------

TEST(NumaPageTable, ReleaseRangeKeepsPartiallyCoveredBoundaryPages) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  N.bindRange(0, 8 * 4096, 1); // Pages 0..7 on node 1.
  // [4608, 12800): page 1 and page 3 are only partially covered — a
  // neighbouring live range may still own their other halves — while
  // page 2 ([8192, 12288)) is fully inside and must be forgotten.
  N.releaseRange(4096 + 512, 2 * 4096);
  EXPECT_EQ(N.nodeOfAddr(4096), 1);            // Kept (partial).
  EXPECT_EQ(N.nodeOfAddr(8192), kInvalidNode); // Erased (full).
  EXPECT_EQ(N.nodeOfAddr(12288), 1);           // Kept (partial).
  EXPECT_EQ(N.numPlacedPages(), 7u);
}

TEST(NumaPageTable, ReleaseRangeWithinOnePageErasesNothing) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  N.bindRange(0, 4096, 0);
  N.releaseRange(100, 200); // No page is fully covered.
  EXPECT_EQ(N.nodeOfAddr(0), 0);
  EXPECT_EQ(N.numPlacedPages(), 1u);
}

TEST(NumaPageTable, ReleaseRangeAlignedStillErasesEverything) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  N.bindRange(0, 4 * 4096, 1);
  N.releaseRange(0, 4 * 4096);
  EXPECT_EQ(N.numPlacedPages(), 0u);
}

// --- tombstone-aware rehash ------------------------------------------------

TEST(NumaPageTable, EraseHeavyChurnDoesNotGrowTable) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  size_t InitialSlots = N.pageTableSlots();
  // A small live working set recycled thousands of times: tombstones used
  // to count as occupancy forever, doubling the table on every ~700
  // erase/insert cycles even though at most 64 pages are ever live.
  for (int Round = 0; Round < 200; ++Round) {
    N.bindRange(0, 64 * 4096, Round % 2);
    N.releaseRange(0, 64 * 4096);
  }
  EXPECT_EQ(N.numPlacedPages(), 0u);
  EXPECT_EQ(N.pageTableSlots(), InitialSlots)
      << "tombstone churn must rehash in place, not grow";
}

TEST(NumaPageTable, TableStillGrowsForGenuinelyLargePlacements) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  size_t InitialSlots = N.pageTableSlots();
  N.bindRange(0, 4096ULL * 4096, 1); // 4096 live pages > initial slots.
  EXPECT_EQ(N.numPlacedPages(), 4096u);
  EXPECT_GT(N.pageTableSlots(), InitialSlots);
  EXPECT_EQ(N.nodeOfAddr(4095ULL * 4096), 1);
}

// --- placement mutators vs. the per-CPU memo -------------------------------

TEST(Numa, MemoInvalidatedByEveryPlacementMutator) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  // Seed the CPU-0 memo with page 5 on node 0.
  EXPECT_EQ(N.touch(0x5000, 0), 0);

  N.movePage(0x5000, 1); // move_pages migrate mode.
  EXPECT_EQ(N.touch(0x5000, 0), 1) << "stale memo after movePage";

  N.bindRange(0x5000, 4096, 0);
  EXPECT_EQ(N.touch(0x5800, 0), 0) << "stale memo after bindRange";

  N.interleaveRange(0x5000, 4096); // Cursor at 0: page -> node 0.
  EXPECT_EQ(N.touch(0x5000, 4), 0) << "stale memo after interleaveRange";

  N.releaseRange(0x5000, 4096);
  // Released: the next touch is a first touch again — from CPU 4 the page
  // must land on node 1, which a stale memo would contradict.
  EXPECT_EQ(N.touch(0x5000, 4), 1) << "stale memo after releaseRange";
  EXPECT_EQ(N.nodeOfAddr(0x5000), 1);
}

TEST(Numa, InterleaveCursorCarriesAcrossCalls) {
  NumaTopology N(NumaConfig{2, 4, 4096});
  N.interleaveRange(0, 4096);     // Page 0 -> node 0 (cursor 0).
  N.interleaveRange(4096, 4096);  // Page 1 -> node 1 (cursor 1).
  N.interleaveRange(8192, 4096);  // Page 2 -> node 0 (cursor 2).
  EXPECT_EQ(N.nodeOfAddr(0), 0);
  EXPECT_EQ(N.nodeOfAddr(4096), 1);
  EXPECT_EQ(N.nodeOfAddr(8192), 0);
}

// --- Heap::shardOf reserved range ------------------------------------------

TEST(Heap, ShardOfReservedRangeIsShardZeroInEveryConfiguration) {
  Heap Single(1 << 20, 1);
  Heap Sharded(1 << 20, 4);
  // kNullRef and the rest of the reserved range [0, kArenaBase) used to
  // underflow the sharded computation and land in the *last* shard.
  for (uint64_t Addr : {uint64_t(0), Heap::kArenaBase / 2,
                        Heap::kArenaBase - 1}) {
    EXPECT_EQ(Single.shardOf(Addr), 0u);
    EXPECT_EQ(Sharded.shardOf(Addr), 0u) << "addr " << Addr;
  }
  EXPECT_EQ(Sharded.shardOf(Heap::kArenaBase), 0u);
  EXPECT_EQ(Sharded.shardOf((1 << 20) - 1), 3u);
  // objectContaining on a reserved address must consult shard 0 (and find
  // nothing), not assert in the last shard.
  EXPECT_EQ(Sharded.objectContaining(0), kNullRef);
}

TEST(Heap, ShardOfExactShardBoundariesSplitConsistently) {
  Heap H(1 << 20, 4);
  // shardBase(k) is the first address of shard k; the address one below
  // it must still belong to shard k-1, with no gap and no overlap, and
  // the tail beyond the last even span clamps to the last shard.
  for (unsigned S = 1; S < 4; ++S) {
    EXPECT_EQ(H.shardOf(H.shardBase(S)), S);
    EXPECT_EQ(H.shardOf(H.shardBase(S) - 1), S - 1);
  }
  EXPECT_EQ(H.shardOf(H.shardLimit(3) - 1), 3u);
  EXPECT_EQ(H.shardBase(0), Heap::kArenaBase);
}

// --- assert-guarded contracts (death tests, debug builds only) -------------
//
// The raw arena accessors and the CPU->node map are the two places where a
// bad address/id silently corrupts simulation state instead of failing a
// lookup. Their contracts are asserts, so the death tests only bite in
// builds with asserts enabled (the CI debug job); release runs skip.

TEST(NumaDeath, NodeOfCpuOutOfRangeAssertsInDebug) {
#ifdef NDEBUG
  GTEST_SKIP() << "asserts compiled out (NDEBUG)";
#else
  NumaTopology N(NumaConfig{2, 4, 4096});
  ASSERT_EQ(N.numCpus(), 8u);
  EXPECT_DEATH_IF_SUPPORTED(N.nodeOfCpu(8), "CPU id out of range");
  EXPECT_DEATH_IF_SUPPORTED(N.nodeOfCpu(~0u), "CPU id out of range");
#endif
}

TEST(HeapDeath, RawAccessOutsideArenaAssertsInDebug) {
#ifdef NDEBUG
  GTEST_SKIP() << "asserts compiled out (NDEBUG)";
#else
  Heap H(1 << 16, 2);
  // One word straddling the arena end: Addr + 8 > Capacity even though
  // Addr itself is in range.
  EXPECT_DEATH_IF_SUPPORTED(H.rawReadWord((1 << 16) - 4),
                            "read out of arena");
  EXPECT_DEATH_IF_SUPPORTED(H.rawWriteWord((1 << 16) - 4, 1),
                            "write out of arena");
  EXPECT_DEATH_IF_SUPPORTED(H.rawReadU32((1 << 16) - 2),
                            "read out of arena");
  EXPECT_DEATH_IF_SUPPORTED(H.rawMemmove((1 << 16) - 8, 0, 16),
                            "memmove out of arena");
#endif
}

// --- Executor: node-spread CPU mapping -------------------------------------

ParallelConfig numaConfig(unsigned Jobs, NumaPolicy Policy) {
  ParallelConfig Pc;
  Pc.SimThreads = 4;
  Pc.Jobs = Jobs;
  Pc.QuantumSteps = 4096;
  Pc.Iters = 80;
  Pc.Nlen = 128;
  // 192 KiB hot arrays: above the numaRemote machine's 128 KiB L3, so the
  // neighbour sweeps are DRAM-bound (and L1-missing, hence sampled).
  Pc.HotElems = 24576;
  Pc.HeapBytesPerThread = 224 << 10; // Churn forces safepoint GCs.
  Pc.Policy = Policy;
  return Pc;
}

TEST(NumaRuntime, TasksSpreadAcrossNodesRoundRobin) {
  ParallelConfig Pc = numaConfig(1, NumaPolicy::FirstTouch);
  JavaVm Vm(parallelVmConfig(Pc));
  BytecodeProgram Program = buildParallelWorkerProgram(Vm.types());
  Program.load(Vm);
  ExecutorConfig Ec;
  Ec.Jobs = 1;
  Ec.QuantumSteps = 4096;
  Ec.Policy = NumaPolicy::FirstTouch;
  Executor Ex(Vm, Ec);
  for (unsigned I = 0; I < 4; ++I)
    Ex.addThread(Program, "Main.run",
                 {Value::fromInt(1), Value::fromInt(8), Value::fromInt(8)},
                 "w" + std::to_string(I));
  const NumaTopology &Numa = Vm.machine().numa();
  // Task index round-robins over nodes first: 0 -> node0, 1 -> node1, ...
  EXPECT_EQ(Numa.nodeOfCpu(Ex.thread(0).cpu()), 0);
  EXPECT_EQ(Numa.nodeOfCpu(Ex.thread(1).cpu()), 1);
  EXPECT_EQ(Numa.nodeOfCpu(Ex.thread(2).cpu()), 0);
  EXPECT_EQ(Numa.nodeOfCpu(Ex.thread(3).cpu()), 1);
  // Same node, different CPU (threads never stack on one core).
  EXPECT_NE(Ex.thread(0).cpu(), Ex.thread(2).cpu());
  Ex.run();
  for (size_t I = 0; I < Ex.numTasks(); ++I)
    Vm.endThread(Ex.thread(I));
}

// --- The diagnose -> fix loop: remote ratio per policy ---------------------

/// Remote share of DRAM accesses — the NUMA-relevant denominator, since
/// cache-absorbed accesses never reach a memory controller.
double remoteRatio(NumaPolicy Policy) {
  ParallelConfig Pc = numaConfig(1, Policy);
  JavaVm Vm(numaRemoteVmConfig(Pc));
  ParallelOutcome Out = runNumaRemoteWorkload(Vm, nullptr, Pc);
  EXPECT_GT(Out.Machine.L3Misses, 0u);
  EXPECT_GT(Out.Safepoints, 0u); // Re-binding after compaction exercised.
  return static_cast<double>(Out.Machine.RemoteAccesses) /
         static_cast<double>(Out.Machine.L3Misses);
}

TEST(NumaRuntime, PlacementFixLowersRemoteRatio) {
  double FirstTouch = remoteRatio(NumaPolicy::FirstTouch);
  double Bind = remoteRatio(NumaPolicy::Bind);
  double Interleave = remoteRatio(NumaPolicy::Interleave);
  // The handoff baseline: every sweep of the neighbour's array crosses
  // nodes, so first-touch is remote-heavy...
  EXPECT_GT(FirstTouch, 0.5);
  // ...and both placement fixes lower the ratio strictly (§7.5/§7.6).
  EXPECT_LT(Bind, FirstTouch);
  EXPECT_LT(Interleave, FirstTouch);
  EXPECT_GT(Interleave, 0.0); // Interleaving spreads, it does not zero.
}

// --- Per-object residency histograms + remediation hints -------------------

struct ProfiledRun {
  std::string ObjectReport;
  std::string HtmlReport;
  uint64_t Samples = 0;
  uint64_t RemoteSamples = 0;
  MergedProfile Profile;
};

ProfiledRun runProfiled(unsigned Jobs, NumaPolicy Policy) {
  ParallelConfig Pc = numaConfig(Jobs, Policy);
  JavaVm Vm(numaRemoteVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start();
  runNumaRemoteWorkload(Vm, &Prof, Pc);
  Prof.stop();
  ProfiledRun R;
  R.Profile = Prof.analyze();
  R.ObjectReport = renderObjectCentric(R.Profile, Vm.methods());
  R.HtmlReport = renderHtmlReport(R.Profile, Vm.methods(), ReportOptions(),
                                  "numaRemote");
  R.Samples = Prof.samplesHandled();
  for (const auto &[Node, G] : R.Profile.Groups) {
    (void)Node;
    R.RemoteSamples += G.RemoteSamples;
  }
  return R;
}

TEST(NumaRuntime, ResidencyHistogramsAndBindHintForHandoffArrays) {
  ProfiledRun R = runProfiled(1, NumaPolicy::FirstTouch);
  ASSERT_GT(R.Samples, 0u);
  ASSERT_GT(R.RemoteSamples, 0u);
  // Each hot array is allocated at its own line and swept by exactly one
  // neighbour, so its merged group must carry a home-node histogram and a
  // bind hint targeting the single accessing node.
  bool SawBindHint = false;
  for (const auto &[Node, G] : R.Profile.Groups) {
    (void)Node;
    if (G.RemoteSamples == 0 || G.TypeName != "long[]")
      continue;
    EXPECT_FALSE(G.HomeNodeSamples.empty());
    EXPECT_FALSE(G.AccessNodeSamples.empty());
    PlacementAdvice Advice = placementAdvice(G);
    if (Advice.Hint == PlacementHint::Bind) {
      SawBindHint = true;
      // The dominant accessor's node is the bind target.
      ASSERT_EQ(G.AccessNodeSamples.size(), 1u);
      EXPECT_EQ(Advice.TargetNode, G.AccessNodeSamples.begin()->first);
    }
  }
  EXPECT_TRUE(SawBindHint);
  EXPECT_NE(R.ObjectReport.find("NUMA residency:"), std::string::npos);
  EXPECT_NE(R.ObjectReport.find("NUMA hint: numa_alloc_onnode"),
            std::string::npos);
  EXPECT_NE(R.HtmlReport.find("hint: numa_alloc_onnode"),
            std::string::npos);
}

TEST(NumaAnalyzer, PlacementAdviceCoversAllBranches) {
  MergedGroup G;
  // No samples: no advice.
  EXPECT_EQ(placementAdvice(G).Hint, PlacementHint::None);
  // Low remote share (< 5%): no advice.
  G.AddressSamples = 100;
  G.RemoteSamples = 4;
  G.AccessNodeSamples[0] = 100;
  EXPECT_EQ(placementAdvice(G).Hint, PlacementHint::None);
  // Remote-heavy with one dominant accessor: bind to it.
  G.RemoteSamples = 60;
  G.AccessNodeSamples.clear();
  G.AccessNodeSamples[1] = 90;
  G.AccessNodeSamples[0] = 10;
  PlacementAdvice Bind = placementAdvice(G);
  EXPECT_EQ(Bind.Hint, PlacementHint::Bind);
  EXPECT_EQ(Bind.TargetNode, 1);
  // Remote-heavy with spread accessors: interleave.
  G.AccessNodeSamples[0] = 50;
  G.AccessNodeSamples[1] = 50;
  PlacementAdvice Il = placementAdvice(G);
  EXPECT_EQ(Il.Hint, PlacementHint::Interleave);
  EXPECT_EQ(Il.TargetNode, kInvalidNode);
}

// --- Jobs-invariance under every policy ------------------------------------

TEST(NumaRuntime, ReportsByteIdenticalAcrossJobsUnderEveryPolicy) {
  for (NumaPolicy Policy : {NumaPolicy::FirstTouch, NumaPolicy::Bind,
                            NumaPolicy::Interleave}) {
    ProfiledRun Serial = runProfiled(1, Policy);
    ProfiledRun Parallel = runProfiled(4, Policy);
    EXPECT_EQ(Serial.ObjectReport, Parallel.ObjectReport)
        << "policy " << numaPolicyName(Policy);
    EXPECT_EQ(Serial.HtmlReport, Parallel.HtmlReport)
        << "policy " << numaPolicyName(Policy);
    EXPECT_EQ(Serial.Samples, Parallel.Samples);
    EXPECT_EQ(Serial.RemoteSamples, Parallel.RemoteSamples);
  }
}

// --- Serialisation round trip ----------------------------------------------

TEST(NumaProfile, NodeHistogramsSurviveSerialisation) {
  ThreadProfile P(7, "numa");
  CctNodeId Node = P.cct().insertPath(
      {StackFrame{0, 0}}); // One synthetic frame.
  AllocKey Key{7, Node};
  P.recordAllocation(Node, "long[]", 4096);
  P.recordObjectSample(Key, "long[]", PerfEventKind::L1Miss, Node,
                       /*Remote=*/true, /*HomeNode=*/0, /*CpuNode=*/1);
  P.recordObjectSample(Key, "long[]", PerfEventKind::L1Miss, Node,
                       /*Remote=*/false, /*HomeNode=*/1, /*CpuNode=*/1);

  std::string Bytes;
  P.encode(Bytes);
  ThreadProfile Back(7, "");
  ASSERT_TRUE(Back.apply(Bytes));
  const ObjectGroupStats &G = Back.groups().at(Key);
  EXPECT_EQ(G.RemoteSamples, 1u);
  EXPECT_EQ(G.AddressSamples, 2u);
  ASSERT_EQ(G.HomeNodeSamples.size(), 2u);
  EXPECT_EQ(G.HomeNodeSamples.at(0), 1u);
  EXPECT_EQ(G.HomeNodeSamples.at(1), 1u);
  ASSERT_EQ(G.AccessNodeSamples.size(), 1u);
  EXPECT_EQ(G.AccessNodeSamples.at(1), 2u);
}

} // namespace
