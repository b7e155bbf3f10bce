//===- determinism_test.cpp - Golden determinism of the simulation pipeline -===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Guards the hot-path optimisations (interpreter frame arena, shift/mask
/// caches, MRU memos, NUMA page table, PMU interest mask): a fixed
/// workload must produce byte-identical profiler reports and
/// value-identical hierarchy statistics on every run. Any fast path that
/// changes a simulated outcome — rather than just reaching it faster —
/// trips these comparisons.
///
//===----------------------------------------------------------------------===//

#include "core/DjxPerf.h"
#include "core/Report.h"
#include "workloads/BytecodePrograms.h"
#include "workloads/Parallel.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(determinism_test, 0.0, 0.0);

/// Everything observable from one profiled run of the fixed VM workload.
struct RunOutcome {
  std::string ObjectReport;
  std::string CodeReport;
  HierarchyStats Machine;
  uint64_t TotalCycles = 0;
  uint64_t PeakHeap = 0;
  uint64_t Samples = 0;
  uint64_t AllocCallbacks = 0;
};

void expectSameStats(const HierarchyStats &A, const HierarchyStats &B) {
  EXPECT_EQ(A.Accesses, B.Accesses);
  EXPECT_EQ(A.L1Misses, B.L1Misses);
  EXPECT_EQ(A.L2Misses, B.L2Misses);
  EXPECT_EQ(A.L3Misses, B.L3Misses);
  EXPECT_EQ(A.TlbMisses, B.TlbMisses);
  EXPECT_EQ(A.RemoteAccesses, B.RemoteAccesses);
  EXPECT_EQ(A.TotalLatency, B.TotalLatency);
}

/// A fixed direct-VM workload (no interpreter): allocation churn that
/// triggers GCs, a hot-array sweep, and enough tracked objects to populate
/// the profiler's index.
SuiteEntry fixedEntry() {
  SuiteEntry E;
  E.Suite = "determinism";
  E.Name = "golden";
  E.SmallAllocs = 20000;
  E.TrackedAllocs = 256;
  E.TrackedBytes = 1024;
  E.LiveTracked = 256;
  E.HotReads = 100000;
  E.HotBytes = 64 * 1024;
  E.Config.HeapBytes = 4 << 20;
  return E;
}

RunOutcome runFixedVmWorkload() {
  SuiteEntry E = fixedEntry();
  JavaVm Vm(E.Config);
  DjxPerf Prof(Vm);
  Prof.start();
  runSuiteEntry(Vm, E);
  Prof.stop();

  RunOutcome O;
  MergedProfile P = Prof.analyze();
  O.ObjectReport = renderObjectCentric(P, Vm.methods());
  O.CodeReport = renderCodeCentric(P, Vm.methods());
  O.Machine = Vm.machine().stats();
  O.TotalCycles = Vm.totalCycles();
  O.PeakHeap = Vm.peakHeapBytes();
  O.Samples = Prof.samplesHandled();
  O.AllocCallbacks = Prof.allocationCallbacks();
  return O;
}

/// A fixed interpreted workload through the instrumented-bytecode agent
/// path: method invocation, allocation hooks, prim-array stores, GC.
RunOutcome runFixedInterpWorkload(uint64_t *StepsOut = nullptr) {
  VmConfig Cfg;
  Cfg.HeapBytes = 4 << 20;
  JavaVm Vm(Cfg);
  BytecodeProgram Program = buildBatikProgram(Vm.types());
  Program.load(Vm);
  JavaThread &T = Vm.startThread("golden", 0);
  Interpreter Interp(Vm, Program, T);
  DjxPerf Prof(Vm);
  Prof.instrument(Program, Interp);
  Prof.start();
  Interp.run("Main.run", {Value::fromInt(400), Value::fromInt(512)});
  Prof.stop();
  Vm.endThread(T);

  RunOutcome O;
  MergedProfile P = Prof.analyze();
  O.ObjectReport = renderObjectCentric(P, Vm.methods());
  O.CodeReport = renderCodeCentric(P, Vm.methods());
  O.Machine = Vm.machine().stats();
  O.TotalCycles = Vm.totalCycles();
  O.PeakHeap = Vm.peakHeapBytes();
  O.Samples = Prof.samplesHandled();
  O.AllocCallbacks = Prof.allocationCallbacks();
  if (StepsOut)
    *StepsOut = Interp.stepsExecuted();
  return O;
}

TEST(GoldenDeterminism, VmWorkloadIsByteIdenticalAcrossRuns) {
  RunOutcome A = runFixedVmWorkload();
  RunOutcome B = runFixedVmWorkload();
  EXPECT_EQ(A.ObjectReport, B.ObjectReport);
  EXPECT_EQ(A.CodeReport, B.CodeReport);
  expectSameStats(A.Machine, B.Machine);
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  EXPECT_EQ(A.PeakHeap, B.PeakHeap);
  EXPECT_EQ(A.Samples, B.Samples);
  EXPECT_EQ(A.AllocCallbacks, B.AllocCallbacks);
  // Sanity: the workload actually exercised the pipeline.
  EXPECT_GT(A.Machine.Accesses, 0u);
  EXPECT_GT(A.Samples, 0u);
  EXPECT_FALSE(A.ObjectReport.empty());
}

TEST(GoldenDeterminism, InterpWorkloadIsByteIdenticalAcrossRuns) {
  uint64_t StepsA = 0, StepsB = 0;
  RunOutcome A = runFixedInterpWorkload(&StepsA);
  RunOutcome B = runFixedInterpWorkload(&StepsB);
  EXPECT_EQ(StepsA, StepsB);
  EXPECT_EQ(A.ObjectReport, B.ObjectReport);
  EXPECT_EQ(A.CodeReport, B.CodeReport);
  expectSameStats(A.Machine, B.Machine);
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  EXPECT_EQ(A.PeakHeap, B.PeakHeap);
  EXPECT_EQ(A.Samples, B.Samples);
  EXPECT_EQ(A.AllocCallbacks, B.AllocCallbacks);
  EXPECT_GT(StepsA, 0u);
  EXPECT_GT(A.AllocCallbacks, 0u);
}

/// A fixed multi-threaded workload through the parallel runtime: 4
/// simulated threads on sharded heap/index with safepoint GCs. \p Jobs
/// sets host parallelism only; every observable byte must be invariant.
RunOutcome runFixedMtWorkload(unsigned Jobs, uint64_t *SafepointsOut) {
  ParallelConfig Pc;
  Pc.SimThreads = 4;
  Pc.Jobs = Jobs;
  Pc.QuantumSteps = 8192;
  Pc.Iters = 500; // 500 KiB churn per 512 KiB shard: safepoints happen.
  Pc.Nlen = 256;
  Pc.HotElems = 16384;               // 128 KiB: sweeps miss L1.
  Pc.HeapBytesPerThread = 512 << 10; // Churn forces safepoint GCs.

  JavaVm Vm(parallelVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start();
  ParallelOutcome Run = runParallelWorkload(Vm, &Prof, Pc);
  Prof.stop();

  RunOutcome O;
  MergedProfile P = Prof.analyze();
  O.ObjectReport = renderObjectCentric(P, Vm.methods());
  O.CodeReport = renderCodeCentric(P, Vm.methods());
  O.Machine = Run.Machine; // Deterministic merge across worker machines.
  O.TotalCycles = Vm.totalCycles();
  O.PeakHeap = Vm.peakHeapBytes();
  O.Samples = Prof.samplesHandled();
  O.AllocCallbacks = Prof.allocationCallbacks();
  if (SafepointsOut)
    *SafepointsOut = Run.Safepoints;
  return O;
}

/// The tentpole guarantee of the parallel runtime: the merged profile and
/// reports are byte-identical for any --jobs value (at 1 the calling
/// thread is the only worker), even with safepoint GCs and index
/// relocation batches in play.
TEST(GoldenDeterminism, MtWorkloadIsByteIdenticalAcrossJobs) {
  uint64_t Sp1 = 0, Sp2 = 0, Sp4 = 0;
  RunOutcome J1 = runFixedMtWorkload(1, &Sp1);
  RunOutcome J2 = runFixedMtWorkload(2, &Sp2);
  RunOutcome J4 = runFixedMtWorkload(4, &Sp4);

  for (const RunOutcome *O : {&J2, &J4}) {
    EXPECT_EQ(O->ObjectReport, J1.ObjectReport);
    EXPECT_EQ(O->CodeReport, J1.CodeReport);
    expectSameStats(O->Machine, J1.Machine);
    EXPECT_EQ(O->TotalCycles, J1.TotalCycles);
    EXPECT_EQ(O->PeakHeap, J1.PeakHeap);
    EXPECT_EQ(O->Samples, J1.Samples);
    EXPECT_EQ(O->AllocCallbacks, J1.AllocCallbacks);
  }
  EXPECT_EQ(Sp2, Sp1);
  EXPECT_EQ(Sp4, Sp1);
  // Sanity: the run exercised the cross-thread machinery for real.
  EXPECT_GT(Sp1, 0u);
  EXPECT_GT(J1.Samples, 0u);
  EXPECT_NE(J1.ObjectReport.find("long[]"), std::string::npos)
      << J1.ObjectReport;
}

/// Native (unprofiled) runs must also be reproducible: the simulator's
/// cycle accounting feeds every overhead experiment.
TEST(GoldenDeterminism, NativeRunReproducesCyclesAndStats) {
  SuiteEntry E = fixedEntry();
  JavaVm VmA(E.Config);
  runSuiteEntry(VmA, E);
  JavaVm VmB(E.Config);
  runSuiteEntry(VmB, E);
  expectSameStats(VmA.machine().stats(), VmB.machine().stats());
  EXPECT_EQ(VmA.totalCycles(), VmB.totalCycles());
  EXPECT_EQ(VmA.peakHeapBytes(), VmB.peakHeapBytes());
}

} // namespace
