//===- tier_test.cpp - Tiered execution: golden parity + trace compiler ----===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The super tier's contract is absolute: hot-trace superinstructions are
/// a *wall-clock* optimisation and may not move one observable byte.
/// These tests pin that contract from every angle the repo knows how to
/// disturb it — serial and multi-threaded golden diffs against the interp
/// tier, --jobs sweeps, NUMA placement policies, fuzzed schedules, fault
/// campaigns, quantum pause trajectories, and mid-trace GcRequest
/// re-execution — plus unit tests for the trace compiler's fusion and
/// shape analysis, the per-interpreter trace cache's state machine, and
/// deopt-at-safepoint invalidation.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Disassembler.h"
#include "bytecode/MethodBuilder.h"
#include "bytecode/TraceCompiler.h"
#include "core/DjxPerf.h"
#include "core/Report.h"
#include "instrument/AllocationInstrumenter.h"
#include "interp/Interpreter.h"
#include "runtime/Executor.h"
#include "support/FaultInjector.h"
#include "support/Random.h"
#include "support/VmError.h"
#include "workloads/BytecodePrograms.h"
#include "workloads/Parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(tier_test, 97.0, 74.0,
    "src/bytecode/TraceCompiler.cpp",
    "src/bytecode/TraceCompiler.h",
    "src/interp/SuperTier.cpp",
    "src/interp/TraceCache.cpp",
    "src/interp/TraceCache.h");

TierConfig superTier(uint32_t HotThreshold = 4) {
  TierConfig Cfg;
  Cfg.Tier = ExecTier::Super;
  Cfg.HotThreshold = HotThreshold;
  return Cfg;
}

/// Builds a one-method program shaped like the catalog's hot loops:
///   for (i = 0; i < n; ++i) a[i] = i;   over a fresh float[n]
/// — the iload/if_icmpge head, pastore body, and iinc idiom the fused
/// superinstructions target. Locals: 0 = n, 1 = a, 2 = i.
BytecodeProgram sweepProgram(TypeRegistry &Types, int64_t N) {
  MethodBuilder B("T", "main", 0, 4);
  B.iconst(N).istore(0);
  B.iload(0).newArray(Types.floatArray()).astore(1);
  B.iconst(0).istore(2);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(2).iload(0).ifICmp(Opcode::IfICmpGe, End);
  B.aload(1).iload(2).iload(2).paStore();
  B.iload(2).iconst(1).iadd().istore(2);
  B.jmp(Head);
  B.bind(End);
  B.iload(2).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

/// Pc of the loop head in sweepProgram's method (first instruction after
/// the two-instruction init prologues: 2 + 3 + 2 = 7).
constexpr uint32_t kSweepLoopHead = 7;

/// Allocation-churn loop: 2000 iterations each allocating a fresh
/// float[64] that dies immediately. On a tiny heap every few iterations
/// fault into a GC; on a large heap none do. Locals: 0 = i, 1 = scratch.
BytecodeProgram churnProgram(TypeRegistry &Types) {
  MethodBuilder B("T", "main", 0, 4);
  B.iconst(0).istore(0);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(0).iconst(2000).ifICmp(Opcode::IfICmpGe, End);
  B.iconst(64).newArray(Types.floatArray()).astore(1);
  B.iload(0).iconst(1).iadd().istore(0);
  B.jmp(Head);
  B.bind(End);
  B.iconst(0).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

// --- Trace compiler ------------------------------------------------------

TEST(TraceCompiler, FusesHotLoopIdioms) {
  JavaVm Vm;
  BytecodeProgram P = sweepProgram(Vm.types(), 64);
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];

  auto T = compileTrace(M, kSweepLoopHead, superTier());
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->EntryPc, kSweepLoopHead);

  std::vector<SuperOp> Kinds;
  for (const TraceOp &O : T->Ops)
    Kinds.push_back(O.Kind);
  EXPECT_EQ(Kinds,
            (std::vector<SuperOp>{SuperOp::CmpBranchLL, SuperOp::PAStoreLLL,
                                  SuperOp::IncLocal, SuperOp::GotoExit}));
  // The whole loop body fuses into 4 superops retiring 12 instructions.
  EXPECT_EQ(T->NumSteps, 12u);
  // The backward goto exits to the loop head; the side exit targets the
  // instruction after the loop.
  EXPECT_EQ(T->Ops.back().A, kSweepLoopHead);
  EXPECT_EQ(T->Ops.front().Src, Opcode::IfICmpGe);
  // Step accounting invariants the executing tier's budget checks rely
  // on: NumSteps is the sum of per-op charges and StepsAfter is the
  // suffix sum that follows each op.
  uint32_t Sum = 0, After = T->NumSteps;
  for (const TraceOp &O : T->Ops) {
    Sum += O.NumSteps;
    After -= O.NumSteps;
    EXPECT_EQ(O.StepsAfter, After);
  }
  EXPECT_EQ(Sum, T->NumSteps);
  // The loop body never holds operands across iterations; its deepest
  // point is pastore's three operands, the method's verified max_stack.
  EXPECT_EQ(T->MinStackDepth, 0u);
  EXPECT_EQ(M.MaxStack, 3u);
}

TEST(TraceCompiler, TierNamesRoundTrip) {
  EXPECT_STREQ(execTierName(ExecTier::Interp), "interp");
  EXPECT_STREQ(execTierName(ExecTier::Super), "super");
  ExecTier T = ExecTier::Interp;
  EXPECT_TRUE(parseExecTier("super", T));
  EXPECT_EQ(T, ExecTier::Super);
  EXPECT_TRUE(parseExecTier("interp", T));
  EXPECT_EQ(T, ExecTier::Interp);
  T = ExecTier::Super;
  EXPECT_FALSE(parseExecTier("jit", T));
  EXPECT_EQ(T, ExecTier::Super); // Unknown names leave the output alone.
}

/// Builds a method exercising the base (non-fused) encodings: stack
/// shuffles, negation, a decrementing inc_local, and a 2-D allocation.
/// Returns ((-(5)) computed via dup/swap shuffling, then counts down).
BytecodeProgram shuffleProgram(TypeRegistry &Types) {
  MethodBuilder B("T", "main", 0, 4);
  B.iconst(3).istore(0);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(0).ifEq(End);
  B.iconst(5).dup().iadd().ineg();   // -(5+5)
  B.iconst(2).swap().pop().pop();    // Shuffle, then discard both.
  B.iconst(2).iconst(3).multiANewArray(Types.intArray(), 2).astore(1);
  B.iload(0).iconst(1).isub().istore(0); // Decrementing inc_local.
  B.jmp(Head);
  B.bind(End);
  B.iload(0).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

TEST(TraceCompiler, BaseEncodingsCoverStackShufflesAndMultiArrays) {
  JavaVm Vm;
  BytecodeProgram P = shuffleProgram(Vm.types());
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];
  // Compile at the loop head (pc 2, after the two-instruction prologue).
  auto T = compileTrace(M, 2, superTier());
  ASSERT_TRUE(T.has_value());
  std::vector<SuperOp> Kinds;
  for (const TraceOp &O : T->Ops)
    Kinds.push_back(O.Kind);
  auto Has = [&](SuperOp K) {
    return std::find(Kinds.begin(), Kinds.end(), K) != Kinds.end();
  };
  EXPECT_TRUE(Has(SuperOp::DupV));
  EXPECT_TRUE(Has(SuperOp::SwapV));
  EXPECT_TRUE(Has(SuperOp::INeg));
  EXPECT_TRUE(Has(SuperOp::PopV));
  EXPECT_TRUE(Has(SuperOp::Alloc));
  EXPECT_TRUE(Has(SuperOp::IncLocal)); // The iload/iconst/isub/istore run.

  // And the program runs identically in both tiers, exercising the
  // executing side of every base encoding above.
  auto Run = [&](ExecTier Tier) {
    JavaVm RunVm;
    BytecodeProgram RunP = shuffleProgram(RunVm.types());
    RunP.load(RunVm);
    JavaThread &Th = RunVm.startThread("shuffle", 0);
    Interpreter I(RunVm, RunP, Th);
    if (Tier == ExecTier::Super)
      I.setTier(superTier(/*HotThreshold=*/1));
    auto R = I.run("T.main");
    uint64_t Cycles = RunVm.totalCycles();
    uint64_t Steps = I.stepsExecuted();
    RunVm.endThread(Th);
    EXPECT_TRUE(R.has_value());
    return std::make_tuple(R->asInt(), Steps, Cycles);
  };
  EXPECT_EQ(Run(ExecTier::Super), Run(ExecTier::Interp));
}

TEST(TraceCache, SiteCountIsBoundsChecked) {
  TraceCache Cache(superTier());
  EXPECT_EQ(Cache.siteCount(0, 0), 0u);   // No method arrays yet.
  (void)Cache.sitesFor(0, 4);
  EXPECT_EQ(Cache.siteCount(0, 9), 0u);   // Pc past the code size.
  EXPECT_EQ(Cache.siteCount(7, 0), 0u);   // Method never touched.
}

TEST(TraceCompiler, RejectsRegionsTooShortToPay) {
  JavaVm Vm;
  MethodBuilder B("T", "main", 0, 2);
  B.iconst(7).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];
  // IRet ends trace formation immediately: a one-instruction region does
  // not pay for trace entry, and the iret pc itself yields zero steps.
  EXPECT_FALSE(compileTrace(M, 0, superTier()).has_value());
  EXPECT_FALSE(compileTrace(M, 1, superTier()).has_value());
}

TEST(TraceCompiler, MaxTraceLengthCapsFormation) {
  JavaVm Vm;
  MethodBuilder B("T", "main", 0, 2);
  for (int I = 0; I < 16; ++I)
    B.iconst(I).pop();
  B.iconst(0).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];

  TierConfig Cfg = superTier();
  Cfg.MaxTraceLength = 8;
  auto T = compileTrace(M, 0, Cfg);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->NumSteps, 8u);
  EXPECT_EQ(T->EndPc, 8u); // Falls through to the flat loop mid-method.
}

TEST(TraceCompiler, ShapeAnalysisTracksEntryDepthAndGrowth) {
  JavaVm Vm;
  MethodBuilder B("T", "main", 0, 2);
  B.iconst(1).iconst(2);
  // Entry pc 2: consumes the two operands already on the stack at entry.
  B.iadd().istore(0);
  B.iconst(3).iconst(4).iconst(5).pop().pop().pop();
  B.iconst(0).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];

  auto T = compileTrace(M, 2, superTier());
  ASSERT_TRUE(T.has_value());
  // iadd pops 2 below the entry depth; the iconst run later grows 3
  // above it (net -2 at that point, peak +1 relative to entry). The
  // frame's verified max_stack covers that peak: entry depth 2, plus 1.
  EXPECT_EQ(T->MinStackDepth, 2u);
  EXPECT_EQ(M.MaxStack, 3u);
}

// --- Disassembler --------------------------------------------------------

TEST(Disassembler, RendersCompiledTraces) {
  JavaVm Vm;
  BytecodeProgram P = sweepProgram(Vm.types(), 64);
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];
  auto T = compileTrace(M, kSweepLoopHead, superTier());
  ASSERT_TRUE(T.has_value());

  std::string Text = disassembleTrace(M, *T);
  EXPECT_NE(Text.find("trace T.main @7"), std::string::npos) << Text;
  EXPECT_NE(Text.find("cmp_branch_ll"), std::string::npos) << Text;
  EXPECT_NE(Text.find("[side exit]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("pa_store_lll"), std::string::npos) << Text;
  EXPECT_NE(Text.find("inc_local"), std::string::npos) << Text;
  EXPECT_NE(Text.find("goto_exit"), std::string::npos) << Text;
}

// --- Trace cache ---------------------------------------------------------

TEST(TraceCache, WarmsCompilesInvalidatesRecompiles) {
  JavaVm Vm;
  BytecodeProgram P = sweepProgram(Vm.types(), 64);
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];

  TraceCache Cache(superTier(/*HotThreshold=*/3));
  TraceCache::Site *Sites = Cache.sitesFor(0, M.Code.size());

  // Two dispatches warm the counter without compiling.
  EXPECT_EQ(Cache.bump(Sites[kSweepLoopHead], M, kSweepLoopHead), nullptr);
  EXPECT_EQ(Cache.bump(Sites[kSweepLoopHead], M, kSweepLoopHead), nullptr);
  EXPECT_EQ(Cache.siteCount(0, kSweepLoopHead), 2u);
  EXPECT_EQ(Sites[kSweepLoopHead].St, TraceCache::Site::Cold);

  // The third crosses the threshold and compiles.
  const CompiledTrace *T =
      Cache.bump(Sites[kSweepLoopHead], M, kSweepLoopHead);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Sites[kSweepLoopHead].St, TraceCache::Site::Compiled);
  EXPECT_EQ(Cache.stats().Compiles, 1u);

  // Safepoint invalidation frees the trace but keeps the counter
  // saturated, so the next flat visit recompiles immediately.
  Cache.invalidate();
  EXPECT_EQ(Sites[kSweepLoopHead].St, TraceCache::Site::Cold);
  EXPECT_EQ(Cache.stats().Invalidations, 1u);
  EXPECT_EQ(Cache.siteCount(0, kSweepLoopHead),
            Cache.config().HotThreshold);
  ASSERT_NE(Cache.bump(Sites[kSweepLoopHead], M, kSweepLoopHead), nullptr);
  EXPECT_EQ(Cache.stats().Compiles, 2u);
}

TEST(TraceCache, UncompilableSitesGoDead) {
  JavaVm Vm;
  MethodBuilder B("T", "main", 0, 2);
  B.iconst(7).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];

  TraceCache Cache(superTier(/*HotThreshold=*/1));
  TraceCache::Site *Sites = Cache.sitesFor(0, M.Code.size());
  EXPECT_EQ(Cache.bump(Sites[0], M, 0), nullptr);
  EXPECT_EQ(Sites[0].St, TraceCache::Site::Dead);
  EXPECT_EQ(Cache.stats().DeadSites, 1u);
  EXPECT_EQ(Cache.stats().Compiles, 0u);
}

// --- Golden parity: serial ----------------------------------------------

/// Everything observable from one profiled serial batik run.
struct SerialOutcome {
  std::string ObjectReport;
  std::string CodeReport;
  uint64_t Steps = 0;
  uint64_t TotalCycles = 0;
  uint64_t PeakHeap = 0;
  uint64_t Samples = 0;
  uint64_t AllocCallbacks = 0;
  uint64_t Compiles = 0;

  bool operator==(const SerialOutcome &O) const {
    return ObjectReport == O.ObjectReport && CodeReport == O.CodeReport &&
           Steps == O.Steps && TotalCycles == O.TotalCycles &&
           PeakHeap == O.PeakHeap && Samples == O.Samples &&
           AllocCallbacks == O.AllocCallbacks;
  }
};

SerialOutcome runSerialBatik(ExecTier Tier) {
  VmConfig Cfg;
  Cfg.HeapBytes = 4 << 20; // Small: inline AutoGc collections happen.
  JavaVm Vm(Cfg);
  BytecodeProgram Program = buildBatikProgram(Vm.types());
  Program.load(Vm);
  JavaThread &T = Vm.startThread("tier", 0);
  Interpreter Interp(Vm, Program, T);
  if (Tier == ExecTier::Super)
    Interp.setTier(superTier());
  DjxPerf Prof(Vm);
  Prof.instrument(Program, Interp);
  Prof.start();
  Interp.run("Main.run", {Value::fromInt(400), Value::fromInt(512)});
  Prof.stop();

  SerialOutcome O;
  MergedProfile P = Prof.analyze();
  O.ObjectReport = renderObjectCentric(P, Vm.methods());
  O.CodeReport = renderCodeCentric(P, Vm.methods());
  O.Steps = Interp.stepsExecuted();
  O.TotalCycles = Vm.totalCycles();
  O.PeakHeap = Vm.peakHeapBytes();
  O.Samples = Prof.samplesHandled();
  O.AllocCallbacks = Prof.allocationCallbacks();
  if (const TraceCache *Cache = Interp.traceCache())
    O.Compiles = Cache->stats().Compiles;
  Vm.endThread(T);
  return O;
}

TEST(TierParity, SerialReportsByteIdenticalAcrossTiers) {
  SerialOutcome Interp = runSerialBatik(ExecTier::Interp);
  SerialOutcome Super = runSerialBatik(ExecTier::Super);
  EXPECT_TRUE(Super == Interp)
      << "--- interp ---\n" << Interp.ObjectReport
      << "\n--- super ---\n" << Super.ObjectReport;
  // Sanity: the super run actually ran traces, not just the flat loop.
  EXPECT_EQ(Interp.Compiles, 0u);
  EXPECT_GT(Super.Compiles, 0u);
  EXPECT_GT(Super.Samples, 0u);
  EXPECT_GT(Super.AllocCallbacks, 0u);
}

// --- Golden parity: multi-threaded --------------------------------------

/// Everything observable from one profiled MT run.
struct MtOutcome {
  std::string ObjectReport;
  std::string CodeReport;
  uint64_t Steps = 0;
  uint64_t Safepoints = 0;
  uint64_t Rounds = 0;
  uint64_t TotalCycles = 0;
  uint64_t PeakHeap = 0;
  uint64_t Samples = 0;
  uint64_t AllocCallbacks = 0;
  uint64_t Collections = 0;
  HierarchyStats Machine;

  bool operator==(const MtOutcome &O) const {
    return ObjectReport == O.ObjectReport && CodeReport == O.CodeReport &&
           Steps == O.Steps && Safepoints == O.Safepoints &&
           Rounds == O.Rounds && TotalCycles == O.TotalCycles &&
           PeakHeap == O.PeakHeap && Samples == O.Samples &&
           AllocCallbacks == O.AllocCallbacks &&
           Collections == O.Collections &&
           Machine.Accesses == O.Machine.Accesses &&
           Machine.L1Misses == O.Machine.L1Misses &&
           Machine.TlbMisses == O.Machine.TlbMisses &&
           Machine.RemoteAccesses == O.Machine.RemoteAccesses &&
           Machine.TotalLatency == O.Machine.TotalLatency;
  }
};

ParallelConfig mtWorkload() {
  ParallelConfig Pc;
  Pc.SimThreads = 4;
  Pc.QuantumSteps = 8192;
  Pc.Iters = 500;
  Pc.Nlen = 256;
  Pc.HotElems = 16384;               // 128 KiB: sweeps miss L1.
  Pc.HeapBytesPerThread = 512 << 10; // Churn forces safepoint GCs.
  return Pc;
}

MtOutcome runMt(ParallelConfig Pc, bool NumaRemote = false) {
  JavaVm Vm(NumaRemote ? numaRemoteVmConfig(Pc) : parallelVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start();
  ParallelOutcome Run = NumaRemote ? runNumaRemoteWorkload(Vm, &Prof, Pc)
                                   : runParallelWorkload(Vm, &Prof, Pc);
  Prof.stop();

  MtOutcome O;
  MergedProfile P = Prof.analyze();
  O.ObjectReport = renderObjectCentric(P, Vm.methods());
  O.CodeReport = renderCodeCentric(P, Vm.methods());
  O.Steps = Run.Steps;
  O.Safepoints = Run.Safepoints;
  O.Rounds = Run.Rounds;
  O.TotalCycles = Vm.totalCycles();
  O.PeakHeap = Vm.peakHeapBytes();
  O.Samples = Prof.samplesHandled();
  O.AllocCallbacks = Prof.allocationCallbacks();
  O.Collections = Vm.gcTotals().Collections;
  O.Machine = Run.Machine;
  return O;
}

/// The tentpole acceptance test: `--tier super` is byte-identical to
/// `--tier interp` on the parallel workload for every --jobs value, with
/// safepoint GCs (= mid-trace GcRequest unwinds and deopt-at-safepoint
/// invalidation) in play.
TEST(TierParity, MtWorkloadByteIdenticalAcrossTiersAndJobs) {
  ParallelConfig Golden = mtWorkload();
  Golden.Jobs = 1;
  MtOutcome Interp = runMt(Golden);
  // Sanity: safepoint GCs actually interrupted traces.
  EXPECT_GT(Interp.Safepoints, 0u);
  EXPECT_GT(Interp.Collections, 0u);
  EXPECT_GT(Interp.Samples, 0u);

  for (unsigned Jobs : {1u, 2u, 4u}) {
    ParallelConfig Pc = mtWorkload();
    Pc.Jobs = Jobs;
    Pc.Tier = superTier();
    MtOutcome Super = runMt(Pc);
    EXPECT_TRUE(Super == Interp)
        << "jobs=" << Jobs << "\n--- interp ---\n" << Interp.ObjectReport
        << "\n--- super ---\n" << Super.ObjectReport;
  }
}

/// NUMA placement policies change simulated placement, not the schedule;
/// the super tier must reproduce the interp tier under each of them.
TEST(TierParity, NumaWorkloadByteIdenticalAcrossPolicies) {
  for (NumaPolicy Policy :
       {NumaPolicy::FirstTouch, NumaPolicy::Interleave, NumaPolicy::Bind}) {
    ParallelConfig Pc;
    Pc.SimThreads = 4;
    Pc.Jobs = 2;
    Pc.Iters = 150;
    Pc.Nlen = 256;
    Pc.HotElems = 32768; // 256 KiB: above the scaled L3, sweeps hit DRAM.
    Pc.HeapBytesPerThread = 512 << 10;
    Pc.Policy = Policy;
    MtOutcome Interp = runMt(Pc, /*NumaRemote=*/true);
    Pc.Tier = superTier();
    MtOutcome Super = runMt(Pc, /*NumaRemote=*/true);
    EXPECT_TRUE(Super == Interp)
        << "policy=" << static_cast<int>(Policy) << "\n--- interp ---\n"
        << Interp.ObjectReport << "\n--- super ---\n" << Super.ObjectReport;
  }
}

/// Fuzzed logical schedules (per-round quantum draws, forced GC rounds,
/// drain splits) are still workloads; the tier may not show through any
/// of them. Fixed seeds keep the property stable in CI.
TEST(TierParity, FuzzedSchedulesAreTierInvariant) {
  for (uint64_t Seed : {0x9E3779B97F4A7C15ULL, 0xBF58476D1CE4E5B9ULL,
                        0x94D049BB133111EBULL, 0x2545F4914F6CDD1DULL,
                        0xD1342543DE82EF95ULL, 0xAF251AF3B0F025B5ULL}) {
    ParallelConfig Pc;
    Pc.SimThreads = 3;
    Pc.Iters = 100;
    Pc.Nlen = 128;
    Pc.HotElems = 8192;
    Pc.HeapBytesPerThread = 256 << 10;
    Pc.Fuzz.Enabled = true;
    Pc.Fuzz.Seed = Seed;
    Pc.Jobs = 1;
    MtOutcome Interp = runMt(Pc);
    Pc.Jobs = 2;
    Pc.Tier = superTier();
    MtOutcome Super = runMt(Pc);
    EXPECT_TRUE(Super == Interp)
        << "seed=0x" << std::hex << Seed << "\n--- interp ---\n"
        << Interp.ObjectReport << "\n--- super ---\n" << Super.ObjectReport;
  }
}

// --- Fault-injection parity ----------------------------------------------

/// Clears the process-global injector on scope exit so a failing
/// assertion cannot leak an armed plan into the next test.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::clear(); }
};

/// Outcome of one fault-campaign run: whether it failed, how, and what
/// the salvaged profile says.
struct FaultOutcome {
  bool Failed = false;
  int ErrorKind = -1;
  std::string Describe;
  std::string ObjectReport;
  uint64_t Samples = 0;

  bool operator==(const FaultOutcome &O) const {
    return Failed == O.Failed && ErrorKind == O.ErrorKind &&
           Describe == O.Describe && ObjectReport == O.ObjectReport &&
           Samples == O.Samples;
  }
};

FaultOutcome runFaulted(const FaultPlan &Plan, ExecTier Tier) {
  InjectorGuard Guard;
  FaultInjector::install(Plan);
  ParallelConfig Pc;
  Pc.SimThreads = 3;
  Pc.Iters = 60;
  Pc.Nlen = 128;
  Pc.HotElems = 8192;
  Pc.HeapBytesPerThread = 256 << 10;
  Pc.Jobs = 2;
  if (Tier == ExecTier::Super)
    Pc.Tier = superTier();
  JavaVm Vm(parallelVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start();
  FaultOutcome O;
  try {
    runParallelWorkload(Vm, &Prof, Pc);
  } catch (const VmError &E) {
    O.Failed = true;
    O.ErrorKind = static_cast<int>(E.Kind);
    O.Describe = E.describe();
  }
  Prof.stop();
  FaultInjector::clear();
  MergedProfile P = Prof.analyze();
  O.ObjectReport = renderObjectCentric(P, Vm.methods());
  O.Samples = Prof.samplesHandled();
  return O;
}

/// Every fault key is a logical coordinate, so a campaign's outcome —
/// including whether it fails at all, the error kind, and the salvaged
/// partial profile — must agree between tiers: traces re-execute the
/// faulting instruction in the flat loop without re-drawing any fault.
TEST(TierParity, FaultCampaignsAreTierInvariant) {
  int Compared = 0;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    for (int Preset = 0; Preset < 2; ++Preset) {
      FaultPlan Plan;
      Plan.Seed = 0x9E3779B97F4A7C15ULL * Seed;
      if (Preset == 0)
        Plan.rate(FaultSite::HeapAlloc) = 2e-4;
      else
        Plan.rate(FaultSite::GcCollect) = 0.5;
      FaultOutcome Interp = runFaulted(Plan, ExecTier::Interp);
      FaultOutcome Super = runFaulted(Plan, ExecTier::Super);
      EXPECT_TRUE(Super == Interp)
          << "seed=" << Seed << " preset=" << Preset
          << " interp failed=" << Interp.Failed << " '" << Interp.Describe
          << "' super failed=" << Super.Failed << " '" << Super.Describe
          << "'";
      ++Compared;
    }
  }
  EXPECT_EQ(Compared, 8);
}

// --- Quantum accounting ---------------------------------------------------

/// resume(MaxSteps) must pause at exactly the same step trajectory in
/// both tiers: trace admission charges the whole trace against the
/// quantum up front and declines when it does not fit, so quantum
/// boundaries land on identical instructions.
TEST(TierParity, QuantumPauseTrajectoryMatchesInterp) {
  auto Trajectory = [](ExecTier Tier, uint64_t Quantum) {
    VmConfig Cfg;
    Cfg.HeapBytes = 8 << 20;
    JavaVm Vm(Cfg);
    BytecodeProgram Program = buildBatikProgram(Vm.types());
    Program.load(Vm);
    JavaThread &T = Vm.startThread("tier", 0);
    Interpreter Interp(Vm, Program, T);
    if (Tier == ExecTier::Super)
      Interp.setTier(superTier());
    Interp.startCall("Main.run", {Value::fromInt(50), Value::fromInt(128)});
    std::vector<uint64_t> Pauses;
    while (Interp.resume(Quantum) == RunState::Paused)
      Pauses.push_back(Interp.stepsExecuted());
    Pauses.push_back(Interp.stepsExecuted());
    uint64_t Cycles = Vm.totalCycles();
    Vm.endThread(T);
    return std::make_tuple(Pauses, Cycles);
  };
  // An odd quantum guarantees boundaries land mid-loop, inside would-be
  // traces, so admission control is really exercised.
  for (uint64_t Quantum : {257u, 1031u, 8192u}) {
    auto Interp = Trajectory(ExecTier::Interp, Quantum);
    auto Super = Trajectory(ExecTier::Super, Quantum);
    EXPECT_EQ(std::get<0>(Super), std::get<0>(Interp)) << "q=" << Quantum;
    EXPECT_EQ(std::get<1>(Super), std::get<1>(Interp)) << "q=" << Quantum;
    EXPECT_GT(std::get<0>(Interp).size(), 2u) << "q=" << Quantum;
  }
}

// --- GcRequest re-execution accounting ------------------------------------

/// Regression test for the hot-counter double-bump: a GcRequest unwind
/// re-executes the faulting allocation in the flat loop, and that retry
/// dispatch must NOT bump the site counter again — otherwise trace
/// selection depends on GC timing and the profile stops being
/// heap-size-invariant in the warming phase. With a threshold too high
/// to ever compile, the counters are a pure dispatch census: one bump
/// per *logical* execution, so a GC-heavy tiny-heap run must census
/// identically to a GC-free large-heap one.
TEST(TierParity, GcRetryDoesNotDoubleBumpHotCounters) {
  auto Census = [](uint64_t HeapBytes, uint64_t *CollectionsOut) {
    VmConfig Cfg;
    Cfg.HeapBytes = HeapBytes;
    Cfg.HeapShards = 1;
    JavaVm Vm(Cfg);
    BytecodeProgram P = churnProgram(Vm.types());
    P.load(Vm);
    ExecutorConfig Ec;
    Ec.Jobs = 1;
    Ec.QuantumSteps = 4096;
    Ec.Tier = superTier(/*HotThreshold=*/1u << 30);
    Executor Ex(Vm, Ec);
    size_t Task = Ex.addThread(P, "T.main", {}, "census");
    Ex.run();
    EXPECT_FALSE(Ex.error().has_value());
    const TraceCache *Cache = Ex.interpreter(Task).traceCache();
    EXPECT_NE(Cache, nullptr);
    uint64_t Sum = 0;
    for (uint32_t Pc = 0; Pc < 64; ++Pc)
      Sum += Cache->siteCount(0, Pc);
    *CollectionsOut = Vm.gcTotals().Collections;
    Vm.endThread(Ex.thread(Task));
    return Sum;
  };
  uint64_t BigHeapGcs = 0, TinyHeapGcs = 0;
  uint64_t Big = Census(16ULL << 20, &BigHeapGcs);
  uint64_t Tiny = Census(64ULL << 10, &TinyHeapGcs);
  EXPECT_EQ(BigHeapGcs, 0u);
  EXPECT_GT(TinyHeapGcs, 0u) << "tiny heap never collected; the retry "
                                "path was not exercised";
  EXPECT_EQ(Tiny, Big) << "GC retries changed the dispatch census: the "
                          "faulting instruction's re-execution bumped its "
                          "hot-site counter twice";
  EXPECT_GT(Big, 0u);
}

// --- Deopt at safepoint ---------------------------------------------------

/// Safepoints invalidate every compiled trace (the flat loop owns all
/// resumed frames) and hot sites recompile on their next visit.
TEST(TierParity, SafepointsInvalidateAndRecompileTraces) {
  ParallelConfig Pc = mtWorkload();
  Pc.SimThreads = 2;
  JavaVm Vm(parallelVmConfig(Pc));
  BytecodeProgram Program = buildParallelWorkerProgram(Vm.types());
  Program.load(Vm);
  ExecutorConfig Ec;
  Ec.Jobs = 1;
  Ec.QuantumSteps = Pc.QuantumSteps;
  Ec.Tier = superTier();
  Executor Ex(Vm, Ec);
  for (unsigned I = 0; I < Pc.SimThreads; ++I)
    Ex.addThread(Program, "Main.run",
                 {Value::fromInt(Pc.Iters), Value::fromInt(Pc.Nlen),
                  Value::fromInt(Pc.HotElems)},
                 "worker-" + std::to_string(I));
  Ex.run();
  EXPECT_FALSE(Ex.error().has_value());
  EXPECT_GT(Ex.safepoints(), 0u);

  for (size_t Task = 0; Task < Ex.numTasks(); ++Task) {
    const TraceCache *Cache = Ex.interpreter(Task).traceCache();
    ASSERT_NE(Cache, nullptr);
    // Every stop-the-world pause swept this cache...
    EXPECT_EQ(Cache->stats().Invalidations, Ex.safepoints());
    // ...and the hot loops recompiled afterwards: strictly more compiles
    // than the warm-up alone would produce.
    EXPECT_GT(Cache->stats().Compiles, 0u);
    EXPECT_FALSE(Ex.interpreter(Task).renderTraces().empty());
  }
  for (size_t Task = 0; Task < Ex.numTasks(); ++Task)
    Vm.endThread(Ex.thread(Task));
}

// --- Tier-differential semantics -------------------------------------------

/// Loop trips per semantics run: the first visit of the loop head runs
/// flat, the rest run inside its trace (hot threshold 2).
constexpr int64_t kSemTrips = 6;

/// T.main(a, b) for the semantics sweep. Locals: 0 = a, 1 = b,
/// 2 = result, 3 = loop counter, 4 = array scratch. Runs \p Body
/// kSemTrips times and returns local 2.
BytecodeProgram semanticsProgram(
    const std::function<void(MethodBuilder &)> &Prelude,
    const std::function<void(MethodBuilder &)> &Body) {
  MethodBuilder B("T", "main", 2, 5);
  Prelude(B);
  B.iconst(0).istore(3);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(3).iconst(kSemTrips).ifICmp(Opcode::IfICmpGe, End);
  Body(B);
  B.iload(3).iconst(1).iadd().istore(3);
  B.jmp(Head);
  B.bind(End);
  B.iload(2).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

/// Edge operands of 64-bit JVM arithmetic -- zero, +-1, the extremes,
/// shift counts at and past the width, negative dividends -- plus seeded
/// random values.
std::vector<int64_t> semanticsOperands() {
  std::vector<int64_t> V = {0,  1,   -1,  2,         -7,
                            7,  63,  64,  65,        127,
                            INT64_MIN,    INT64_MIN + 1, INT64_MAX};
  Random Rng(0x5E3A7C5);
  for (int K = 0; K < 3; ++K)
    V.push_back(static_cast<int64_t>(Rng.next()));
  return V;
}

/// The JVM's long arithmetic, written independently of the interpreter.
int64_t jvmAlu(Opcode Op, int64_t A, int64_t B) {
  const uint64_t UA = static_cast<uint64_t>(A);
  const uint64_t UB = static_cast<uint64_t>(B);
  switch (Op) {
  case Opcode::IAdd:
    return static_cast<int64_t>(UA + UB);
  case Opcode::ISub:
    return static_cast<int64_t>(UA - UB);
  case Opcode::IMul:
    return static_cast<int64_t>(UA * UB);
  case Opcode::IDiv:
    return A == INT64_MIN && B == -1 ? INT64_MIN : A / B;
  case Opcode::IRem:
    return A == INT64_MIN && B == -1 ? 0 : A % B;
  case Opcode::INeg:
    return static_cast<int64_t>(~UA + 1);
  case Opcode::IAnd:
    return A & B;
  case Opcode::IOr:
    return A | B;
  case Opcode::IXor:
    return A ^ B;
  case Opcode::IShl:
    return static_cast<int64_t>(UA << (UB % 64));
  case Opcode::IShr:
    return A >> (UB % 64);
  default:
    ADD_FAILURE() << "not an ALU opcode";
    return 0;
  }
}

bool jvmTaken(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case Opcode::IfEq:
    return A == 0;
  case Opcode::IfNe:
    return A != 0;
  case Opcode::IfLt:
    return A < 0;
  case Opcode::IfGe:
    return A >= 0;
  case Opcode::IfICmpEq:
    return A == B;
  case Opcode::IfICmpNe:
    return A != B;
  case Opcode::IfICmpLt:
    return A < B;
  case Opcode::IfICmpGe:
    return A >= B;
  case Opcode::IfICmpGt:
    return A > B;
  case Opcode::IfICmpLe:
    return A <= B;
  default:
    ADD_FAILURE() << "not a conditional branch";
    return false;
  }
}

struct SemOutcome {
  int64_t Result = 0;
  uint64_t Steps = 0;
  uint64_t Cycles = 0;
  bool operator==(const SemOutcome &O) const {
    return Result == O.Result && Steps == O.Steps && Cycles == O.Cycles;
  }
};

using SemArgs = std::vector<std::pair<int64_t, int64_t>>;

/// Runs T.main(a, b) for every pair in \p Args on the program \p Build
/// makes, flat and in the super tier, each tier in its own VM so the
/// simulated caches see the same history. Checks the super tier
/// reproduced every result, step count and cycle count, and that its
/// traces contain each of \p SuperOps (--dump-traces text); returns the
/// flat outcomes.
std::vector<SemOutcome>
runSemantics(const std::function<BytecodeProgram(TypeRegistry &)> &Build,
             const SemArgs &Args, const std::vector<std::string> &SuperOps) {
  std::vector<SemOutcome> PerTier[2];
  for (int Super = 0; Super < 2; ++Super) {
    VmConfig Cfg;
    Cfg.HeapBytes = 1 << 18;
    JavaVm Vm(Cfg);
    BytecodeProgram P = Build(Vm.types());
    P.load(Vm);
    JavaThread &T = Vm.startThread("sem", 0);
    std::string Traces;
    for (const auto &[A, B] : Args) {
      Interpreter I(Vm, P, T);
      if (Super)
        I.setTier(superTier(2));
      const uint64_t Cycles0 = T.cycles();
      std::optional<Value> R =
          I.run("T.main", {Value::fromInt(A), Value::fromInt(B)});
      PerTier[Super].push_back(
          {R->asInt(), I.stepsExecuted(), T.cycles() - Cycles0});
      Traces += I.renderTraces();
    }
    for (const std::string &Op : Super ? SuperOps : std::vector<std::string>())
      EXPECT_NE(Traces.find(Op), std::string::npos)
          << Op << " never compiled:\n"
          << Traces;
    Vm.endThread(T);
  }
  EXPECT_TRUE(PerTier[1] == PerTier[0]) << SuperOps.front();
  return PerTier[0];
}

/// Wraps a body emitter into a program builder for runSemantics().
std::function<BytecodeProgram(TypeRegistry &)>
semBuild(std::function<void(MethodBuilder &)> Body,
         std::function<void(MethodBuilder &, TypeRegistry &)> Prelude =
             nullptr) {
  return [Body, Prelude](TypeRegistry &Types) {
    return semanticsProgram(
        [&](MethodBuilder &B) {
          if (Prelude)
            Prelude(B, Types);
        },
        Body);
  };
}

using Emitter = MethodBuilder &(MethodBuilder::*)();

TEST(TierSemantics, AluOpsMatchJvmArithmeticInEveryForm) {
  const std::vector<int64_t> V = semanticsOperands();
  const std::pair<Opcode, Emitter> Ops[] = {
      {Opcode::IAdd, &MethodBuilder::iadd},
      {Opcode::ISub, &MethodBuilder::isub},
      {Opcode::IMul, &MethodBuilder::imul},
      {Opcode::IDiv, &MethodBuilder::idiv},
      {Opcode::IRem, &MethodBuilder::irem},
      {Opcode::IAnd, &MethodBuilder::iand},
      {Opcode::IOr, &MethodBuilder::ior},
      {Opcode::IXor, &MethodBuilder::ixor},
      {Opcode::IShl, &MethodBuilder::ishl},
      {Opcode::IShr, &MethodBuilder::ishr}};
  // Every form below is six instructions, so steps and cycles must agree
  // across forms as well as across tiers.
  for (const auto &[Op, Emit] : Ops) {
    const std::string Name = opcodeName(Op);
    for (int64_t Rhs : V) {
      if ((Op == Opcode::IDiv || Op == Opcode::IRem) && Rhs == 0)
        continue; // Division by zero is outside the contract.
      SCOPED_TRACE(Name + " rhs=" + std::to_string(Rhs));
      SemArgs Args;
      for (int64_t Lhs : V)
        Args.emplace_back(Lhs, Rhs);
      auto Base = runSemantics(semBuild([Emit = Emit](MethodBuilder &B) {
                                 (B.iload(0).iload(1).*Emit)();
                                 B.istore(2).nop().nop();
                               }),
                               Args, {"alu (" + Name + ")"});
      for (size_t K = 0; K < Args.size(); ++K)
        EXPECT_EQ(Base[K].Result, jvmAlu(Op, Args[K].first, Rhs))
            << "lhs=" << Args[K].first;
      if (Op == Opcode::IAdd || Op == Opcode::ISub) {
        // iload; iconst; iadd/isub; istore => inc_local L2 += +-rhs.
        auto Inc = runSemantics(
            semBuild([Emit = Emit, Rhs](MethodBuilder &B) {
              (B.iload(0).istore(2).iload(2).iconst(Rhs).*Emit)();
              B.istore(2);
            }),
            Args, {"inc_local L2 += "});
        EXPECT_TRUE(Inc == Base);
      }
      if (Op == Opcode::IAdd) {
        // push b; iload; iadd; istore => accum_local L2 += b.
        auto Accum = runSemantics(semBuild([](MethodBuilder &B) {
                                    B.iload(0).istore(2).iload(1).iload(2);
                                    B.iadd().istore(2);
                                  }),
                                  Args, {"accum_local L2"});
        EXPECT_TRUE(Accum == Base);
      }
    }
  }
  SemArgs Args;
  for (int64_t Lhs : V)
    Args.emplace_back(Lhs, 0);
  auto Neg = runSemantics(semBuild([](MethodBuilder &B) {
                            B.iload(0).ineg().istore(2);
                          }),
                          Args, {"ineg"});
  for (size_t K = 0; K < Args.size(); ++K)
    EXPECT_EQ(Neg[K].Result, jvmAlu(Opcode::INeg, Args[K].first, 0));
}

using BranchEmitter = std::function<void(MethodBuilder &, Label)>;

/// The body `<Branch> Taken; result = 1; goto Next; Taken: result = 2;
/// Next:`, where \p Branch emits the conditional branch to Taken.
std::function<void(MethodBuilder &)> branchDiamond(BranchEmitter Branch) {
  return [Branch](MethodBuilder &B) {
    Label Taken = B.newLabel(), Next = B.newLabel();
    Branch(B, Taken);
    B.iconst(1).istore(2).jmp(Next);
    B.bind(Taken);
    B.iconst(2).istore(2);
    B.bind(Next);
  };
}

TEST(TierSemantics, BranchesDecideAlikeInEveryFormAndDirection) {
  const std::vector<int64_t> V = semanticsOperands();
  const Opcode ICmps[] = {Opcode::IfICmpEq, Opcode::IfICmpNe,
                          Opcode::IfICmpLt, Opcode::IfICmpGe,
                          Opcode::IfICmpGt, Opcode::IfICmpLe};
  for (Opcode Op : ICmps) {
    const std::string Name = opcodeName(Op);
    unsigned Taken = 0, NotTaken = 0;
    for (int64_t Rhs : V) {
      SCOPED_TRACE(Name + " rhs=" + std::to_string(Rhs));
      SemArgs Args;
      for (int64_t Lhs : V)
        Args.emplace_back(Lhs, Rhs);
      // Four instructions up to the branch in every form.
      auto Base = runSemantics(
          semBuild(branchDiamond([Op](MethodBuilder &B, Label L) {
            B.iload(0).iload(1).nop().ifICmp(Op, L);
          })),
          Args, {"br (" + Name + ")"});
      for (size_t K = 0; K < Args.size(); ++K) {
        const bool Expect = jvmTaken(Op, Args[K].first, Rhs);
        EXPECT_EQ(Base[K].Result, Expect ? 2 : 1) << "lhs=" << Args[K].first;
        ++(Expect ? Taken : NotTaken);
      }
      auto LL = runSemantics(
          semBuild(branchDiamond([Op](MethodBuilder &B, Label L) {
            B.nop().iload(0).iload(1).ifICmp(Op, L);
          })),
          Args, {"cmp_branch_ll (" + Name + ") L0, L1"});
      EXPECT_TRUE(LL == Base);
      auto LI = runSemantics(
          semBuild(branchDiamond([Op, Rhs](MethodBuilder &B, Label L) {
            B.nop().iload(0).iconst(Rhs).ifICmp(Op, L);
          })),
          Args, {"cmp_branch_li (" + Name + ") L0, #" + std::to_string(Rhs)});
      EXPECT_TRUE(LI == Base);
    }
    EXPECT_GT(Taken, 0u) << Name;
    EXPECT_GT(NotTaken, 0u) << Name;
  }

  using UnaryEmitter = MethodBuilder &(MethodBuilder::*)(Label);
  const std::pair<Opcode, UnaryEmitter> Unary[] = {
      {Opcode::IfEq, &MethodBuilder::ifEq},
      {Opcode::IfNe, &MethodBuilder::ifNe},
      {Opcode::IfLt, &MethodBuilder::ifLt},
      {Opcode::IfGe, &MethodBuilder::ifGe}};
  SemArgs Args;
  for (int64_t Lhs : V)
    Args.emplace_back(Lhs, 0);
  for (const auto &[Op, Emit] : Unary) {
    const std::string Name = opcodeName(Op);
    auto Out = runSemantics(
        semBuild(branchDiamond([Emit = Emit](MethodBuilder &B, Label L) {
          (B.iload(0).*Emit)(L);
        })),
        Args, {"br (" + Name + ")"});
    std::set<int64_t> Seen;
    for (size_t K = 0; K < Args.size(); ++K) {
      EXPECT_EQ(Out[K].Result, jvmTaken(Op, Args[K].first, 0) ? 2 : 1)
          << Name << " " << Args[K].first;
      Seen.insert(Out[K].Result);
    }
    EXPECT_EQ(Seen.size(), 2u) << Name << " took one direction only";
  }

  // ifnull / ifnonnull on local 4: null when a == 0, else a fresh array.
  const std::pair<Opcode, UnaryEmitter> Refs[] = {
      {Opcode::IfNull, &MethodBuilder::ifNull},
      {Opcode::IfNonNull, &MethodBuilder::ifNonNull}};
  auto MaybeAlloc = [](MethodBuilder &B, TypeRegistry &Types) {
    Label Skip = B.newLabel();
    B.iload(0).ifEq(Skip);
    B.iconst(1).newArray(Types.intArray()).astore(4);
    B.bind(Skip);
  };
  for (const auto &[Op, Emit] : Refs) {
    const std::string Name = opcodeName(Op);
    auto Out = runSemantics(
        semBuild(branchDiamond([Emit = Emit](MethodBuilder &B, Label L) {
                   (B.aload(4).*Emit)(L);
                 }),
                 MaybeAlloc),
        Args, {"br (" + Name + ")"});
    for (size_t K = 0; K < Args.size(); ++K) {
      const bool IsNull = Args[K].first == 0;
      EXPECT_EQ(Out[K].Result, IsNull == (Op == Opcode::IfNull) ? 2 : 1)
          << Name << " " << Args[K].first;
    }
  }
}

TEST(TierSemantics, PrimitiveElementsRoundTripAtEveryWidth) {
  const std::vector<int64_t> V = semanticsOperands();
  SemArgs Args;
  for (size_t K = 0; K < V.size(); ++K)
    Args.emplace_back(V[K], static_cast<int64_t>(K % 8));
  const std::pair<unsigned, TypeId (TypeRegistry::*)() const> Widths[] = {
      {1, &TypeRegistry::byteArray},
      {4, &TypeRegistry::intArray},
      {8, &TypeRegistry::longArray}};
  for (const auto &[Width, ArrayType] : Widths) {
    SCOPED_TRACE("width " + std::to_string(Width));
    auto Prelude = [ArrayType = ArrayType](MethodBuilder &B,
                                           TypeRegistry &Types) {
      B.iconst(8).newArray((Types.*ArrayType)()).astore(4);
    };
    // a[b] = a-operand, then result = a[b]; ten instructions either way.
    auto Base = runSemantics(semBuild(
                                 [](MethodBuilder &B) {
                                   B.aload(4).iload(1).iload(0).nop();
                                   B.paStore();
                                   B.aload(4).iload(1).nop().paLoad();
                                   B.istore(2);
                                 },
                                 Prelude),
                             Args, {"access (pastore)", "access (paload)"});
    auto Fused = runSemantics(semBuild(
                                  [](MethodBuilder &B) {
                                    B.nop().aload(4).iload(1).iload(0);
                                    B.paStore();
                                    B.nop().aload(4).iload(1).paLoad();
                                    B.istore(2);
                                  },
                                  Prelude),
                              Args, {"pa_store_lll", "pa_load_ll"});
    EXPECT_TRUE(Fused == Base);
    const uint64_t Mask = Width == 8 ? ~0ULL : (1ULL << (8 * Width)) - 1;
    for (size_t K = 0; K < Args.size(); ++K)
      EXPECT_EQ(static_cast<uint64_t>(Base[K].Result),
                static_cast<uint64_t>(Args[K].first) & Mask);
  }
}

// --- Re-entry mid-trace ----------------------------------------------------

/// R.main: 200 trips, each allocating an int[4] that never escapes the
/// method. R.spin(n): counts n down without allocating -- the body an
/// allocation hook or observer re-enters the interpreter with.
BytecodeProgram reentryProgram(TypeRegistry &Types) {
  ClassFile C;
  C.Name = "R";
  {
    MethodBuilder B("R", "main", 0, 2);
    B.iconst(0).istore(0);
    Label Head = B.newLabel(), End = B.newLabel();
    B.bind(Head);
    B.iload(0).iconst(200).ifICmp(Opcode::IfICmpGe, End);
    B.iconst(4).newArray(Types.intArray()).astore(1);
    B.aload(1).iconst(0).iload(0).paStore();
    B.iload(0).iconst(1).iadd().istore(0);
    B.jmp(Head);
    B.bind(End);
    B.iload(0).iret();
    C.Methods.push_back(B.build());
  }
  {
    MethodBuilder B("R", "spin", 1, 1);
    Label Head = B.newLabel(), End = B.newLabel();
    B.bind(Head);
    B.iload(0).ifEq(End);
    B.iload(0).iconst(1).isub().istore(0);
    B.jmp(Head);
    B.bind(End);
    B.ret();
    C.Methods.push_back(B.build());
  }
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

/// Everything a re-entrant run observes: the pause trajectory (or the
/// step at which the step limit fired), the result and the clock.
struct ReentryOutcome {
  std::vector<uint64_t> Pauses;
  int64_t Result = -1;
  uint64_t LimitSteps = 0;
  uint64_t Cycles = 0;
  std::string Traces;
  bool operator==(const ReentryOutcome &O) const {
    return Pauses == O.Pauses && Result == O.Result &&
           LimitSteps == O.LimitSteps && Cycles == O.Cycles;
  }
};

/// Runs R.main with every allocation re-entering the interpreter to run
/// R.spin(7) -- through the agent hooks (\p ViaHooks, instrumented
/// program) or through a VM allocation observer. Drives it in quanta
/// of \p Quantum steps, or with run() under \p StepLimit when Quantum
/// is 0.
ReentryOutcome runReentrant(ExecTier Tier, bool ViaHooks, uint64_t Quantum,
                            uint64_t StepLimit) {
  VmConfig Cfg;
  Cfg.HeapBytes = 4 << 20;
  JavaVm Vm(Cfg);
  BytecodeProgram P = reentryProgram(Vm.types());
  P.load(Vm);
  if (ViaHooks) {
    AllocationSiteTable Sites;
    instrumentProgram(P, Sites);
  }
  JavaThread &T = Vm.startThread("reentry", 0);
  Interpreter I(Vm, P, T);
  if (Tier == ExecTier::Super)
    I.setTier(superTier());
  auto Spin = [&I] { I.run("R.spin", {Value::fromInt(7)}); };
  if (ViaHooks) {
    AllocationHooks Hooks;
    Hooks.Pre = [&](uint64_t) { Spin(); };
    Hooks.Post = [&](uint64_t, ObjectRef) { Spin(); };
    I.setAllocationHooks(std::move(Hooks));
  } else {
    Vm.jvmti().onAllocation([&](const AllocationEvent &) { Spin(); });
  }
  ReentryOutcome O;
  if (Quantum == 0) {
    I.setStepLimit(StepLimit);
    try {
      O.Result = I.run("R.main")->asInt();
    } catch (const VmError &E) {
      EXPECT_EQ(E.Kind, VmErrorKind::StepLimit);
      O.LimitSteps = E.Steps;
    }
  } else {
    I.startCall("R.main");
    while (I.resume(Quantum) == RunState::Paused)
      O.Pauses.push_back(I.stepsExecuted());
    O.Result = I.takeResult()->asInt();
  }
  O.Cycles = T.cycles();
  O.Traces = I.renderTraces();
  return O;
}

/// A hook or allocation observer that re-enters the interpreter burns
/// steps in the middle of a trace. When the trace's remainder no longer
/// fits the quantum or the step limit, the trace must deopt so the flat
/// loop stops at exactly the instruction the interp tier stops at.
TEST(TierParity, ReentryMidTraceDeoptsWhenTheRemainderNoLongerFits) {
  for (bool ViaHooks : {false, true}) {
    const char *SuperOp = ViaHooks ? "hook_pre" : "alloc (newarray)";
    for (uint64_t Quantum : {13u, 29u, 64u, 101u}) {
      SCOPED_TRACE(std::string(SuperOp) + " q=" + std::to_string(Quantum));
      ReentryOutcome Interp =
          runReentrant(ExecTier::Interp, ViaHooks, Quantum, 0);
      ReentryOutcome Super =
          runReentrant(ExecTier::Super, ViaHooks, Quantum, 0);
      EXPECT_TRUE(Super == Interp);
      EXPECT_EQ(Interp.Result, 200);
      EXPECT_NE(Super.Traces.find(SuperOp), std::string::npos)
          << Super.Traces;
    }
    for (uint64_t Limit = 3000; Limit < 3040; Limit += 3) {
      SCOPED_TRACE(std::string(SuperOp) + " limit=" + std::to_string(Limit));
      ReentryOutcome Interp = runReentrant(ExecTier::Interp, ViaHooks, 0,
                                           Limit);
      ReentryOutcome Super = runReentrant(ExecTier::Super, ViaHooks, 0,
                                          Limit);
      EXPECT_TRUE(Super == Interp);
      EXPECT_EQ(Interp.LimitSteps, Limit + 1);
    }
  }
}

/// Deep recursion whose every frame runs a hot loop: the frames outgrow
/// the arena mid-recursion, and each frame's reservation (its locals
/// plus the verified max_stack) must hold its traces' peak operand
/// depth, invisibly to every observable.
TEST(TierParity, TraceEntryGrowsTheArenaInDeepRecursion) {
  auto Run = [](ExecTier Tier) {
    VmConfig Cfg;
    Cfg.HeapBytes = 1 << 20;
    JavaVm Vm(Cfg);
    // f(n) = (sum of 0..3 computed in a loop) + (n == 0 ? 0 : f(n - 1)).
    MethodBuilder B("D", "f", 1, 3);
    B.iconst(0).istore(1).iconst(0).istore(2);
    Label Head = B.newLabel(), Done = B.newLabel(), Base = B.newLabel();
    B.bind(Head);
    B.iload(2).iconst(4).ifICmp(Opcode::IfICmpGe, Done);
    B.iload(1).iload(2).iconst(0).iadd().iadd().istore(1);
    B.iload(2).iconst(1).iadd().istore(2);
    B.jmp(Head);
    B.bind(Done);
    B.iload(0).ifEq(Base);
    B.iload(1).iload(0).iconst(1).isub().invoke("D.f", 1).iadd().iret();
    B.bind(Base);
    B.iload(1).iret();
    ClassFile C;
    C.Name = "D";
    C.Methods.push_back(B.build());
    BytecodeProgram P;
    P.addClass(std::move(C));
    P.load(Vm);
    JavaThread &T = Vm.startThread("deep", 0);
    Interpreter I(Vm, P, T);
    if (Tier == ExecTier::Super)
      I.setTier(superTier(2));
    int64_t R = I.run("D.f", {Value::fromInt(400)})->asInt();
    EXPECT_EQ(R, 6 * 401);
    return std::make_tuple(R, I.stepsExecuted(), T.cycles(),
                           I.traceCache() ? I.traceCache()->stats().Compiles
                                          : 0);
  };
  auto Interp = Run(ExecTier::Interp);
  auto Super = Run(ExecTier::Super);
  EXPECT_EQ(std::get<0>(Super), std::get<0>(Interp));
  EXPECT_EQ(std::get<1>(Super), std::get<1>(Interp));
  EXPECT_EQ(std::get<2>(Super), std::get<2>(Interp));
  EXPECT_GT(std::get<3>(Super), 0u);
}

} // namespace
