//===- analysis_test.cpp - Static-analysis framework unit tests -----------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Oracle tests for src/analysis/: CFG construction (blocks, dominators,
/// natural-loop depths) against hand-derived structure, the generic
/// worklist solver, type-state inference and its
/// definite-misuse diagnostics (the Verifier's stack and type pass —
/// at least eight negative programs, plus a zero-false-positive sweep
/// over the workload catalog), allocation-site escape analysis, the
/// analysis-proven trace fusions (CmpBranchLI and
/// hook-spanning superblocks) with an interp-vs-super execution parity
/// check, and the static allocation-site report.
///
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/Dataflow.h"
#include "analysis/MethodAnalysis.h"
#include "analysis/StaticReport.h"
#include "analysis/TypeState.h"
#include "bytecode/MethodBuilder.h"
#include "bytecode/TraceCompiler.h"
#include "bytecode/Verifier.h"
#include "core/DjxPerf.h"
#include "instrument/AllocationInstrumenter.h"
#include "interp/Interpreter.h"
#include "jvm/JavaVm.h"
#include "workloads/BytecodePrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(analysis_test, 87.0, 53.0,
    "src/analysis/Cfg.cpp",
    "src/analysis/Cfg.h",
    "src/analysis/Dataflow.h",
    "src/analysis/MethodAnalysis.h",
    "src/analysis/StaticReport.cpp",
    "src/analysis/StaticReport.h",
    "src/analysis/TypeState.cpp",
    "src/analysis/TypeState.h");

/// Wraps one hand-built method into a one-class program.
BytecodeProgram oneMethod(BytecodeMethod M) {
  ClassFile C;
  C.Name = M.ClassName;
  C.Methods.push_back(std::move(M));
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

/// if (1) { L0 = 10 } else { L0 = 20 }; return L0 — the diamond every
/// dominator test wants.
///   0: iconst 1   1: ifeq @5
///   2: iconst 10  3: istore 0  4: goto @7
///   5: iconst 20  6: istore 0
///   7: iload 0    8: iret
BytecodeMethod diamondMethod() {
  MethodBuilder B("C", "diamond", 0, 1);
  Label Else = B.newLabel(), Join = B.newLabel();
  B.iconst(1).ifEq(Else);
  B.iconst(10).istore(0).jmp(Join);
  B.bind(Else);
  B.iconst(20).istore(0);
  B.bind(Join);
  B.iload(0).iret();
  return B.build();
}

/// for (i = 0; i < n; ++i) a[i] = i over a fresh int[n]; returns i.
/// Locals: 0 = n, 1 = a, 2 = i. Loop head at pc 7.
BytecodeMethod sweepMethod(TypeRegistry &Types, int64_t N) {
  MethodBuilder B("C", "sweep", 0, 3);
  B.iconst(N).istore(0);
  B.iload(0).newArray(Types.intArray()).astore(1);
  B.iconst(0).istore(2);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(2).iload(0).ifICmp(Opcode::IfICmpGe, End);
  B.aload(1).iload(2).iload(2).paStore();
  B.iload(2).iconst(1).iadd().istore(2);
  B.jmp(Head);
  B.bind(End);
  B.iload(2).iret();
  return B.build();
}

constexpr uint32_t kSweepHead = 7;

// --- Cfg -----------------------------------------------------------------

TEST(Cfg, LinearCodeIsOneBlock) {
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(1).istore(0).iload(0).iret();
  BytecodeMethod M = B.build();
  Cfg G = Cfg::build(M);
  ASSERT_EQ(G.blocks().size(), 1u);
  EXPECT_EQ(G.blocks()[0].Start, 0u);
  EXPECT_EQ(G.blocks()[0].End, 4u);
  EXPECT_TRUE(G.blocks()[0].Succs.empty());
  EXPECT_EQ(G.blockOf(3), 0u);
  EXPECT_EQ(G.blockOf(99), kNoBlock);
  EXPECT_EQ(G.rpo(), (std::vector<uint32_t>{0}));
  EXPECT_TRUE(G.dominates(0, 0)); // Reflexive.
  EXPECT_EQ(G.idom(0), 0u);       // Entry dominates itself.
  EXPECT_EQ(G.loopDepth(0), 0u);
  EXPECT_TRUE(G.backEdges().empty());
  EXPECT_NE(G.str().find("b0"), std::string::npos);
}

TEST(Cfg, DiamondDominators) {
  Cfg G = Cfg::build(diamondMethod());
  uint32_t Cond = G.blockOf(0), Then = G.blockOf(2), Else = G.blockOf(5),
           Join = G.blockOf(7);
  ASSERT_EQ(G.blocks().size(), 4u);
  EXPECT_NE(Then, Else);
  // Edges: cond -> {then, else}, both arms -> join.
  auto HasSucc = [&](uint32_t From, uint32_t To) {
    const std::vector<uint32_t> &S = G.blocks()[From].Succs;
    return std::find(S.begin(), S.end(), To) != S.end();
  };
  EXPECT_TRUE(HasSucc(Cond, Then));
  EXPECT_TRUE(HasSucc(Cond, Else));
  EXPECT_TRUE(HasSucc(Then, Join));
  EXPECT_TRUE(HasSucc(Else, Join));
  EXPECT_EQ(G.blocks()[Join].Preds.size(), 2u);
  // The join's idom is the branch, not either arm.
  EXPECT_EQ(G.idom(Join), Cond);
  EXPECT_TRUE(G.dominates(Cond, Join));
  EXPECT_FALSE(G.dominates(Then, Join));
  EXPECT_FALSE(G.dominates(Else, Join));
  // RPO starts at the entry and visits all four blocks.
  ASSERT_EQ(G.rpo().size(), 4u);
  EXPECT_EQ(G.rpo()[0], Cond);
  EXPECT_TRUE(G.backEdges().empty());
  EXPECT_EQ(G.loopDepth(7), 0u);
}

TEST(Cfg, LoopHasBackEdgeAndDepthOne) {
  JavaVm Vm;
  BytecodeMethod M = sweepMethod(Vm.types(), 8);
  Cfg G = Cfg::build(M);
  uint32_t Head = G.blockOf(kSweepHead);
  uint32_t Body = G.blockOf(kSweepHead + 3);
  ASSERT_EQ(G.backEdges().size(), 1u);
  EXPECT_EQ(G.backEdges()[0].second, Head);
  EXPECT_TRUE(G.dominates(Head, Body));
  // Head and body are in the loop; prologue and epilogue are not.
  EXPECT_EQ(G.loopDepth(kSweepHead), 1u);
  EXPECT_EQ(G.loopDepth(kSweepHead + 3), 1u);
  EXPECT_EQ(G.loopDepth(0), 0u);
  EXPECT_EQ(G.loopDepth(static_cast<uint32_t>(M.Code.size() - 1)), 0u);
}

TEST(Cfg, NestedLoopDepthsReachTwo) {
  // for (i = 0; i < 3; ++i) for (j = 0; j < 3; ++j) ++j-body.
  MethodBuilder B("C", "nested", 0, 2);
  B.iconst(0).istore(0);
  Label Outer = B.newLabel(), EndO = B.newLabel();
  Label Inner = B.newLabel(), EndI = B.newLabel();
  B.bind(Outer);
  uint32_t OuterHead = B.currentBci();
  B.iload(0).iconst(3).ifICmp(Opcode::IfICmpGe, EndO);
  B.iconst(0).istore(1);
  B.bind(Inner);
  uint32_t InnerHead = B.currentBci();
  B.iload(1).iconst(3).ifICmp(Opcode::IfICmpGe, EndI);
  uint32_t InnerBody = B.currentBci();
  B.iload(1).iconst(1).iadd().istore(1);
  B.jmp(Inner);
  B.bind(EndI);
  uint32_t OuterLatch = B.currentBci();
  B.iload(0).iconst(1).iadd().istore(0);
  B.jmp(Outer);
  B.bind(EndO);
  uint32_t Exit = B.currentBci();
  B.iload(0).iret();
  Cfg G = Cfg::build(B.build());
  EXPECT_EQ(G.backEdges().size(), 2u);
  EXPECT_EQ(G.loopDepth(InnerBody), 2u);
  EXPECT_EQ(G.loopDepth(InnerHead), 2u);
  EXPECT_EQ(G.loopDepth(OuterHead), 1u);
  EXPECT_EQ(G.loopDepth(OuterLatch), 1u);
  EXPECT_EQ(G.loopDepth(Exit), 0u);
}

TEST(Cfg, SkippedBlockIsEntryUnreachable) {
  // goto L; <dead>; L: ret
  MethodBuilder B("C", "dead", 0, 0);
  Label L = B.newLabel();
  B.jmp(L);
  B.iconst(1).pop();
  B.bind(L);
  B.ret();
  Cfg G = Cfg::build(B.build());
  uint32_t Dead = G.blockOf(1);
  ASSERT_NE(Dead, kNoBlock);
  EXPECT_FALSE(G.reachable(Dead));
  EXPECT_EQ(G.idom(Dead), kNoBlock);
  EXPECT_TRUE(G.reachable(G.blockOf(0)));
  EXPECT_TRUE(G.reachable(G.blockOf(3)));
  // Unreachable blocks never appear in the RPO.
  EXPECT_EQ(std::count(G.rpo().begin(), G.rpo().end(), Dead), 0);
}

// --- Generic worklist solver ---------------------------------------------

/// Shortest path length (in blocks) from the boundary, the textbook
/// dataflow problem: join = min, transfer = +1.
struct DistanceProblem {
  using State = int;
  static constexpr int kUnreached = 1 << 20;
  State boundary() { return 0; }
  State initial() { return kUnreached; }
  State transfer(uint32_t, const State &In) {
    return In == kUnreached ? In : In + 1;
  }
  bool join(State &Dest, const State &Src) {
    if (Src < Dest) {
      Dest = Src;
      return true;
    }
    return false;
  }
};

TEST(Dataflow, ForwardDistancesOnDiamond) {
  Cfg G = Cfg::build(diamondMethod());
  DistanceProblem P;
  std::vector<int> D = solveDataflow(G, P);
  EXPECT_EQ(D[G.blockOf(0)], 0); // Entry gets the boundary state.
  EXPECT_EQ(D[G.blockOf(2)], 1);
  EXPECT_EQ(D[G.blockOf(5)], 1);
  EXPECT_EQ(D[G.blockOf(7)], 2); // Joined over both arms: min(2, 2).
}

// --- Type-state inference ------------------------------------------------

TEST(TypeState, TracksTagsAndAllocationSitesPerPc) {
  JavaVm Vm;
  // Frames are kept at block heads, so each pc whose frame is checked
  // starts a block (a goto to the next pc):
  //   0: iconst 4   1: newarray    2: astore 1   3: goto 4
  //   4: aload 1    5: iconst 0    6: iconst 7   7: goto 8
  //   8: pastore    9: iconst 0   10: iret
  MethodBuilder B("C", "m", 0, 2);
  Label AfterStore = B.newLabel(), AtStore = B.newLabel();
  B.iconst(4).newArray(Vm.types().intArray()).astore(1).jmp(AfterStore);
  B.bind(AfterStore).aload(1).iconst(0).iconst(7).jmp(AtStore);
  B.bind(AtStore).paStore();
  B.iconst(0).iret();
  BytecodeMethod M = B.build();
  Cfg G = Cfg::build(M);
  TypeStateResult R = inferTypeStates(M, G);
  EXPECT_TRUE(R.Errors.empty());
  EXPECT_FALSE(R.Incomplete);
  auto FrameAt = [&](uint32_t Pc) -> const AbsFrame & {
    EXPECT_EQ(G.blocks()[G.blockOf(Pc)].Start, Pc);
    return R.BlockIn[G.blockOf(Pc)];
  };
  // Untouched locals enter as int-tagged zero.
  EXPECT_EQ(FrameAt(0).Locals[0].str(), "int0");
  // After the astore, local 1 is the array produced by site 0.
  EXPECT_EQ(FrameAt(4).Locals[1].str(), "arr@{0}");
  // Entering the pastore: [arr, int, int], depth 3.
  EXPECT_EQ(R.depthAt(8), 3);
  EXPECT_EQ(FrameAt(8).Stack[0].str(), "arr@{0}");
  EXPECT_TRUE(FrameAt(8).Stack[1].mayInt());
  // Site bookkeeping: one newarray at pc 1, local to the method.
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Pc, 1u);
  EXPECT_EQ(R.Sites[0].Op, Opcode::NewArray);
  EXPECT_EQ(R.siteAtPc(1), &R.Sites[0]);
  EXPECT_EQ(R.siteAtPc(0), nullptr);
  EXPECT_FALSE(R.Sites[0].escapes());
  // depthAt on an out-of-range pc answers "unknown".
  EXPECT_EQ(R.depthAt(999), -1);
}

TEST(TypeState, ArgumentLocalsEnterAsTop) {
  MethodBuilder B("C", "m", 1, 2);
  B.iconst(0).iret();
  BytecodeMethod M = B.build();
  Cfg G = Cfg::build(M);
  TypeStateResult R = inferTypeStates(M, G);
  const AbsFrame &Entry = R.BlockIn[G.blockOf(0)];
  EXPECT_EQ(Entry.Locals[0].str(), "top");
  EXPECT_EQ(Entry.Locals[1].str(), "int0");
}

TEST(TypeState, EscapeRouteReturn) {
  JavaVm Vm;
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(4).newArray(Vm.types().intArray()).aret();
  BytecodeMethod M = B.build();
  Cfg G = Cfg::build(M);
  TypeStateResult R = inferTypeStates(M, G);
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Routes, kEscReturn);
  EXPECT_TRUE(R.Sites[0].escapes());
  EXPECT_EQ(escapeRoutesStr(R.Sites[0].Routes), "return");
}

TEST(TypeState, EscapeRouteStore) {
  JavaVm Vm;
  TypeId Obj = Vm.types().defineClass("Obj", 16);
  // Stores a fresh object into a caller-supplied array: arg0[0] = new Obj.
  MethodBuilder B("C", "m", 1, 1);
  B.aload(0).iconst(0).newObject(Obj).aaStore().ret();
  BytecodeMethod M = B.build();
  Cfg G = Cfg::build(M);
  TypeStateResult R = inferTypeStates(M, G);
  EXPECT_TRUE(R.Errors.empty()); // arg0 is top: may be an array.
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Routes, kEscStore);
  EXPECT_EQ(escapeRoutesStr(R.Sites[0].Routes), "store");
}

TEST(TypeState, EscapeRouteCall) {
  JavaVm Vm;
  TypeId Obj = Vm.types().defineClass("Obj", 16);
  MethodBuilder CalleeB("C", "sink", 1, 1);
  CalleeB.ret();
  BytecodeMethod Callee = CalleeB.build();
  MethodBuilder B("C", "m", 0, 1);
  B.newObject(Obj).invoke("C.sink", 1).ret();
  BytecodeMethod M = B.build();
  Cfg G = Cfg::build(M);
  CalleeResolver Resolve =
      [&Callee](const Instruction &) -> const BytecodeMethod * {
    return &Callee;
  };
  TypeStateResult R = inferTypeStates(M, G, Resolve);
  EXPECT_FALSE(R.Incomplete);
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Routes, kEscCall);
  EXPECT_EQ(escapeRoutesStr(kEscStore | kEscCall), "store+call");
  EXPECT_EQ(escapeRoutesStr(0), "none");
}

TEST(TypeState, SitesBeyondMaskWidthAreConservativelyEscaping) {
  JavaVm Vm;
  TypeId Obj = Vm.types().defineClass("Obj", 16);
  MethodBuilder B("C", "many", 0, 1);
  for (int I = 0; I < 66; ++I)
    B.newObject(Obj).pop();
  B.ret();
  BytecodeMethod M = B.build();
  Cfg G = Cfg::build(M);
  TypeStateResult R = inferTypeStates(M, G);
  ASSERT_EQ(R.Sites.size(), 66u);
  EXPECT_TRUE(R.Sites[63].Tracked);
  EXPECT_FALSE(R.Sites[63].escapes()); // Popped on the spot: local.
  EXPECT_FALSE(R.Sites[64].Tracked);
  EXPECT_TRUE(R.Sites[64].escapes()); // Beyond the mask: assume escape.
}

TEST(TypeState, UnresolvedInvokeMarksIncompleteAndMutesUnreachable) {
  MethodBuilder B("C", "m", 0, 1);
  B.invoke("Ghost.callee", 0);
  Label L = B.newLabel();
  B.jmp(L);
  B.iconst(1).pop(); // Entry-unreachable, but reachability is partial.
  B.bind(L);
  B.ret();
  BytecodeMethod M = B.build();
  Cfg G = Cfg::build(M);
  TypeStateResult R = inferTypeStates(M, G, nullptr);
  EXPECT_TRUE(R.Incomplete);
  for (const TypeStateError &E : R.Errors)
    EXPECT_EQ(E.Msg.find("unreachable"), std::string::npos) << E.Msg;
}

// --- Verifier upgrade: definite type misuse is InvalidBytecode -----------
//
// Each negative program is structurally fine (the old underflow-only
// verifier accepted this whole class of bugs) and is now rejected by the
// type-state pass with a diagnostic naming the pc and inferred state.

/// The full program-level verdict, which runs the type-state pass.
VerifyResult verify(BytecodeMethod M) {
  return verifyProgram(oneMethod(std::move(M)));
}

bool hasError(const VerifyResult &R, const std::string &Needle) {
  for (const std::string &E : R.Errors)
    if (E.find(Needle) != std::string::npos)
      return true;
  return false;
}

TEST(VerifierTypeState, RejectsILoadOfReference) {
  JavaVm Vm;
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(4).newArray(Vm.types().intArray()).astore(0);
  B.iload(0).pop().ret();
  VerifyResult R = verify(B.build());
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "iload of a reference local L0")) << R.Errors[0];
  // Diagnostics carry the bci and the inferred state.
  EXPECT_TRUE(hasError(R, "bci 3"));
  EXPECT_TRUE(hasError(R, "arr"));
}

TEST(VerifierTypeState, RejectsIStoreOfReference) {
  JavaVm Vm;
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(4).newArray(Vm.types().intArray()).istore(0).ret();
  VerifyResult R = verify(B.build());
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "istore of a reference into L0"));
}

TEST(VerifierTypeState, RejectsAStoreOfInteger) {
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(5).astore(0).ret();
  VerifyResult R = verify(B.build());
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "astore of a non-reference into L0"));
}

TEST(VerifierTypeState, RejectsArithmeticOnReference) {
  JavaVm Vm;
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(1).iconst(4).newArray(Vm.types().intArray());
  B.iadd().pop().ret();
  VerifyResult R = verify(B.build());
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "iadd on a reference operand"));
}

TEST(VerifierTypeState, RejectsIReturnOfReference) {
  JavaVm Vm;
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(4).newArray(Vm.types().intArray()).iret();
  VerifyResult R = verify(B.build());
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "ireturn of a reference"));
}

TEST(VerifierTypeState, RejectsAReturnOfInteger) {
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(5).aret();
  VerifyResult R = verify(B.build());
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "areturn of a non-reference"));
}

TEST(VerifierTypeState, RejectsArrayAccessOnNonArray) {
  JavaVm Vm;
  TypeId Obj = Vm.types().defineClass("Obj", 16);
  MethodBuilder B("C", "m", 0, 1);
  B.newObject(Obj).iconst(0).paLoad().pop().ret();
  VerifyResult R = verify(B.build());
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "paload on a non-array operand"));
}

TEST(VerifierTypeState, RejectsUnreachableCode) {
  MethodBuilder B("C", "m", 0, 0);
  Label L = B.newLabel();
  B.jmp(L);
  B.iconst(1).pop(); // No control path reaches these.
  B.bind(L);
  B.ret();
  VerifyResult R = verify(B.build());
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "unreachable code"));
}

TEST(VerifierTypeState, RejectsStackDepthMismatchAtMerge) {
  // Taken path reaches L with depth 0, fall-through with depth 1.
  MethodBuilder B("C", "m", 0, 0);
  Label L = B.newLabel();
  B.iconst(0).ifEq(L);
  B.iconst(7);
  B.bind(L);
  B.iconst(1).pop().ret();
  VerifyResult R = verify(B.build());
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "operand stack depth mismatch at merge"));
}

TEST(VerifierTypeState, RejectsIfNullOnInteger) {
  MethodBuilder B("C", "m", 0, 0);
  Label L = B.newLabel();
  B.iconst(5).ifNull(L);
  B.bind(L);
  B.ret();
  VerifyResult R = verify(B.build());
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "ifnull on an integer operand"));
}

TEST(VerifierTypeState, RejectsHookPostWithoutReferenceOnTos) {
  // Hand-assembled: allochook_post peeks the fresh ref, but TOS is an
  // integer. (No builder emits this; instrumentation bugs would.)
  MethodBuilder B("C", "m", 0, 0);
  B.iconst(1);
  BytecodeMethod M = B.build();
  M.Code.push_back(Instruction{Opcode::AllocHookPost, 0, 0});
  M.Code.push_back(Instruction{Opcode::Pop, 0, 0});
  M.Code.push_back(Instruction{Opcode::Return, 0, 0});
  VerifyResult R = verify(std::move(M));
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasError(R, "allochook_post without a reference on TOS"));
}

TEST(VerifierTypeState, ZeroFalsePositivesAcrossWorkloadCatalog) {
  // Every program the workload catalog can put in front of the verifier
  // must still verify cleanly — including after instrumentation, which
  // is the bytecode the --static-report path analyzes.
  JavaVm Vm;
  std::vector<BytecodeProgram> Programs;
  Programs.push_back(buildBatikProgram(Vm.types()));
  Programs.push_back(buildLusearchProgram(Vm.types()));
  Programs.push_back(buildParallelWorkerProgram(Vm.types()));
  Programs.push_back(buildNumaWorkerProgram(Vm.types()));
  for (BytecodeProgram &P : Programs) {
    VerifyResult Before = verifyProgram(P);
    EXPECT_TRUE(Before.ok()) << (Before.ok() ? "" : Before.Errors[0]);
    P.load(Vm);
    AllocationSiteTable Sites;
    instrumentProgram(P, Sites);
    VerifyResult After = verifyProgram(P);
    EXPECT_TRUE(After.ok()) << (After.ok() ? "" : After.Errors[0]);
  }
}

/// Checks \p A's per-pc depths against its stack map: each block head
/// enters at its frame's depth, each instruction moves the depth by its
/// stack effect, and max_stack is the deepest post-instruction depth.
void expectDepthsMatchStackMap(const BytecodeProgram &P,
                               const BytecodeMethod &M,
                               const MethodAnalysis &A) {
  const TypeStateResult &R = A.Types;
  ASSERT_TRUE(R.Errors.empty()) << M.qualifiedName();
  ASSERT_EQ(R.BlockIn.size(), A.G.blocks().size()) << M.qualifiedName();
  uint32_t Peak = 0;
  for (uint32_t B = 0; B < A.G.blocks().size(); ++B) {
    const BasicBlock &Blk = A.G.blocks()[B];
    const AbsFrame &In = R.BlockIn[B];
    EXPECT_EQ(R.depthAt(Blk.Start),
              In.Reachable ? static_cast<int>(In.Stack.size()) : -1)
        << M.qualifiedName() << " block head " << Blk.Start;
    for (uint32_t Pc = Blk.Start; Pc < Blk.End; ++Pc) {
      if (!R.reachable(Pc))
        continue;
      const Instruction &I = M.Code[Pc];
      StackEffect E = instructionStackEffect(I);
      // Invoke pushes one result exactly when its callee returns a value.
      if (I.Op == Opcode::Invoke)
        for (const Instruction &CI : P.method(static_cast<size_t>(I.A)).Code)
          if (CI.Op == Opcode::IReturn || CI.Op == Opcode::AReturn)
            E.Pushes = 1;
      const int After = R.depthAt(Pc) - static_cast<int>(E.Pops) +
                        static_cast<int>(E.Pushes);
      Peak = std::max(Peak, static_cast<uint32_t>(After));
      if (Pc + 1 < Blk.End) {
        EXPECT_EQ(R.depthAt(Pc + 1), After)
            << M.qualifiedName() << " pc " << Pc + 1;
      }
    }
  }
  EXPECT_EQ(R.MaxStack, Peak) << M.qualifiedName();
}

TEST(TypeState, DepthsAgreeWithTheStackMapAcrossWorkloadCatalog) {
  JavaVm Vm;
  std::vector<BytecodeProgram> Programs;
  Programs.push_back(buildBatikProgram(Vm.types()));
  Programs.push_back(buildLusearchProgram(Vm.types()));
  Programs.push_back(buildParallelWorkerProgram(Vm.types()));
  Programs.push_back(buildNumaWorkerProgram(Vm.types()));
  for (BytecodeProgram &P : Programs) {
    // Linked Invoke operands are global method indices.
    P.load(Vm);
    CalleeResolver Resolve = [&P](const Instruction &I) {
      return &P.method(static_cast<size_t>(I.A));
    };
    auto CheckAll = [&] {
      for (size_t I = 0; I < P.numMethods(); ++I) {
        const BytecodeMethod &M = P.method(I);
        expectDepthsMatchStackMap(P, M, MethodAnalysis::analyze(M, Resolve));
      }
    };
    CheckAll();
    AllocationSiteTable Sites;
    instrumentProgram(P, Sites);
    CheckAll();
  }
}

TEST(MethodAnalysis, BundlesCfgAndTypeState) {
  JavaVm Vm;
  BytecodeMethod M = sweepMethod(Vm.types(), 8);
  MethodAnalysis A = MethodAnalysis::analyze(M);
  EXPECT_FALSE(A.G.blocks().empty());
  EXPECT_EQ(A.Types.Depth.size(), M.Code.size());
  EXPECT_EQ(A.Types.BlockIn.size(), A.G.blocks().size());
  EXPECT_FALSE(A.Types.Incomplete);
  EXPECT_EQ(A.Types.depthAt(kSweepHead), 0);
  EXPECT_EQ(A.Types.MaxStack, 3u); // aload; iload; iload at the pastore.
}

// --- Analysis-proven trace fusions ---------------------------------------

TierConfig superTier(uint32_t HotThreshold = 2) {
  TierConfig Cfg;
  Cfg.Tier = ExecTier::Super;
  Cfg.HotThreshold = HotThreshold;
  return Cfg;
}

/// Hot loop with an immediate-compare head and a *non-escaping*
/// instrumentable allocation in the body:
///   for (i = 0; i < iters; ++i) { a = new int[16]; a[0] = i; }
/// Locals: 0 = i, 1 = a. Returns i.
BytecodeProgram hookLoopProgram(TypeRegistry &Types, int64_t Iters) {
  MethodBuilder B("H", "main", 0, 2);
  B.line(1).iconst(0).istore(0);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(0).iconst(Iters).ifICmp(Opcode::IfICmpGe, End);
  B.line(2).iconst(16).newArray(Types.intArray()).astore(1);
  B.aload(1).iconst(0).iload(0).paStore();
  B.iload(0).iconst(1).iadd().istore(0);
  B.jmp(Head);
  B.bind(End);
  B.iload(0).iret();
  ClassFile C;
  C.Name = "H";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

std::vector<SuperOp> opKinds(const CompiledTrace &T) {
  std::vector<SuperOp> Kinds;
  for (const TraceOp &O : T.Ops)
    Kinds.push_back(O.Kind);
  return Kinds;
}

bool hasOp(const CompiledTrace &T, SuperOp K) {
  std::vector<SuperOp> Kinds = opKinds(T);
  return std::find(Kinds.begin(), Kinds.end(), K) != Kinds.end();
}

TEST(TraceAnalysis, CmpBranchLIRequiresTheDepthProof) {
  JavaVm Vm;
  BytecodeProgram P = hookLoopProgram(Vm.types(), 100);
  const BytecodeMethod &M = P.classes()[0].Methods[0];
  MethodAnalysis A = MethodAnalysis::analyze(M);
  // Loop head pc: iconst + istore prologue.
  constexpr uint32_t Head = 2;
  auto Proven = compileTrace(M, Head, superTier(), &A);
  ASSERT_TRUE(Proven.has_value());
  EXPECT_TRUE(hasOp(*Proven, SuperOp::CmpBranchLI));
  EXPECT_EQ(Proven->Ops.front().Kind, SuperOp::CmpBranchLI);
  EXPECT_EQ(Proven->Ops.front().NumSteps, 3u); // Retires all 3 opcodes.
  // Without the analysis the same region compiles to base encodings
  // only — the fused form is never emitted on syntax alone.
  auto Base = compileTrace(M, Head, superTier(), nullptr);
  ASSERT_TRUE(Base.has_value());
  EXPECT_FALSE(hasOp(*Base, SuperOp::CmpBranchLI));
  EXPECT_EQ(Base->Ops.front().Kind, SuperOp::ILoad);

  // A taken target whose inferred depth differs from the pattern's entry
  // depth fails the proof: pc 7 is first reached from pc 1 at depth 0,
  // while the compare at pc 3 enters at depth 1.
  //   0: iload 0  1: ifeq @7  2: iconst 9
  //   3: iload 0  4: iconst 3  5: if_icmpge @7  6: pop  7: return
  MethodBuilder B("C", "m", 1, 1);
  Label Exit = B.newLabel();
  B.iload(0).ifEq(Exit).iconst(9);
  B.iload(0).iconst(3).ifICmp(Opcode::IfICmpGe, Exit);
  B.pop().bind(Exit).ret();
  BytecodeMethod Off = B.build();
  MethodAnalysis OffA = MethodAnalysis::analyze(Off);
  ASSERT_EQ(OffA.Types.depthAt(3), 1);
  ASSERT_EQ(OffA.Types.depthAt(7), 0);
  auto Refused = compileTrace(Off, 3, superTier(), &OffA);
  ASSERT_TRUE(Refused.has_value());
  EXPECT_FALSE(hasOp(*Refused, SuperOp::CmpBranchLI));
  EXPECT_EQ(Refused->Ops.front().Kind, SuperOp::ILoad);
}

TEST(TraceAnalysis, SuperblockSpansNonEscapingAllocationSite) {
  JavaVm Vm;
  BytecodeProgram P = hookLoopProgram(Vm.types(), 100);
  P.load(Vm);
  AllocationSiteTable Sites;
  ASSERT_EQ(instrumentProgram(P, Sites), 1u);
  const BytecodeMethod &M = P.method(0);
  MethodAnalysis A = MethodAnalysis::analyze(M);
  constexpr uint32_t Head = 2;
  auto Proven = compileTrace(M, Head, superTier(), &A);
  ASSERT_TRUE(Proven.has_value());
  // The trace runs through the hook triple instead of ending at it...
  EXPECT_TRUE(hasOp(*Proven, SuperOp::HookPre));
  EXPECT_TRUE(hasOp(*Proven, SuperOp::HookPost));
  std::vector<SuperOp> Kinds = opKinds(*Proven);
  auto Pre = std::find(Kinds.begin(), Kinds.end(), SuperOp::HookPre);
  ASSERT_NE(Pre, Kinds.end());
  EXPECT_EQ(*(Pre + 1), SuperOp::Alloc);
  EXPECT_EQ(*(Pre + 2), SuperOp::HookPost);
  // ...and keeps going: the astore and the array store after the
  // allocation are in-trace.
  EXPECT_TRUE(hasOp(*Proven, SuperOp::AStore));
  EXPECT_TRUE(hasOp(*Proven, SuperOp::Access));
  // Without analysis facts the hook still ends the trace.
  auto Base = compileTrace(M, Head, superTier(), nullptr);
  ASSERT_TRUE(Base.has_value());
  EXPECT_FALSE(hasOp(*Base, SuperOp::HookPre));
}

TEST(TraceAnalysis, EscapingSiteStillEndsTheTrace) {
  JavaVm Vm;
  // Same loop shape, but the allocation escapes through aastore into a
  // caller-visible array — the proof fails and the hook stays a trace
  // terminator.
  TypeId IntArr = Vm.types().intArray();
  TypeId ArrArr = Vm.types().refArrayType("int[]");
  MethodBuilder B("H", "main", 0, 2);
  B.iconst(8).aNewArray(ArrArr).astore(1);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(0).iconst(100).ifICmp(Opcode::IfICmpGe, End);
  B.aload(1).iconst(0).iconst(16).newArray(IntArr).aaStore();
  B.iload(0).iconst(1).iadd().istore(0);
  B.jmp(Head);
  B.bind(End);
  B.iload(0).iret();
  ClassFile C;
  C.Name = "H";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  P.load(Vm);
  AllocationSiteTable Sites;
  ASSERT_EQ(instrumentProgram(P, Sites), 2u);
  const BytecodeMethod &M = P.method(0);
  // Instrumentation shifted every pc; re-locate the loop head as the
  // iload two instructions before the loop's compare branch.
  uint32_t HeadPc = 0;
  for (uint32_t Pc = 0; Pc < M.Code.size(); ++Pc)
    if (M.Code[Pc].Op == Opcode::IfICmpGe) {
      HeadPc = Pc - 2;
      break;
    }
  ASSERT_EQ(M.Code[HeadPc].Op, Opcode::ILoad);
  MethodAnalysis A = MethodAnalysis::analyze(M);
  auto T = compileTrace(M, HeadPc, superTier(), &A);
  ASSERT_TRUE(T.has_value());
  EXPECT_FALSE(hasOp(*T, SuperOp::HookPre));
  EXPECT_FALSE(hasOp(*T, SuperOp::Alloc));
}

TEST(TraceAnalysis, HookSpanningExecutionParity) {
  // The fusion contract end to end: an instrumented hot loop whose
  // allocation site is proven non-escaping must produce the identical
  // hook event stream, return value and step count in the interp tier
  // and the super tier, whose traces use the analysis-proven forms.
  struct HookEvent {
    uint64_t Site;
    bool Post;
    ObjectRef Obj;
    bool operator==(const HookEvent &O) const {
      return Site == O.Site && Post == O.Post && Obj == O.Obj;
    }
  };
  auto Run = [&](bool Super, std::string *Traces) {
    JavaVm Vm;
    BytecodeProgram P = hookLoopProgram(Vm.types(), 300);
    P.load(Vm);
    AllocationSiteTable Sites;
    instrumentProgram(P, Sites);
    JavaThread &Th = Vm.startThread("parity", 0);
    Interpreter I(Vm, P, Th);
    if (Super)
      I.setTier(superTier());
    std::vector<HookEvent> Events;
    AllocationHooks Hooks;
    Hooks.Pre = [&](uint64_t Site) {
      Events.push_back({Site, false, kNullRef});
    };
    Hooks.Post = [&](uint64_t Site, ObjectRef Obj) {
      Events.push_back({Site, true, Obj});
    };
    I.setAllocationHooks(std::move(Hooks));
    auto R = I.run("H.main");
    if (Traces)
      *Traces = I.renderTraces();
    uint64_t Steps = I.stepsExecuted();
    Vm.endThread(Th);
    EXPECT_TRUE(R.has_value());
    return std::make_tuple(R->asInt(), Steps, Events);
  };
  std::string FusedTraces;
  auto Fused = Run(true, &FusedTraces);
  auto Interp = Run(false, nullptr);
  // The fused run really took the analysis-proven path.
  EXPECT_NE(FusedTraces.find("hook_pre"), std::string::npos) << FusedTraces;
  EXPECT_NE(FusedTraces.find("hook_post"), std::string::npos);
  EXPECT_NE(FusedTraces.find("cmp_branch_li"), std::string::npos);
  // 300 iterations, one pre + one post each.
  EXPECT_EQ(std::get<2>(Interp).size(), 600u);
  EXPECT_EQ(std::get<0>(Interp), 300);
  // Observational identity across the two tiers.
  EXPECT_TRUE(Fused == Interp);
}

// --- Static allocation-site report ---------------------------------------

TEST(StaticReport, CollectsEscapeClassAndLoopDepthPerSite) {
  JavaVm Vm;
  TypeId IntArr = Vm.types().intArray();
  BytecodeProgram P;
  {
    // Hot.loop: non-escaping allocation inside a depth-1 loop.
    MethodBuilder B("Hot", "loop", 0, 2);
    B.line(5).iconst(0).istore(0);
    Label Head = B.newLabel(), End = B.newLabel();
    B.bind(Head);
    B.iload(0).iconst(10).ifICmp(Opcode::IfICmpGe, End);
    B.line(6).iconst(8).newArray(IntArr).astore(1);
    B.aload(1).iconst(0).iload(0).paStore();
    B.iload(0).iconst(1).iadd().istore(0);
    B.jmp(Head);
    B.bind(End);
    B.iconst(0).iret();
    ClassFile C;
    C.Name = "Hot";
    C.Methods.push_back(B.build());
    // Hot.make: straight-line allocation that escapes by return.
    MethodBuilder B2("Hot", "make", 0, 0);
    B2.line(9).iconst(4).newArray(IntArr).aret();
    C.Methods.push_back(B2.build());
    P.addClass(std::move(C));
  }
  P.load(Vm);
  AllocationSiteTable Sites;
  ASSERT_EQ(instrumentProgram(P, Sites), 2u);

  std::vector<StaticSiteFacts> Facts = collectStaticSiteFacts(P, Sites);
  ASSERT_EQ(Facts.size(), 2u);
  EXPECT_EQ(Facts[0].MethodName, "Hot.loop");
  EXPECT_EQ(Facts[0].Line, 6u);
  EXPECT_EQ(Facts[0].AllocOp, Opcode::NewArray);
  EXPECT_TRUE(Facts[0].Analyzed);
  EXPECT_EQ(Facts[0].LoopDepth, 1u); // Instrumentation keeps loop depth.
  EXPECT_EQ(Facts[0].Routes, 0u);
  EXPECT_TRUE(Facts[0].provenLocal());
  EXPECT_EQ(Facts[1].MethodName, "Hot.make");
  EXPECT_EQ(Facts[1].Line, 9u);
  EXPECT_EQ(Facts[1].LoopDepth, 0u);
  EXPECT_TRUE(Facts[1].Analyzed);
  EXPECT_EQ(Facts[1].Routes, kEscReturn);
  EXPECT_FALSE(Facts[1].provenLocal());

  // Rendering joins against an (empty) dynamic profile without a crash
  // and classifies both sites.
  MergedProfile Prof;
  std::string Out =
      renderStaticReport(Facts, Prof, Vm.methods(), PerfEventKind::L1Miss);
  EXPECT_NE(Out.find("static allocation-site report"), std::string::npos);
  EXPECT_NE(Out.find("1 proven method-local, 1 escaping, 0 unknown"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("Hot.loop"), std::string::npos);
  EXPECT_NE(Out.find("depth 1"), std::string::npos);
  EXPECT_NE(Out.find("return"), std::string::npos);
}

TEST(StaticReport, JoinsDynamicProfileByMethodAndLine) {
  // The real --static-report path: an instrumented profiled run whose
  // merged profile joins the static facts by (method, line) — the row
  // must show the dynamic allocation count and a sample share.
  JavaVm Vm;
  DjxPerfConfig Cfg;
  Cfg.Events = {PerfEventAttr{PerfEventKind::MemAccess, 10, 64}};
  Cfg.MinObjectSize = 16;
  DjxPerf Prof(Vm, Cfg);
  BytecodeProgram P = hookLoopProgram(Vm.types(), 200);
  P.load(Vm);
  JavaThread &Th = Vm.startThread("main", 0);
  {
    Interpreter I(Vm, P, Th);
    ASSERT_EQ(Prof.instrument(P, I), 1u);
    std::vector<StaticSiteFacts> Facts =
        collectStaticSiteFacts(P, Prof.sites());
    ASSERT_EQ(Facts.size(), 1u);
    EXPECT_TRUE(Facts[0].provenLocal());
    EXPECT_EQ(Facts[0].LoopDepth, 1u);
    Prof.start();
    auto R = I.run("H.main");
    Prof.stop();
    EXPECT_TRUE(R.has_value());
    MergedProfile M = Prof.analyze();
    std::string Out =
        renderStaticReport(Facts, M, Vm.methods(), PerfEventKind::MemAccess);
    EXPECT_NE(Out.find("1 proven method-local, 0 escaping, 0 unknown"),
              std::string::npos)
        << Out;
    EXPECT_NE(Out.find("H.main"), std::string::npos);
    // Dynamic columns joined in: 200 allocations and a sample share.
    EXPECT_NE(Out.find("200"), std::string::npos) << Out;
    EXPECT_NE(Out.find("%)"), std::string::npos) << Out;
  }
  Vm.endThread(Th);
}

TEST(StaticReport, EmptyFactsRenderAHint) {
  JavaVm Vm;
  MergedProfile Prof;
  std::string Out =
      renderStaticReport({}, Prof, Vm.methods(), PerfEventKind::L1Miss);
  EXPECT_NE(Out.find("no instrumented allocation sites"), std::string::npos);
}

} // namespace
