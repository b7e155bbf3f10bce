//===- instrument_test.cpp - Unit tests for src/instrument --------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/MethodBuilder.h"
#include "bytecode/Verifier.h"
#include "instrument/AllocationInstrumenter.h"
#include "instrument/MethodTransformer.h"
#include "interp/Interpreter.h"
#include "workloads/BytecodePrograms.h"

#include <gtest/gtest.h>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(instrument_test, 90.0, 55.0,
    "src/instrument/AllocationInstrumenter.cpp",
    "src/instrument/AllocationInstrumenter.h",
    "src/instrument/MethodTransformer.cpp",
    "src/instrument/MethodTransformer.h");

TEST(MethodTransformer, IdentityVisitPreservesCode) {
  MethodBuilder B("C", "m", 0, 1);
  Label L = B.newLabel();
  B.iconst(1).ifNe(L).iconst(2).pop().bind(L).ret();
  BytecodeMethod M = B.build();
  std::vector<Instruction> Before = M.Code;
  int64_t Added = transformMethod(
      M, [](const Instruction &I, uint32_t, std::vector<Instruction> &Out) {
        Out.push_back(I);
      });
  EXPECT_EQ(Added, 0);
  ASSERT_EQ(M.Code.size(), Before.size());
  for (size_t I = 0; I < Before.size(); ++I) {
    EXPECT_EQ(M.Code[I].Op, Before[I].Op);
    EXPECT_EQ(M.Code[I].A, Before[I].A);
  }
}

/// Verifies \p M as the one method of a one-class program.
VerifyResult verifyOne(BytecodeMethod M) {
  ClassFile C;
  C.Name = M.ClassName;
  C.Methods.push_back(std::move(M));
  BytecodeProgram P;
  P.addClass(std::move(C));
  return verifyProgram(P);
}

TEST(MethodTransformer, ExpansionRemapsBranchTargets) {
  // A branch over an expanded instruction must land on the same logical
  // spot.
  MethodBuilder B("C", "m", 1, 1);
  Label L = B.newLabel();
  B.iload(0);    // 0
  B.ifEq(L);     // 1: ifeq 4
  B.iconst(1);   // 2
  B.pop();       // 3
  B.bind(L);
  B.ret();       // 4
  BytecodeMethod M = B.build();
  int64_t Added = transformMethod(
      M, [](const Instruction &I, uint32_t, std::vector<Instruction> &Out) {
        if (I.Op == Opcode::IConst) { // Expand 1 -> 3 instructions.
          Out.push_back(Instruction{Opcode::Nop, 0, 0});
          Out.push_back(I);
          Out.push_back(Instruction{Opcode::Nop, 0, 0});
        } else {
          Out.push_back(I);
        }
      });
  EXPECT_EQ(Added, 2);
  EXPECT_EQ(M.Code[1].Op, Opcode::IfEq);
  EXPECT_EQ(M.Code[1].A, 6); // Old 4 -> new 6.
  EXPECT_EQ(M.Code[6].Op, Opcode::Return);
  EXPECT_TRUE(verifyOne(std::move(M)).ok());
}

TEST(MethodTransformer, RemapsLineTable) {
  MethodBuilder B("C", "m", 0, 0);
  B.line(10).iconst(1);
  B.line(11).pop();
  B.ret();
  BytecodeMethod M = B.build();
  transformMethod(
      M, [](const Instruction &I, uint32_t, std::vector<Instruction> &Out) {
        Out.push_back(Instruction{Opcode::Nop, 0, 0});
        Out.push_back(I);
      });
  ASSERT_EQ(M.LineTable.size(), 2u);
  EXPECT_EQ(M.LineTable[0].Bci, 0u); // Line marker moves to the Nop.
  EXPECT_EQ(M.LineTable[1].Bci, 2u);
}

TEST(AllocationInstrumenter, WrapsAllFourAllocationOpcodes) {
  JavaVm Vm;
  BytecodeProgram P;
  TypeId Obj = Vm.types().defineClass("Obj", 16);
  TypeId IntArr = Vm.types().intArray();
  TypeId ObjArr = Vm.types().refArrayType("Obj");
  MethodBuilder B("C", "m", 0, 4);
  B.line(100).newObject(Obj).astore(0);
  B.line(101).iconst(4).newArray(IntArr).astore(1);
  B.line(102).iconst(4).aNewArray(ObjArr).astore(2);
  B.line(103).iconst(2).iconst(2).multiANewArray(IntArr, 2).astore(3);
  B.ret();
  ClassFile C;
  C.Name = "C";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);

  AllocationSiteTable Sites;
  unsigned N = instrumentProgram(P, Sites);
  EXPECT_EQ(N, 4u);
  ASSERT_EQ(Sites.size(), 4u);
  EXPECT_EQ(Sites.get(0).AllocOp, Opcode::New);
  EXPECT_EQ(Sites.get(0).Line, 100u);
  EXPECT_EQ(Sites.get(1).AllocOp, Opcode::NewArray);
  EXPECT_EQ(Sites.get(1).Line, 101u);
  EXPECT_EQ(Sites.get(2).AllocOp, Opcode::ANewArray);
  EXPECT_EQ(Sites.get(3).AllocOp, Opcode::MultiANewArray);
  EXPECT_EQ(Sites.get(3).Line, 103u);

  // Each allocation is bracketed pre/post.
  const BytecodeMethod &M = P.method(0);
  for (size_t I = 0; I < M.Code.size(); ++I) {
    if (!isAllocation(M.Code[I].Op))
      continue;
    ASSERT_GT(I, 0u);
    EXPECT_EQ(M.Code[I - 1].Op, Opcode::AllocHookPre);
    EXPECT_EQ(M.Code[I + 1].Op, Opcode::AllocHookPost);
    EXPECT_EQ(M.Code[I - 1].A, M.Code[I + 1].A) << "site ids must match";
  }
  EXPECT_TRUE(verifyProgram(P).ok());
}

TEST(AllocationInstrumenter, PreservesProgramSemantics) {
  // The batik bytecode program must compute the same result before and
  // after instrumentation.
  VmConfig Cfg;
  Cfg.HeapBytes = 4 << 20;
  auto RunIt = [&Cfg](bool Instrument) -> uint64_t {
    JavaVm Vm(Cfg);
    BytecodeProgram P = buildBatikProgram(Vm.types());
    P.load(Vm);
    AllocationSiteTable Sites;
    if (Instrument)
      instrumentProgram(P, Sites);
    JavaThread &T = Vm.startThread("t", 0);
    Interpreter I(Vm, P, T);
    I.run("Main.run", {Value::fromInt(20), Value::fromInt(64)});
    return Vm.heap().allocationsCount();
  };
  EXPECT_EQ(RunIt(false), RunIt(true));
}

TEST(AllocationInstrumenter, SiteIdsAreStableAcrossMethods) {
  JavaVm Vm;
  BytecodeProgram P = buildBatikProgram(Vm.types());
  P.load(Vm);
  AllocationSiteTable Sites;
  unsigned N = instrumentProgram(P, Sites);
  EXPECT_EQ(N, 1u); // Only makeRoom allocates.
  const AllocationSite &S = Sites.get(0);
  EXPECT_EQ(Vm.methods().qualifiedName(S.Method),
            "ExtendedGeneralPath.makeRoom");
  EXPECT_EQ(S.Line, 743u);
}

TEST(AllocationInstrumenter, LoopAllocationFiresHookPerIteration) {
  VmConfig Cfg;
  Cfg.HeapBytes = 4 << 20;
  JavaVm Vm(Cfg);
  BytecodeProgram P = buildBatikProgram(Vm.types());
  P.load(Vm);
  AllocationSiteTable Sites;
  instrumentProgram(P, Sites);
  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  int Hooks = 0;
  AllocationHooks H;
  H.Post = [&](uint64_t, ObjectRef) { ++Hooks; };
  I.setAllocationHooks(std::move(H));
  I.run("Main.run", {Value::fromInt(17), Value::fromInt(32)});
  EXPECT_EQ(Hooks, 17);
}

TEST(AllocationInstrumenter, LusearchProgramInstrumentable) {
  JavaVm Vm;
  BytecodeProgram P = buildLusearchProgram(Vm.types());
  P.load(Vm);
  AllocationSiteTable Sites;
  unsigned N = instrumentProgram(P, Sites);
  EXPECT_EQ(N, 1u);
  EXPECT_EQ(Sites.get(0).AllocOp, Opcode::New);
  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  auto R = I.run("Main.run", {Value::fromInt(10)});
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->asInt(), 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9);
}

} // namespace
