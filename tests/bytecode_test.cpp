//===- bytecode_test.cpp - Unit tests for src/bytecode -----------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/TypeState.h"
#include "bytecode/Disassembler.h"
#include "bytecode/MethodBuilder.h"
#include "bytecode/Verifier.h"
#include "instrument/AllocationInstrumenter.h"
#include "jvm/JavaVm.h"
#include "support/VmError.h"
#include "workloads/BytecodePrograms.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(bytecode_test, 88.0, 56.0,
    "src/bytecode/ClassFile.cpp",
    "src/bytecode/ClassFile.h",
    "src/bytecode/Disassembler.cpp",
    "src/bytecode/Disassembler.h",
    "src/bytecode/MethodBuilder.cpp",
    "src/bytecode/MethodBuilder.h",
    "src/bytecode/Opcode.h",
    "src/bytecode/Opcodes.def",
    "src/bytecode/Verifier.cpp",
    "src/bytecode/Verifier.h");

/// Verifies \p Methods as the one class "C" of a program.
VerifyResult verifyClass(std::vector<BytecodeMethod> Methods) {
  BytecodeProgram P;
  ClassFile C;
  C.Name = "C";
  C.Methods = std::move(Methods);
  P.addClass(std::move(C));
  return verifyProgram(P);
}

/// Verifies \p M as the only method of a program.
VerifyResult verifyOne(BytecodeMethod M) {
  std::vector<BytecodeMethod> Methods;
  Methods.push_back(std::move(M));
  return verifyClass(std::move(Methods));
}

TEST(Opcode, NamesAreDistinctive) {
  EXPECT_EQ(opcodeName(Opcode::New), "new");
  EXPECT_EQ(opcodeName(Opcode::NewArray), "newarray");
  EXPECT_EQ(opcodeName(Opcode::ANewArray), "anewarray");
  EXPECT_EQ(opcodeName(Opcode::MultiANewArray), "multianewarray");
  EXPECT_EQ(opcodeName(Opcode::IfICmpLt), "if_icmplt");
}

TEST(Opcode, BranchClassification) {
  EXPECT_TRUE(isBranch(Opcode::Goto));
  EXPECT_TRUE(isBranch(Opcode::IfICmpGe));
  EXPECT_TRUE(isBranch(Opcode::IfNull));
  EXPECT_FALSE(isBranch(Opcode::IAdd));
  EXPECT_FALSE(isBranch(Opcode::Invoke));
  EXPECT_FALSE(isBranch(Opcode::Return));
}

TEST(Opcode, AllocationClassification) {
  EXPECT_TRUE(isAllocation(Opcode::New));
  EXPECT_TRUE(isAllocation(Opcode::NewArray));
  EXPECT_TRUE(isAllocation(Opcode::ANewArray));
  EXPECT_TRUE(isAllocation(Opcode::MultiANewArray));
  EXPECT_FALSE(isAllocation(Opcode::ALoad));
  EXPECT_FALSE(isAllocation(Opcode::AllocHookPre));
}

/// Every opcode, in enum order.
std::vector<Opcode> allOpcodes() {
  std::vector<Opcode> Out;
  for (size_t K = 0; K < kNumOpcodes; ++K)
    Out.push_back(static_cast<Opcode>(K));
  return Out;
}

TEST(Opcode, TableMnemonicsAreUniqueAndDisassembleWithTheirFormat) {
  std::set<std::string> Seen;
  for (Opcode Op : allOpcodes()) {
    const std::string Name = opcodeName(Op);
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate mnemonic " << Name;

    BytecodeMethod M;
    M.ClassName = "C";
    M.MethodName = "m";
    M.CalleeRefs.assign(8, "X.other");
    M.CalleeRefs[7] = "X.y";
    M.Code.push_back(Instruction{Op, 7, 2});
    std::string Operands;
    switch (opcodeInfo(Op).Format) {
    case OperandFormat::None:
      break;
    case OperandFormat::Imm:
    case OperandFormat::Local:
      Operands = " 7";
      break;
    case OperandFormat::Callee:
      Operands = " X.y args=2";
      break;
    case OperandFormat::Field:
      Operands = " off=7 width=2";
      break;
    case OperandFormat::RefField:
      Operands = " off=7";
      break;
    case OperandFormat::Dims:
      Operands = " leaf-type=7 dims=2";
      break;
    }
    EXPECT_EQ(disassemble(M), "C.m (args=0, locals=0)\n  0: " + Name +
                                  Operands + "\n");
  }
  EXPECT_EQ(Seen.size(), kNumOpcodes);
}

/// Infers type states over `iconst 1` x \p Operands, then \p Inst, then
/// `return`, with \p Callee resolving any Invoke.
TypeStateResult inferAfterOperands(const Instruction &Inst, unsigned Operands,
                                   const BytecodeMethod *Callee) {
  BytecodeMethod M;
  M.ClassName = "C";
  M.MethodName = "m";
  M.NumLocals = 2;
  for (unsigned K = 0; K < Operands; ++K)
    M.Code.push_back(Instruction{Opcode::IConst, 1, 0});
  M.Code.push_back(Inst);
  M.Code.push_back(Instruction{Opcode::Return, 0, 0});
  Cfg G = Cfg::build(M);
  return inferTypeStates(
      M, G, [Callee](const Instruction &) { return Callee; });
}

TEST(Opcode, TableStackEffectsMatchTypeState) {
  BytecodeMethod VoidCallee = MethodBuilder("D", "v", 0, 0).ret().build();
  BytecodeMethod IntCallee =
      MethodBuilder("D", "i", 0, 0).iconst(1).iret().build();
  for (Opcode Op : allOpcodes()) {
    const std::string Name = opcodeName(Op);
    // B = 2: multianewarray dimensions / invoke arguments.
    const StackEffect E = instructionStackEffect(Instruction{Op, 0, 2});
    // Branches target the instruction after themselves.
    const Instruction Inst{Op, isBranch(Op) ? E.Pops + 1 : 0, 2};
    for (const BytecodeMethod *Callee : {&VoidCallee, &IntCallee}) {
      if (Callee == &IntCallee && Op != Opcode::Invoke)
        continue;
      SCOPED_TRACE(Name + " with callee " + Callee->qualifiedName());
      TypeStateResult R = inferAfterOperands(Inst, E.Pops, Callee);
      for (const TypeStateError &Err : R.Errors)
        EXPECT_EQ(Err.Msg.find("stack underflow"), std::string::npos)
            << Err.Msg;
      if (isTerminal(Op) && !isBranch(Op)) {
        EXPECT_EQ(E.Pushes, 0u);
        continue;
      }
      // Invoke's push is the callee's return value; the table says 0.
      const int Pushes =
          static_cast<int>(E.Pushes) + (Callee == &IntCallee ? 1 : 0);
      EXPECT_EQ(R.depthAt(E.Pops + 1) - R.depthAt(E.Pops),
                Pushes - static_cast<int>(E.Pops));
    }
    if (E.Pops == 0)
      continue;
    // One operand short: TypeState reports the table's pop count.
    TypeStateResult Short = inferAfterOperands(Inst, E.Pops - 1, &VoidCallee);
    ASSERT_FALSE(Short.Errors.empty()) << Name;
    EXPECT_EQ(Short.Errors[0].Msg,
              "stack underflow: " + Name + " pops " + std::to_string(E.Pops) +
                  " with " + std::to_string(E.Pops - 1) + " on the stack");
  }
}

TEST(Opcode, TerminalAndTraceEndingClassification) {
  EXPECT_TRUE(isTerminal(Opcode::Goto));
  EXPECT_TRUE(isTerminal(Opcode::AReturn));
  EXPECT_FALSE(isTerminal(Opcode::IfEq));
  EXPECT_FALSE(isTerminal(Opcode::Invoke));
  EXPECT_TRUE(endsTrace(Opcode::Invoke));
  EXPECT_TRUE(endsTrace(Opcode::AllocHookPost));
  EXPECT_FALSE(endsTrace(Opcode::Goto));
  EXPECT_TRUE(isICmpBranch(Opcode::IfICmpLe));
  EXPECT_FALSE(isICmpBranch(Opcode::IfLt));
}

TEST(MethodBuilder, EmitsInstructionsInOrder) {
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(5).istore(0).iload(0).iret();
  BytecodeMethod M = B.build();
  ASSERT_EQ(M.Code.size(), 4u);
  EXPECT_EQ(M.Code[0].Op, Opcode::IConst);
  EXPECT_EQ(M.Code[0].A, 5);
  EXPECT_EQ(M.Code[3].Op, Opcode::IReturn);
}

TEST(MethodBuilder, ForwardLabelFixup) {
  MethodBuilder B("C", "m", 0, 0);
  Label L = B.newLabel();
  B.jmp(L);       // bci 0 -> 2
  B.iconst(1);    // bci 1 (skipped)
  B.bind(L);
  B.ret();        // bci 2
  BytecodeMethod M = B.build();
  EXPECT_EQ(M.Code[0].Op, Opcode::Goto);
  EXPECT_EQ(M.Code[0].A, 2);
}

TEST(MethodBuilder, BackwardLabel) {
  MethodBuilder B("C", "m", 0, 0);
  Label Top = B.newLabel();
  B.bind(Top);
  B.iconst(0);
  B.ifNe(Top);
  B.ret();
  BytecodeMethod M = B.build();
  EXPECT_EQ(M.Code[1].A, 0);
}

TEST(MethodBuilder, LineTableMapsBcis) {
  MethodBuilder B("C", "m", 0, 0);
  B.line(10).iconst(1);
  B.pop();
  B.line(12).iconst(2);
  B.pop().ret();
  BytecodeMethod M = B.build();
  ASSERT_EQ(M.LineTable.size(), 2u);
  EXPECT_EQ(M.LineTable[0].Bci, 0u);
  EXPECT_EQ(M.LineTable[0].Line, 10u);
  EXPECT_EQ(M.LineTable[1].Bci, 2u);
  EXPECT_EQ(M.LineTable[1].Line, 12u);
}

TEST(MethodBuilder, InvokeRecordsCalleeRef) {
  MethodBuilder B("C", "m", 0, 0);
  B.invoke("D.helper", 2);
  B.ret();
  BytecodeMethod M = B.build();
  ASSERT_EQ(M.CalleeRefs.size(), 1u);
  EXPECT_EQ(M.CalleeRefs[0], "D.helper");
  EXPECT_EQ(M.Code[0].A, 0); // Callee-table index before linking.
  EXPECT_EQ(M.Code[0].B, 2);
}

TEST(Verifier, AcceptsWellFormedMethod) {
  MethodBuilder B("C", "m", 1, 2);
  Label L = B.newLabel();
  B.iload(0).ifEq(L).iconst(1).istore(1).bind(L).ret();
  BytecodeMethod M = B.build();
  EXPECT_TRUE(verifyOne(M).ok());
}

TEST(Verifier, RejectsEmptyCode) {
  BytecodeMethod M;
  M.ClassName = "C";
  M.MethodName = "m";
  VerifyResult R = verifyOne(M);
  EXPECT_FALSE(R.ok());
}

TEST(Verifier, RejectsBranchOutOfRange) {
  BytecodeMethod M;
  M.ClassName = "C";
  M.MethodName = "m";
  M.Code.push_back(Instruction{Opcode::Goto, 99, 0});
  VerifyResult R = verifyOne(M);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("branch target"), std::string::npos);
}

TEST(Verifier, RejectsLocalOutOfRange) {
  BytecodeMethod M;
  M.ClassName = "C";
  M.MethodName = "m";
  M.NumLocals = 1;
  M.Code.push_back(Instruction{Opcode::ILoad, 3, 0});
  M.Code.push_back(Instruction{Opcode::Return, 0, 0});
  EXPECT_FALSE(verifyOne(M).ok());
}

TEST(Verifier, RejectsMissingTerminator) {
  BytecodeMethod M;
  M.ClassName = "C";
  M.MethodName = "m";
  M.Code.push_back(Instruction{Opcode::Nop, 0, 0});
  VerifyResult R = verifyOne(M);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("return"), std::string::npos);
}

TEST(Verifier, RejectsUnsortedLineTable) {
  MethodBuilder B("C", "m", 0, 0);
  B.ret();
  BytecodeMethod M = B.build();
  M.LineTable = {{5, 1}, {3, 2}};
  EXPECT_FALSE(verifyOne(M).ok());
}

TEST(Program, LoadLinksInvokesAndRegistersMethods) {
  JavaVm Vm;
  BytecodeProgram P;
  {
    MethodBuilder B("C", "callee", 0, 0);
    B.iconst(7).iret();
    ClassFile C;
    C.Name = "C";
    C.Methods.push_back(B.build());
    P.addClass(std::move(C));
  }
  {
    MethodBuilder B("D", "caller", 0, 0);
    B.invoke("C.callee", 0).iret();
    ClassFile C;
    C.Name = "D";
    C.Methods.push_back(B.build());
    P.addClass(std::move(C));
  }
  P.load(Vm);
  EXPECT_TRUE(P.isLoaded());
  EXPECT_EQ(P.numMethods(), 2u);
  size_t CalleeIdx = P.methodIndex("C.callee");
  const BytecodeMethod &Caller = P.method(P.methodIndex("D.caller"));
  EXPECT_EQ(Caller.Code[0].A, static_cast<int64_t>(CalleeIdx));
  // Methods are registered with the VM (symbolisation works).
  EXPECT_NE(Caller.RegistryId, kInvalidMethod);
  EXPECT_EQ(Vm.methods().qualifiedName(Caller.RegistryId), "D.caller");
}

TEST(Program, VerifyProgramAggregatesErrors) {
  JavaVm Vm;
  BytecodeProgram P;
  BytecodeMethod Bad;
  Bad.ClassName = "C";
  Bad.MethodName = "bad";
  ClassFile C;
  C.Name = "C";
  C.Methods.push_back(Bad);
  P.addClass(std::move(C));
  VerifyResult R = verifyProgram(P);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("C.bad"), std::string::npos);
}

TEST(Verifier, RejectsStackUnderflow) {
  // IAdd pops two, but only one value was ever pushed: a definite
  // underflow the type-state pass must flag without a false positive
  // elsewhere.
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(1);
  BytecodeMethod M = B.build();
  M.Code.push_back(Instruction{Opcode::IAdd, 0, 0});
  M.Code.push_back(Instruction{Opcode::Return, 0, 0});
  VerifyResult R = verifyOne(M);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("bci 1: stack underflow"), std::string::npos);
}

TEST(Verifier, DepthDiagnosticsKeepTheirExactText) {
  auto Errors = [](std::vector<Instruction> Code) {
    BytecodeMethod M;
    M.ClassName = "C";
    M.MethodName = "m";
    M.NumLocals = 1;
    M.CalleeRefs = {"X.y"};
    M.Code = std::move(Code);
    return verifyOne(M).Errors;
  };
  using Errs = std::vector<std::string>;
  // A loop that pumps one value onto the stack every trip: the back edge
  // meets the entry at a different depth.
  EXPECT_EQ(Errors({{Opcode::IConst, 1, 0}, {Opcode::Goto, 0, 0}}),
            Errs{"C.m: bci 0: operand stack depth mismatch at merge (0 vs 1)"});
  // A call the program cannot resolve stops verification before any
  // stack shape is inferred.
  EXPECT_EQ(Errors({{Opcode::Invoke, 0, 0},
                    {Opcode::Pop, 0, 0},
                    {Opcode::Pop, 0, 0},
                    {Opcode::Return, 0, 0}}),
            Errs{"C.m: bci 0: unresolved callee 'X.y'"});
  // Both arms of a branch underflow: one diagnostic each.
  EXPECT_EQ(Errors({{Opcode::ILoad, 0, 0},
                    {Opcode::IfEq, 3, 0},
                    {Opcode::Pop, 0, 0},
                    {Opcode::Pop, 0, 0},
                    {Opcode::Return, 0, 0}}),
            (Errs{"C.m: bci 2: stack underflow: pop pops 1 with 0 on the stack",
                  "C.m: bci 3: stack underflow: pop pops 1 with 0 on the "
                  "stack"}));
}

TEST(Verifier, RejectsAStackPastTheDepthCapAtItsBci) {
  // One push past the cap: rejected where the depth first exceeds it,
  // without building a frame per pc (that would need tens of GB here).
  BytecodeMethod M;
  M.ClassName = "C";
  M.MethodName = "m";
  M.Code.assign(kMaxStackDepth + 1, Instruction{Opcode::IConst, 1, 0});
  M.Code.push_back(Instruction{Opcode::Return, 0, 0});
  auto Start = std::chrono::steady_clock::now();
  VerifyResult R = verifyOne(std::move(M));
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_EQ(R.Errors,
            std::vector<std::string>{
                "C.m: bci 65536: operand stack deeper than 65536 slots"});
  EXPECT_EQ(R.MaxStack, std::vector<uint32_t>{0});
  EXPECT_LT(Seconds, 5.0);
}

TEST(Verifier, AcceptsADeepStraightLineStackQuickly) {
  // Half the cap pushed, then popped, in one block: a frame per pc would
  // need about 16 GB here; the stack map keeps one frame for the block.
  constexpr uint32_t N = 32768;
  BytecodeMethod M;
  M.ClassName = "C";
  M.MethodName = "m";
  M.Code.assign(N, Instruction{Opcode::IConst, 1, 0});
  M.Code.insert(M.Code.end(), N, Instruction{Opcode::Pop, 0, 0});
  M.Code.push_back(Instruction{Opcode::Return, 0, 0});
  auto Start = std::chrono::steady_clock::now();
  VerifyResult R = verifyOne(std::move(M));
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.Errors[0]);
  EXPECT_EQ(R.MaxStack, std::vector<uint32_t>{N});
  EXPECT_LT(Seconds, 1.0);
}

TEST(Verifier, RejectsArgCountExceedingLocals) {
  MethodBuilder B("C", "m", 0, 1);
  B.ret();
  BytecodeMethod M = B.build();
  M.NumArgs = 3; // Arguments land in locals [0,3) but only 1 slot exists.
  VerifyResult R = verifyOne(M);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("argument count exceeds local slots"),
            std::string::npos);
}

/// Verifies \p Methods as the one class "C" of a program; returns each
/// method's max_stack, in order.
std::vector<uint32_t> programMaxStack(std::vector<BytecodeMethod> Methods) {
  VerifyResult R = verifyClass(std::move(Methods));
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.Errors[0]);
  return R.MaxStack;
}

TEST(Verifier, MaxStackOfStraightLineCode) {
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(1).iconst(2).iconst(3).iadd().iadd().istore(0);
  B.iload(0).dup().iadd().iret();
  EXPECT_EQ(programMaxStack({B.build()}), std::vector<uint32_t>{3});
}

TEST(Verifier, MaxStackOfALoopIsItsDeepestPoint) {
  // for (i = 0; i < 10; ++i) s += i * 2;  -- the body peaks at 3.
  MethodBuilder B("C", "m", 0, 2);
  B.iconst(0).istore(0).iconst(0).istore(1);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(0).iconst(10).ifICmp(Opcode::IfICmpGe, End);
  B.iload(1).iload(0).iconst(2).imul().iadd().istore(1);
  B.iload(0).iconst(1).iadd().istore(0);
  B.jmp(Head);
  B.bind(End);
  B.iload(1).iret();
  EXPECT_EQ(programMaxStack({B.build()}), std::vector<uint32_t>{3});
}

TEST(Verifier, MaxStackCountsAnInvokeResultOnlyForAValueCallee) {
  BytecodeMethod Void = MethodBuilder("C", "v", 1, 1).ret().build();
  BytecodeMethod Int = MethodBuilder("C", "i", 1, 1).iload(0).iret().build();
  // After the call: nothing (void) or the result (value), then two more.
  auto Caller = [](const char *Name, const char *Callee, bool HasResult) {
    MethodBuilder B("C", Name, 0, 0);
    B.iconst(1).invoke(Callee, 1).iconst(2).iconst(3).iadd();
    if (HasResult)
      B.iadd();
    return B.iret().build();
  };
  BytecodeMethod CallVoid = Caller("callVoid", "C.v", false);
  BytecodeMethod CallInt = Caller("callInt", "C.i", true);
  EXPECT_EQ(programMaxStack({Void, Int, CallVoid, CallInt}),
            (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(Verifier, AcceptsALoopThatCallsAVoidMethod) {
  // Each trip calls a void method. The program resolves the call to no
  // push, so the depth at the loop head is the same on every trip.
  BytecodeMethod Void = MethodBuilder("C", "v", 1, 1).ret().build();
  MethodBuilder B("C", "loop", 0, 1);
  B.iconst(0).istore(0);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(0).iconst(3).ifICmp(Opcode::IfICmpGe, End);
  B.iload(0).invoke("C.v", 1);
  B.iload(0).iconst(1).iadd().istore(0);
  B.jmp(Head);
  B.bind(End);
  B.ret();
  BytecodeMethod Loop = B.build();
  EXPECT_EQ(programMaxStack({Void, Loop}), (std::vector<uint32_t>{0, 2}));
}

TEST(Verifier, MaxStackOfMultiANewArrayCountsEveryDimension) {
  MethodBuilder B("C", "m", 0, 1);
  B.iconst(2).iconst(3).iconst(4).multiANewArray(7, 3).astore(0);
  B.aload(0).aret();
  EXPECT_EQ(programMaxStack({B.build()}), std::vector<uint32_t>{3});
}

TEST(Program, LoadRecordsEachMethodsMaxStack) {
  JavaVm Vm;
  BytecodeProgram P;
  ClassFile C;
  C.Name = "C";
  C.Methods.push_back(MethodBuilder("C", "i", 1, 1).iload(0).iret().build());
  C.Methods.push_back(MethodBuilder("C", "m", 0, 0)
                          .iconst(1)
                          .iconst(2)
                          .invoke("C.i", 1)
                          .iadd()
                          .iret()
                          .build());
  P.addClass(std::move(C));
  P.load(Vm);
  EXPECT_EQ(P.method(P.methodIndex("C.i")).MaxStack, 1u);
  EXPECT_EQ(P.method(P.methodIndex("C.m")).MaxStack, 2u);
}

TEST(Verifier, InstrumentationLeavesEveryMaxStackSound) {
  // The agent's hooks are depth-neutral (allochook_pre touches nothing,
  // allochook_post peeks the fresh reference), so the max_stack load
  // recorded still bounds the rewritten code: re-verifying yields it
  // exactly.
  JavaVm Vm;
  std::vector<BytecodeProgram> Programs;
  Programs.push_back(buildBatikProgram(Vm.types()));
  Programs.push_back(buildLusearchProgram(Vm.types()));
  Programs.push_back(buildParallelWorkerProgram(Vm.types()));
  Programs.push_back(buildNumaWorkerProgram(Vm.types()));
  for (BytecodeProgram &P : Programs) {
    P.load(Vm);
    AllocationSiteTable Sites;
    ASSERT_GT(instrumentProgram(P, Sites), 0u);
    VerifyResult R = verifyProgram(P);
    ASSERT_TRUE(R.ok()) << R.Errors[0];
    ASSERT_EQ(R.MaxStack.size(), P.numMethods());
    for (size_t I = 0; I < P.numMethods(); ++I) {
      SCOPED_TRACE(P.method(I).qualifiedName());
      EXPECT_GT(P.method(I).MaxStack, 0u);
      EXPECT_EQ(R.MaxStack[I], P.method(I).MaxStack);
    }
  }
}

TEST(Program, VerifyProgramRejectsInvokeArityMismatch) {
  BytecodeProgram P;
  {
    MethodBuilder B("C", "callee", 2, 2);
    B.iconst(7).iret();
    ClassFile C;
    C.Name = "C";
    C.Methods.push_back(B.build());
    P.addClass(std::move(C));
  }
  {
    // Passes one argument to a two-argument callee.
    MethodBuilder B("D", "caller", 0, 1);
    B.iconst(1).invoke("C.callee", 1).iret();
    ClassFile C;
    C.Name = "D";
    C.Methods.push_back(B.build());
    P.addClass(std::move(C));
  }
  VerifyResult R = verifyProgram(P);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("invoke passes 1"), std::string::npos);
  EXPECT_NE(R.Errors[0].find("C.callee"), std::string::npos);
}

TEST(Program, VerifyProgramRejectsUnresolvedCallee) {
  BytecodeProgram P;
  MethodBuilder B("C", "m", 0, 0);
  B.invoke("Ghost.method", 0).ret();
  ClassFile C;
  C.Name = "C";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  VerifyResult R = verifyProgram(P);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("Ghost.method"), std::string::npos);
}

TEST(Program, LoadThrowsTypedErrorOnMalformedProgram) {
  // load() runs class-load-time verification: a malformed program must
  // surface as VmError::InvalidBytecode (CLI exit code 5), never reach
  // the interpreter's asserts.
  JavaVm Vm;
  BytecodeProgram P;
  BytecodeMethod M;
  M.ClassName = "C";
  M.MethodName = "jump";
  M.Code.push_back(Instruction{Opcode::Goto, 99, 0}); // Out of range.
  ClassFile C;
  C.Name = "C";
  C.Methods.push_back(M);
  P.addClass(std::move(C));
  try {
    P.load(Vm);
    FAIL() << "load() accepted a malformed program";
  } catch (const VmError &E) {
    EXPECT_EQ(E.Kind, VmErrorKind::InvalidBytecode);
    std::string W = E.what();
    EXPECT_NE(W.find("program verification failed"), std::string::npos);
    EXPECT_NE(W.find("branch target"), std::string::npos);
  }
  EXPECT_FALSE(P.isLoaded());
}

TEST(Disassembler, ListsInstructionsAndLines) {
  MethodBuilder B("FFT", "transform", 1, 2);
  B.line(165).iload(0);
  B.line(171).newArray(3);
  B.astore(1).aload(1).aret();
  BytecodeMethod M = B.build();
  std::string S = disassemble(M);
  EXPECT_NE(S.find("FFT.transform"), std::string::npos);
  EXPECT_NE(S.find("// line 165"), std::string::npos);
  EXPECT_NE(S.find("// line 171"), std::string::npos);
  EXPECT_NE(S.find("newarray"), std::string::npos);
  EXPECT_NE(S.find("areturn"), std::string::npos);
}

TEST(Disassembler, RendersEverySuperOpOfATrace) {
  // The --dump-traces listing: one line per superop with its operands,
  // a constituent range for fused ops, and the fall-through exit.
  BytecodeMethod M = MethodBuilder("C", "m", 0, 0).ret().build();
  CompiledTrace T;
  T.EntryPc = 10;
  T.MinStackDepth = 1;
  auto Add = [&](SuperOp Kind, Opcode Src, uint16_t Steps, int64_t A = 0,
                 int64_t B = 0, int64_t C = 0) {
    TraceOp O;
    O.Kind = Kind;
    O.Src = Src;
    O.NumSteps = Steps;
    O.Pc = T.EntryPc + T.NumSteps;
    O.A = A;
    O.B = B;
    O.C = C;
    T.Ops.push_back(O);
    T.NumSteps += Steps;
  };
  Add(SuperOp::Nop, Opcode::Nop, 1);
  Add(SuperOp::IConst, Opcode::IConst, 1, -3);
  Add(SuperOp::ILoad, Opcode::ILoad, 1, 0);
  Add(SuperOp::ALoad, Opcode::ALoad, 1, 1);
  Add(SuperOp::IStore, Opcode::IStore, 1, 2);
  Add(SuperOp::AStore, Opcode::AStore, 1, 3);
  Add(SuperOp::PopV, Opcode::Pop, 1);
  Add(SuperOp::DupV, Opcode::Dup, 1);
  Add(SuperOp::SwapV, Opcode::Swap, 1);
  Add(SuperOp::Alu, Opcode::IMul, 1);
  Add(SuperOp::INeg, Opcode::INeg, 1);
  Add(SuperOp::Br, Opcode::IfEq, 1, 4);
  Add(SuperOp::Access, Opcode::GetField, 1, 8, 4);
  Add(SuperOp::HookPre, Opcode::AllocHookPre, 1, 7);
  Add(SuperOp::Alloc, Opcode::NewArray, 1, 5);
  Add(SuperOp::HookPost, Opcode::AllocHookPost, 1, 7);
  Add(SuperOp::CmpBranchLL, Opcode::IfICmpLt, 3, 0, 1, 2);
  Add(SuperOp::CmpBranchLI, Opcode::IfICmpGe, 3, 0, 100, 3);
  Add(SuperOp::IncLocal, Opcode::IAdd, 4, 2, -1);
  Add(SuperOp::AccumLocal, Opcode::IAdd, 3, 1);
  Add(SuperOp::PALoadLL, Opcode::PALoad, 3, 1, 2);
  Add(SuperOp::PAStoreLLL, Opcode::PAStore, 4, 1, 2, 0);
  T.EndPc = T.EntryPc + T.NumSteps;
  const std::string Body =
      "  10: nop\n"
      "  11: iconst -3\n"
      "  12: iload L0\n"
      "  13: aload L1\n"
      "  14: istore L2\n"
      "  15: astore L3\n"
      "  16: pop\n"
      "  17: dup\n"
      "  18: swap\n"
      "  19: alu (imul)\n"
      "  20: ineg\n"
      "  21: br (ifeq) -> 4 [side exit]\n"
      "  22: access (getfield)\n"
      "  23: hook_pre site=7\n"
      "  24: alloc (newarray) type=5\n"
      "  25: hook_post site=7\n"
      "  26..28: cmp_branch_ll (if_icmplt) L0, L1 -> 2 [side exit]\n"
      "  29..31: cmp_branch_li (if_icmpge) L0, #100 -> 3 [side exit]\n"
      "  32..35: inc_local L2 += -1\n"
      "  36..38: accum_local L1\n"
      "  39..41: pa_load_ll arr=L1 idx=L2\n"
      "  42..45: pa_store_lll arr=L1 idx=L2 val=L0\n";
  EXPECT_EQ(disassembleTrace(M, T),
            "trace C.m @10: 22 superops / 36 steps, exit -> 46 (floor=1)\n" +
                Body + "  46: [fall-through]\n");
  // A trace ending in its own goto lists no fall-through.
  Add(SuperOp::GotoExit, Opcode::Goto, 1, 10);
  T.EndPc = T.EntryPc + T.NumSteps;
  EXPECT_EQ(disassembleTrace(M, T),
            "trace C.m @10: 23 superops / 37 steps, exit -> 47 (floor=1)\n" +
                Body + "  46: goto_exit -> 10 [exit]\n");
}

TEST(Disassembler, ShowsCalleeNamesBeforeLinking) {
  MethodBuilder B("C", "m", 0, 0);
  B.invoke("X.y", 1).ret();
  BytecodeMethod M = B.build();
  std::string S = disassemble(M);
  EXPECT_NE(S.find("invoke X.y"), std::string::npos);
}

} // namespace
