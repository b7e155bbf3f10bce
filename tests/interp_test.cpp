//===- interp_test.cpp - Unit tests for src/interp ---------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/MethodBuilder.h"
#include "instrument/AllocationInstrumenter.h"
#include "interp/Interpreter.h"
#include "support/VmError.h"

#include <gtest/gtest.h>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(interp_test, 89.0, 59.0,
    "src/interp/Interpreter.cpp",
    "src/interp/Interpreter.h",
    "src/interp/Semantics.h");

/// Builds, loads and runs a single 0-arg method, returning its result.
std::optional<Value> runSingle(JavaVm &Vm,
                               std::function<void(MethodBuilder &)> Body,
                               uint32_t NumLocals = 4) {
  BytecodeProgram P;
  MethodBuilder B("T", "main", 0, NumLocals);
  Body(B);
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);
  JavaThread &T = Vm.startThread("interp", 0);
  Interpreter I(Vm, P, T);
  return I.run("T.main");
}

TEST(Interpreter, ArithmeticChain) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) {
    // ((10 - 3) * 4 + 2) / 3 % 4 = 30/3 % 4 = 10 % 4 = 2.
    B.iconst(10).iconst(3).isub();
    B.iconst(4).imul();
    B.iconst(2).iadd();
    B.iconst(3).idiv();
    B.iconst(4).irem();
    B.iret();
  });
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->asInt(), 2);
}

TEST(Interpreter, BitwiseAndShifts) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) {
    // ((0xF0 & 0x3C) | 0x01) ^ 0x02 = (0x30|0x01)^0x02 = 0x33.
    B.iconst(0xF0).iconst(0x3C).iand();
    B.iconst(0x01).ior();
    B.iconst(0x02).ixor();
    B.iconst(2).ishl();  // 0x33 << 2 = 0xCC.
    B.iconst(1).ishr();  // 0xCC >> 1 = 0x66.
    B.iret();
  });
  EXPECT_EQ(R->asInt(), 0x66);
}

TEST(Interpreter, NegationAndLocals) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) {
    B.iconst(42).ineg().istore(0);
    B.iload(0).ineg().iret();
  });
  EXPECT_EQ(R->asInt(), 42);
}

TEST(Interpreter, JvmWrappingArithmetic) {
  // 64-bit long semantics: overflow wraps, MIN / -1 is MIN, MIN % -1 is
  // 0, shift counts are taken mod 64.
  struct Case {
    int64_t A, B;
    MethodBuilder &(MethodBuilder::*Op)();
    int64_t Want;
  };
  const Case Cases[] = {
      {INT64_MAX, 1, &MethodBuilder::iadd, INT64_MIN},
      {INT64_MIN, 1, &MethodBuilder::isub, INT64_MAX},
      {INT64_MAX, 2, &MethodBuilder::imul, -2},
      {INT64_MIN, -1, &MethodBuilder::imul, INT64_MIN},
      {INT64_MIN, -1, &MethodBuilder::idiv, INT64_MIN},
      {INT64_MIN, -1, &MethodBuilder::irem, 0},
      {-7, 2, &MethodBuilder::idiv, -3},
      {-7, 2, &MethodBuilder::irem, -1},
      {-1, 63, &MethodBuilder::ishl, INT64_MIN},
      {1, 64, &MethodBuilder::ishl, 1},
      {-8, 65, &MethodBuilder::ishr, -4},
  };
  VmConfig Small;
  Small.HeapBytes = 1 << 20;
  for (const Case &C : Cases) {
    JavaVm Vm(Small);
    auto R = runSingle(Vm, [&](MethodBuilder &B) {
      (B.iconst(C.A).iconst(C.B).*C.Op)();
      B.iret();
    });
    EXPECT_EQ(R->asInt(), C.Want) << C.A << " op " << C.B;
  }
  JavaVm Vm(Small);
  auto R = runSingle(Vm, [](MethodBuilder &B) {
    B.iconst(INT64_MIN).ineg().iret();
  });
  EXPECT_EQ(R->asInt(), INT64_MIN);
}

TEST(Interpreter, StackOps) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) {
    B.iconst(1).iconst(2).swap(); // 2, 1 on stack (1 on top).
    B.isub();                     // 2 - 1 = 1.
    B.dup().iadd();               // 2.
    B.iconst(9).pop();
    B.iret();
  });
  EXPECT_EQ(R->asInt(), 2);
}

TEST(Interpreter, LoopComputesSum) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) {
    // for (i = 0, s = 0; i < 10; i++) s += i; return s; // 45
    B.iconst(0).istore(0);
    B.iconst(0).istore(1);
    Label Loop = B.newLabel(), End = B.newLabel();
    B.bind(Loop);
    B.iload(0).iconst(10).ifICmp(Opcode::IfICmpGe, End);
    B.iload(1).iload(0).iadd().istore(1);
    B.iload(0).iconst(1).iadd().istore(0);
    B.jmp(Loop);
    B.bind(End);
    B.iload(1).iret();
  });
  EXPECT_EQ(R->asInt(), 45);
}

TEST(Interpreter, ConditionalBranchKinds) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) {
    Label A = B.newLabel(), B2 = B.newLabel(), Done = B.newLabel();
    B.iconst(0).ifEq(A);
    B.iconst(-1).iret();
    B.bind(A);
    B.iconst(-5).ifLt(B2);
    B.iconst(-2).iret();
    B.bind(B2);
    B.iconst(3).ifGe(Done);
    B.iconst(-3).iret();
    B.bind(Done);
    B.iconst(7).iret();
  });
  EXPECT_EQ(R->asInt(), 7);
}

TEST(Interpreter, PrimArrayRoundTrip) {
  JavaVm Vm;
  TypeId IntArr = Vm.types().intArray();
  auto R = runSingle(Vm, [&](MethodBuilder &B) {
    B.iconst(10).newArray(IntArr).astore(0);
    // a[3] = 77; return a[3] + a.length.
    B.aload(0).iconst(3).iconst(77).paStore();
    B.aload(0).iconst(3).paLoad();
    B.aload(0).arrayLength().iadd();
    B.iret();
  });
  EXPECT_EQ(R->asInt(), 87);
}

TEST(Interpreter, ByteAndLongArrays) {
  JavaVm Vm;
  auto R = runSingle(Vm, [&](MethodBuilder &B) {
    TypeId ByteArr = 0; // byte[] is type 0 in a fresh registry.
    B.iconst(16).newArray(ByteArr).astore(0);
    B.aload(0).iconst(2).iconst(0x1FF).paStore(); // Truncates to 0xFF.
    B.aload(0).iconst(2).paLoad();
    B.iret();
  });
  EXPECT_EQ(R->asInt(), 0xFF);
}

TEST(Interpreter, RefArraysAndNullChecks) {
  JavaVm Vm;
  TypeId Obj = Vm.types().defineClass("Obj", 16);
  TypeId ObjArr = Vm.types().refArrayType("Obj");
  auto R = runSingle(Vm, [&](MethodBuilder &B) {
    B.iconst(4).aNewArray(ObjArr).astore(0);
    // arr[1] = new Obj(); return arr[1] != null && arr[0] == null.
    B.aload(0).iconst(1).newObject(Obj).aaStore();
    Label NonNull = B.newLabel(), Fail = B.newLabel();
    B.aload(0).iconst(1).aaLoad().ifNonNull(NonNull);
    B.bind(Fail);
    B.iconst(0).iret();
    B.bind(NonNull);
    Label Null2 = B.newLabel();
    B.aload(0).iconst(0).aaLoad().ifNull(Null2);
    B.jmp(Fail);
    B.bind(Null2);
    B.iconst(1).iret();
  });
  EXPECT_EQ(R->asInt(), 1);
}

TEST(Interpreter, FieldsOnInstances) {
  JavaVm Vm;
  TypeId Pair = Vm.types().defineClass("Pair", 16);
  auto R = runSingle(Vm, [&](MethodBuilder &B) {
    B.newObject(Pair).astore(0);
    B.aload(0).iconst(11).putField(0, 8);
    B.aload(0).iconst(31).putField(8, 4);
    B.aload(0).getField(0, 8);
    B.aload(0).getField(8, 4);
    B.iadd().iret();
  });
  EXPECT_EQ(R->asInt(), 42);
}

TEST(Interpreter, RefFieldsLinkObjects) {
  JavaVm Vm;
  TypeId Node = Vm.types().defineClass("Node", 16, {8});
  auto R = runSingle(Vm, [&](MethodBuilder &B) {
    B.newObject(Node).astore(0); // head
    B.newObject(Node).astore(1); // tail
    B.aload(1).iconst(5).putField(0, 8);
    B.aload(0).aload(1).putRefField(8);
    B.aload(0).getRefField(8).getField(0, 8);
    B.iret();
  });
  EXPECT_EQ(R->asInt(), 5);
}

TEST(Interpreter, MultiANewArrayBuildsMatrix) {
  JavaVm Vm;
  TypeId IntArr = Vm.types().intArray();
  auto R = runSingle(Vm, [&](MethodBuilder &B) {
    // int[2][3] m; m[1][2] = 9; return m[1][2] + m.length.
    B.iconst(2).iconst(3).multiANewArray(IntArr, 2).astore(0);
    B.aload(0).iconst(1).aaLoad().astore(1);
    B.aload(1).iconst(2).iconst(9).paStore();
    B.aload(1).iconst(2).paLoad();
    B.aload(0).arrayLength().iadd();
    B.iret();
  });
  EXPECT_EQ(R->asInt(), 11);
}

TEST(Interpreter, MethodCallsWithArguments) {
  JavaVm Vm;
  BytecodeProgram P;
  {
    MethodBuilder B("M", "add3", 3, 3);
    B.iload(0).iload(1).iadd().iload(2).iadd().iret();
    ClassFile C;
    C.Name = "M";
    C.Methods.push_back(B.build());
    P.addClass(std::move(C));
  }
  {
    MethodBuilder B("M2", "main", 0, 0);
    B.iconst(1).iconst(2).iconst(3);
    B.invoke("M.add3", 3).iret();
    ClassFile C;
    C.Name = "M2";
    C.Methods.push_back(B.build());
    P.addClass(std::move(C));
  }
  P.load(Vm);
  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  EXPECT_EQ(I.run("M2.main")->asInt(), 6);
}

TEST(Interpreter, RecursionFactorial) {
  JavaVm Vm;
  BytecodeProgram P;
  MethodBuilder B("R", "fact", 1, 1);
  Label Base = B.newLabel();
  B.iload(0).iconst(2).ifICmp(Opcode::IfICmpLt, Base);
  B.iload(0);
  B.iload(0).iconst(1).isub();
  B.invoke("R.fact", 1);
  B.imul().iret();
  B.bind(Base);
  B.iconst(1).iret();
  ClassFile C;
  C.Name = "R";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);
  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  EXPECT_EQ(I.run("R.fact", {Value::fromInt(10)})->asInt(), 3628800);
}

TEST(Interpreter, DeepRecursionGrowsTheArenaAcrossQuanta) {
  // sum(n) = n == 0 ? 0 : n + sum(n - 1), 500 frames deep: the frames
  // outgrow the initial arena mid-call. Driven in odd-sized quanta, the
  // paused and resumed call must match an uninterrupted run() exactly.
  JavaVm Vm;
  BytecodeProgram P;
  MethodBuilder B("R", "sum", 1, 1);
  Label Base = B.newLabel();
  B.iload(0).ifEq(Base);
  B.iload(0).iload(0).iconst(1).isub().invoke("R.sum", 1).iadd().iret();
  B.bind(Base);
  B.iconst(0).iret();
  ClassFile C;
  C.Name = "R";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);
  JavaThread &T = Vm.startThread("t", 0);
  uint64_t RunSteps = 0;
  {
    Interpreter I(Vm, P, T);
    EXPECT_EQ(I.run("R.sum", {Value::fromInt(500)})->asInt(), 125250);
    RunSteps = I.stepsExecuted();
  }
  Interpreter I(Vm, P, T);
  I.startCall("R.sum", {Value::fromInt(500)});
  unsigned Pauses = 0;
  while (I.resume(97) == RunState::Paused) {
    EXPECT_EQ(I.stepsExecuted(), 97u * ++Pauses);
    EXPECT_TRUE(I.hasPendingCall());
  }
  EXPECT_FALSE(I.hasPendingCall());
  EXPECT_EQ(I.takeResult()->asInt(), 125250);
  EXPECT_EQ(I.stepsExecuted(), RunSteps);
  EXPECT_GT(Pauses, 20u);
}

TEST(Interpreter, VoidMethodsReturnNothing) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) { B.ret(); });
  EXPECT_FALSE(R.has_value());
}

TEST(Interpreter, ShadowStackTracksBci) {
  JavaVm Vm;
  BytecodeProgram P;
  MethodBuilder B("S", "main", 0, 0);
  B.iconst(1).pop().ret();
  ClassFile C;
  C.Name = "S";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);
  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  I.run("S.main");
  EXPECT_EQ(T.stackDepth(), 0u) << "frames popped after return";
  EXPECT_GT(I.stepsExecuted(), 0u);
}

TEST(InterpreterDeathTest, StepLimitRaisesVmError) {
  // The step limit must fire in every build mode (it used to live in an
  // assert that NDEBUG compiled out, letting release builds spin
  // forever) — and it raises a typed, salvageable error, not an abort.
  JavaVm Vm;
  BytecodeProgram P;
  MethodBuilder B("R", "spin", 0, 0);
  Label Loop = B.newLabel();
  B.bind(Loop);
  B.jmp(Loop);
  ClassFile C;
  C.Name = "R";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);
  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  I.setStepLimit(10000);
  try {
    I.run("R.spin");
    FAIL() << "runaway loop must raise VmError";
  } catch (const VmError &E) {
    EXPECT_EQ(E.Kind, VmErrorKind::StepLimit);
    EXPECT_NE(std::string(E.what()).find("step limit"), std::string::npos);
    EXPECT_EQ(E.ThreadId, T.id());
    EXPECT_GT(E.Steps, 10000u);
  }
}

TEST(Interpreter, GcDuringExecutionRelocatesOperands) {
  // Tiny heap: the loop's allocations force collections while references
  // live in interpreter locals; the root provider must keep them valid.
  VmConfig Cfg;
  Cfg.HeapBytes = 8 * 1024;
  JavaVm Vm(Cfg);
  TypeId IntArr = Vm.types().intArray();
  auto R = runSingle(Vm, [&](MethodBuilder &B) {
    // keep = new int[8]; keep[0] = 123;
    B.iconst(8).newArray(IntArr).astore(0);
    B.aload(0).iconst(0).iconst(123).paStore();
    // for (i = 0; i < 200; i++) { garbage = new int[200]; }
    B.iconst(0).istore(1);
    Label Loop = B.newLabel(), End = B.newLabel();
    B.bind(Loop);
    B.iload(1).iconst(200).ifICmp(Opcode::IfICmpGe, End);
    B.iconst(200).newArray(IntArr).astore(2);
    B.iload(1).iconst(1).iadd().istore(1);
    B.jmp(Loop);
    B.bind(End);
    B.aload(0).iconst(0).paLoad().iret();
  });
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->asInt(), 123);
  EXPECT_GT(Vm.gcTotals().Collections, 5u);
}

TEST(Interpreter, AllocationHooksFire) {
  JavaVm Vm;
  BytecodeProgram P;
  MethodBuilder B("H", "main", 0, 1);
  B.iconst(4).newArray(Vm.types().intArray()).astore(0);
  B.ret();
  ClassFile C;
  C.Name = "H";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);
  // Manually splice hooks around the allocation (what the instrumenter
  // does automatically).
  BytecodeMethod &M = P.method(0);
  std::vector<Instruction> NewCode;
  for (const Instruction &I : M.Code) {
    if (isAllocation(I.Op)) {
      NewCode.push_back(Instruction{Opcode::AllocHookPre, 7, 0});
      NewCode.push_back(I);
      NewCode.push_back(Instruction{Opcode::AllocHookPost, 7, 0});
    } else {
      NewCode.push_back(I);
    }
  }
  M.Code = std::move(NewCode);

  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  std::vector<std::pair<uint64_t, ObjectRef>> Posts;
  int Pres = 0;
  AllocationHooks Hooks;
  Hooks.Pre = [&](uint64_t Site) {
    ++Pres;
    EXPECT_EQ(Site, 7u);
  };
  Hooks.Post = [&](uint64_t Site, ObjectRef Obj) {
    Posts.emplace_back(Site, Obj);
  };
  I.setAllocationHooks(std::move(Hooks));
  I.run("H.main");
  EXPECT_EQ(Pres, 1);
  ASSERT_EQ(Posts.size(), 1u);
  EXPECT_EQ(Posts[0].first, 7u);
  EXPECT_TRUE(Vm.heap().isObjectStart(Posts[0].second));
}

TEST(Interpreter, ExecutionChargesCycles) {
  JavaVm Vm;
  JavaThread *Thread = nullptr;
  {
    BytecodeProgram P;
    MethodBuilder B("C", "main", 0, 1);
    B.iconst(0).istore(0);
    for (int I = 0; I < 10; ++I)
      B.iload(0).iconst(1).iadd().istore(0);
    B.ret();
    ClassFile C;
    C.Name = "C";
    C.Methods.push_back(B.build());
    P.addClass(std::move(C));
    P.load(Vm);
    Thread = &Vm.startThread("t", 0);
    Interpreter I(Vm, P, *Thread);
    I.run("C.main");
  }
  EXPECT_GE(Thread->cycles(), 43u); // At least one cycle per instruction.
}

/// What an observer sees of the interpreter's counters at one PMU sample,
/// agent hook or allocation event.
struct CounterRecord {
  char Kind = 0; ///< 's'ample, hook 'p're / 'P'ost, 'a'llocation event.
  uint64_t Steps = 0;
  uint64_t Cycles = 0;
  uint32_t Bci = 0;
  std::vector<std::pair<MethodId, uint32_t>> Trace;
  bool operator==(const CounterRecord &O) const {
    return Kind == O.Kind && Steps == O.Steps && Cycles == O.Cycles &&
           Bci == O.Bci && Trace == O.Trace;
  }
};

/// The counter observations of one execution, and how it ended.
struct CounterRun {
  std::vector<CounterRecord> Records;
  int64_t Result = -1;
  uint64_t Steps = 0;
  uint64_t Cycles = 0;
  uint64_t LimitSteps = 0; ///< VmError::Steps when the step limit fired.
};

/// O.main: 12 rounds, each allocating an int[32] (instrumented with agent
/// hooks), filling it through a void callee and summing it through a
/// value callee that reads every element through a nested call.
BytecodeProgram counterProgram(TypeRegistry &Types) {
  ClassFile C;
  C.Name = "O";
  {
    // get(a, i) = a[i]
    MethodBuilder B("O", "get", 2, 2);
    B.aload(0).iload(1).paLoad().iret();
    C.Methods.push_back(B.build());
  }
  {
    // fill(a, n): for (i = 0; i < n; ++i) a[i] = 3 * i
    MethodBuilder B("O", "fill", 2, 3);
    B.iconst(0).istore(2);
    Label Head = B.newLabel(), End = B.newLabel();
    B.bind(Head);
    B.iload(2).iload(1).ifICmp(Opcode::IfICmpGe, End);
    B.aload(0).iload(2).iload(2).iconst(3).imul().paStore();
    B.iload(2).iconst(1).iadd().istore(2);
    B.jmp(Head);
    B.bind(End);
    B.ret();
    C.Methods.push_back(B.build());
  }
  {
    // sum(a, n): s = 0; for (i = 0; i < n; ++i) s += get(a, i); return s
    MethodBuilder B("O", "sum", 2, 4);
    B.iconst(0).istore(2).iconst(0).istore(3);
    Label Head = B.newLabel(), End = B.newLabel();
    B.bind(Head);
    B.iload(3).iload(1).ifICmp(Opcode::IfICmpGe, End);
    B.iload(2).aload(0).iload(3).invoke("O.get", 2).iadd().istore(2);
    B.iload(3).iconst(1).iadd().istore(3);
    B.jmp(Head);
    B.bind(End);
    B.iload(2).iret();
    C.Methods.push_back(B.build());
  }
  {
    MethodBuilder B("O", "main", 0, 3);
    B.iconst(0).istore(0).iconst(0).istore(1);
    Label Head = B.newLabel(), End = B.newLabel();
    B.bind(Head);
    B.iload(0).iconst(12).ifICmp(Opcode::IfICmpGe, End);
    B.iconst(32).newArray(Types.intArray()).astore(2);
    B.aload(2).iconst(32).invoke("O.fill", 2);
    B.iload(1).aload(2).iconst(32).invoke("O.sum", 2).iadd().istore(1);
    B.iload(0).iconst(1).iadd().istore(0);
    B.jmp(Head);
    B.bind(End);
    B.iload(1).iret();
    C.Methods.push_back(B.build());
  }
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

/// Runs O.main on a fresh VM, recording the counters at every
/// observation. \p Quantum > 0 drives it with resume(Quantum), stopping
/// at the first pause at or past a nonzero \p StepLimit; Quantum 0 runs
/// it with run() under the step limit \p StepLimit.
CounterRun runCounterProgram(uint64_t Quantum, uint64_t StepLimit) {
  JavaVm Vm;
  BytecodeProgram P = counterProgram(Vm.types());
  P.load(Vm);
  AllocationSiteTable Sites;
  EXPECT_EQ(instrumentProgram(P, Sites), 1u);
  JavaThread &T = Vm.startThread("counters", 0);
  Interpreter I(Vm, P, T);
  CounterRun Run;
  auto Record = [&](char Kind) {
    CounterRecord R;
    R.Kind = Kind;
    R.Steps = I.stepsExecuted();
    R.Cycles = T.cycles();
    R.Bci = T.frames().back().Bci;
    for (const StackFrame &F : Vm.asyncGetCallTrace(T))
      R.Trace.emplace_back(F.Method, F.Bci);
    Run.Records.push_back(std::move(R));
  };
  T.pmu().openEvent(PerfEventAttr{PerfEventKind::MemAccess, 7, 64});
  T.pmu().setSampleHandler([&](const PerfSample &) { Record('s'); });
  T.pmu().enable();
  AllocationHooks Hooks;
  Hooks.Pre = [&](uint64_t) { Record('p'); };
  Hooks.Post = [&](uint64_t, ObjectRef) { Record('P'); };
  I.setAllocationHooks(std::move(Hooks));
  Vm.jvmti().onAllocation([&](const AllocationEvent &) { Record('a'); });
  if (Quantum == 0) {
    I.setStepLimit(StepLimit);
    try {
      Run.Result = I.run("O.main")->asInt();
    } catch (const VmError &E) {
      EXPECT_EQ(E.Kind, VmErrorKind::StepLimit);
      Run.LimitSteps = E.Steps;
    }
  } else {
    I.startCall("O.main");
    while (I.resume(Quantum) == RunState::Paused)
      if (StepLimit && I.stepsExecuted() >= StepLimit)
        break;
    if (!I.hasPendingCall())
      Run.Result = I.takeResult()->asInt();
  }
  Run.Steps = I.stepsExecuted();
  Run.Cycles = T.cycles();
  return Run;
}

TEST(Interpreter, CountersAreExactAtEveryObservationForAnyQuantum) {
  // Steps, cycles and the bci are charged lazily, at observation points.
  // Every observer must still see exactly what per-step charging shows:
  // quantum 1 pauses (and so charges) after every instruction.
  CounterRun Ref = runCounterProgram(1, 0);
  EXPECT_EQ(Ref.Result, 12 * 3 * (31 * 32 / 2));
  size_t Samples = 0, Hooks = 0, Allocs = 0;
  for (const CounterRecord &R : Ref.Records) {
    Samples += R.Kind == 's';
    Hooks += R.Kind == 'p' || R.Kind == 'P';
    Allocs += R.Kind == 'a';
  }
  EXPECT_GT(Samples, 50u);
  EXPECT_EQ(Hooks, 24u);
  EXPECT_EQ(Allocs, 12u);
  for (uint64_t Quantum : {7u, 1024u}) {
    SCOPED_TRACE("quantum " + std::to_string(Quantum));
    CounterRun Run = runCounterProgram(Quantum, 0);
    EXPECT_TRUE(Run.Records == Ref.Records);
    EXPECT_EQ(Run.Result, Ref.Result);
    EXPECT_EQ(Run.Steps, Ref.Steps);
    EXPECT_EQ(Run.Cycles, Ref.Cycles);
  }
  CounterRun Whole = runCounterProgram(0, 1ULL << 32);
  EXPECT_TRUE(Whole.Records == Ref.Records);
  EXPECT_EQ(Whole.Steps, Ref.Steps);
  EXPECT_EQ(Whole.Cycles, Ref.Cycles);
}

TEST(Interpreter, StepLimitStopsWithExactCounters) {
  // The step limit fires before the instruction that would overrun it:
  // the error reports Limit + 1 steps, the clock shows exactly Limit
  // instructions' worth (as a pause after Limit steps does), and every
  // observation before it matches the unlimited run's.
  CounterRun Ref = runCounterProgram(1, 0);
  for (uint64_t Limit : {1u, 500u, 1234u, 4099u}) {
    SCOPED_TRACE("limit " + std::to_string(Limit));
    CounterRun Limited = runCounterProgram(0, Limit);
    EXPECT_EQ(Limited.LimitSteps, Limit + 1);
    EXPECT_EQ(Limited.Steps, Limit + 1);
    CounterRun Paused = runCounterProgram(1, Limit);
    EXPECT_EQ(Paused.Steps, Limit);
    EXPECT_EQ(Limited.Cycles, Paused.Cycles);
    ASSERT_LE(Limited.Records.size(), Ref.Records.size());
    EXPECT_TRUE(std::equal(Limited.Records.begin(), Limited.Records.end(),
                           Ref.Records.begin()));
    EXPECT_TRUE(Limited.Records == Paused.Records);
  }
}

} // namespace
