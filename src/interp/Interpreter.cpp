//===- Interpreter.cpp - Bytecode interpreter ------------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/Semantics.h"
#include "support/VmError.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace djx;

Interpreter::Interpreter(JavaVm &Vm, BytecodeProgram &Program,
                         JavaThread &Thread)
    : Vm(Vm), Program(Program), Thread(Thread) {
  assert(Program.isLoaded() && "program must be linked before execution");
  Arena.resize(256);
  RootToken = Vm.addRootProvider(
      [this](std::vector<ObjectRef *> &Slots) { collectRoots(Slots); });
}

Interpreter::~Interpreter() { Vm.removeRootProvider(RootToken); }

void Interpreter::setPublishVmAllocationEvents(bool On) {
  Vm.setAllocationEventsEnabled(On);
}

void Interpreter::callHook(Opcode Op, int64_t Site, const Value *S,
                           uint32_t Sp) {
  if (Op == Opcode::AllocHookPre) {
    Hooks.Pre(static_cast<uint64_t>(Site));
    return;
  }
  assert(Sp > 0 && S[Sp - 1].IsRef &&
         "allochook_post expects the fresh ref on TOS");
  Hooks.Post(static_cast<uint64_t>(Site), S[Sp - 1].asRef());
}

void Interpreter::collectRoots(std::vector<ObjectRef *> &Slots) {
  for (Frame &F : CallStack) {
    Value *L = Arena.data() + F.LocalsBase;
    for (uint32_t I = 0, N = F.M->NumLocals; I < N; ++I)
      if (L[I].IsRef && L[I].Bits != kNullRef)
        Slots.push_back(&L[I].Bits);
    Value *S = Arena.data() + F.StackBase;
    for (uint32_t I = 0, N = F.Sp; I < N; ++I)
      if (S[I].IsRef && S[I].Bits != kNullRef)
        Slots.push_back(&S[I].Bits);
  }
}

void Interpreter::growArena(size_t Needed) {
  Arena.resize(std::max(Arena.size() * 2, Needed));
}

Interpreter::Frame &Interpreter::pushActivation(size_t MethodIndex,
                                                uint32_t ArgsBase) {
  const BytecodeMethod &M = Program.method(MethodIndex);
  size_t Needed = static_cast<size_t>(ArgsBase) + M.NumLocals;
  if (Needed > Arena.size())
    growArena(Needed);
  // Non-argument locals start zeroed (and must: the GC scans them).
  std::fill(Arena.begin() + ArgsBase + M.NumArgs,
            Arena.begin() + ArgsBase + M.NumLocals, Value{});
  Frame F;
  F.M = &M;
  F.MethodIndex = MethodIndex;
  F.LocalsBase = ArgsBase;
  F.StackBase = ArgsBase + M.NumLocals;
  F.Sp = 0;
  F.Pc = 0;
  CallStack.push_back(F);
  ArenaTop = F.StackBase;
  return CallStack.back();
}

void Interpreter::fatalStepLimit() const {
  VmError E(VmErrorKind::StepLimit,
            "interpreter step limit (" + std::to_string(StepLimit) +
                ") exceeded (runaway loop?)");
  E.ThreadId = Thread.id();
  E.Steps = Steps;
  throw E;
}

std::optional<Value> Interpreter::run(const std::string &QualifiedName,
                                      const std::vector<Value> &Args) {
  return execute(Program.methodIndex(QualifiedName), Args);
}

void Interpreter::beginCall(size_t MethodIndex,
                            const std::vector<Value> &Args) {
  {
    const BytecodeMethod &M0 = Program.method(MethodIndex);
    assert(Args.size() == M0.NumArgs && "argument count mismatch");
    (void)M0;
  }
  const uint32_t BaseTop = ArenaTop;
  // The step limit is per run(): budget from the cumulative counter at
  // top-level entry (nested entries inherit the outer budget).
  if (CallStack.empty())
    StepDeadline =
        Steps > ~0ULL - StepLimit ? ~0ULL : Steps + StepLimit;

  // Materialise the entry arguments in the arena, then push the activation
  // over them (pushActivation treats them as in-place locals 0..N-1).
  if (ArenaTop + Args.size() > Arena.size())
    growArena(ArenaTop + Args.size());
  std::copy(Args.begin(), Args.end(), Arena.begin() + BaseTop);
  Frame &F0 = pushActivation(MethodIndex, BaseTop);
  Thread.pushFrame(F0.M->RegistryId, 0);
}

std::optional<Value> Interpreter::execute(size_t MethodIndex,
                                          const std::vector<Value> &Args) {
  const size_t BaseDepth = CallStack.size();
  const uint32_t BaseTop = ArenaTop;
  beginCall(MethodIndex, Args);
  std::optional<Value> Out;
  bool Returned = loop(BaseDepth, BaseTop, ~0ULL, Out);
  assert(Returned && "unbounded loop() paused");
  (void)Returned;
  return Out;
}

void Interpreter::startCall(const std::string &QualifiedName,
                            const std::vector<Value> &Args) {
  assert(CallStack.empty() && "a call is already pending");
  SessionResult.reset();
  beginCall(Program.methodIndex(QualifiedName), Args);
}

RunState Interpreter::resume(uint64_t MaxSteps) {
  assert(!CallStack.empty() && "no pending call to resume");
  assert(MaxSteps > 0 && "resume needs a positive step budget");
  uint64_t QuantumEnd =
      Steps > ~0ULL - MaxSteps ? ~0ULL : Steps + MaxSteps;
  std::optional<Value> Out;
  try {
    if (!loop(/*BaseDepth=*/0, /*BaseTop=*/0, QuantumEnd, Out))
      return RunState::Paused;
  } catch (const GcRequest &) {
    // Executor mode: a shard allocation faulted. The opcode's operands
    // are still on the stack (peek-then-commit) and its frame state was
    // synced before the VM call — roll back its step count and dispatch
    // tick too, so the re-execution after the safepoint GC is observed
    // exactly once by every counter (and so the Executor can detect a
    // fault that repeats at the same step count as OutOfMemory). The
    // hot-site counter must skip the re-execution's dispatch for the same
    // reason: a double bump would make trace selection GC-timing-
    // dependent and break --jobs invariance.
    --Steps;
    Thread.subCycles(1);
    GcRetryPending = true;
    throw;
  }
  SessionResult = Out;
  return RunState::Done;
}

std::optional<Value> Interpreter::takeResult() {
  std::optional<Value> Out = SessionResult;
  SessionResult.reset();
  return Out;
}

bool Interpreter::loop(size_t BaseDepth, uint32_t BaseTop,
                       uint64_t QuantumEnd, std::optional<Value> &Out) {
  // Cached execution registers for the top frame; Reload refreshes them
  // after any frame switch or arena growth, SyncTop publishes them back
  // before anything that can trigger a GC (the root scan reads frames).
  Frame *F = nullptr;
  const Instruction *Code = nullptr;
  uint32_t CodeSize = 0;
  Value *L = nullptr; // Locals base.
  Value *S = nullptr; // Operand stack base.
  uint32_t Sp = 0;
  uint32_t Pc = 0;
  // Super tier: the top frame's hot-site array (null in the interp tier).
  // Site storage mutates in place, so the pointer survives compiles and
  // invalidations; only a frame switch refreshes it.
  TraceCache::Site *TraceSites = nullptr;

  auto Reload = [&] {
    F = &CallStack.back();
    Code = F->M->Code.data();
    CodeSize = static_cast<uint32_t>(F->M->Code.size());
    L = Arena.data() + F->LocalsBase;
    S = Arena.data() + F->StackBase;
    Sp = F->Sp;
    Pc = F->Pc;
    ArenaTop = F->StackBase + Sp;
    TraceSites =
        Traces ? Traces->sitesFor(F->MethodIndex, CodeSize) : nullptr;
  };
  auto SyncTop = [&] {
    F->Pc = Pc;
    F->Sp = Sp;
    ArenaTop = F->StackBase + Sp;
  };
  auto Push = [&](Value V) {
    if (static_cast<size_t>(F->StackBase) + Sp == Arena.size()) {
      SyncTop();
      growArena(Arena.size() + 1);
      Reload();
    }
    S[Sp++] = V;
  };
  auto Pop = [&]() -> Value {
    assert(Sp > 0 && "operand stack underflow");
    return S[--Sp];
  };
  Reload();

  for (;;) {
    // Quantum boundary: pause *before* the next instruction so it has not
    // been counted or charged; the frame sync makes the pause a clean GC /
    // resume point. run() passes ~0 and never pauses.
    if (Steps >= QuantumEnd) {
      SyncTop();
      return false;
    }
    if (Pc >= CodeSize) {
      SyncTop();
      VmError E(VmErrorKind::InvalidBytecode,
                "control fell off the end of " + F->M->qualifiedName());
      E.ThreadId = Thread.id();
      E.Steps = Steps;
      throw E;
    }
    if (TraceSites) {
      SyncTop();
      if (execTrace(TraceSites[Pc], QuantumEnd)) {
        Reload();
        continue;
      }
    }
    if (++Steps > StepDeadline)
      fatalStepLimit();
    const Instruction &I = Code[Pc];
    Thread.setBci(Pc);
    Vm.tick(Thread, 1);
    uint32_t NextPc = Pc + 1;

    switch (I.Op) {
    case Opcode::Nop:
      break;
    case Opcode::IConst:
      Push(Value::fromInt(I.A));
      break;
    case Opcode::ILoad:
      assert(!L[I.A].IsRef && "iload of a reference slot");
      Push(L[I.A]);
      break;
    case Opcode::IStore: {
      Value V = Pop();
      assert(!V.IsRef && "istore of a reference");
      L[I.A] = V;
      break;
    }
    case Opcode::ALoad:
      assert((L[I.A].IsRef || L[I.A].Bits == kNullRef) &&
             "aload of a non-reference slot");
      Push(Value::fromRef(L[I.A].Bits));
      break;
    case Opcode::AStore: {
      Value V = Pop();
      assert(V.IsRef && "astore of a non-reference");
      L[I.A] = V;
      break;
    }
    case Opcode::Pop:
      Pop();
      break;
    case Opcode::Dup:
      assert(Sp > 0 && "operand stack underflow");
      Push(S[Sp - 1]);
      break;
    case Opcode::Swap: {
      Value B = Pop(), A = Pop();
      Push(B);
      Push(A);
      break;
    }
    case Opcode::IAdd:
    case Opcode::ISub:
    case Opcode::IMul:
    case Opcode::IDiv:
    case Opcode::IRem:
    case Opcode::INeg:
    case Opcode::IAnd:
    case Opcode::IOr:
    case Opcode::IXor:
    case Opcode::IShl:
    case Opcode::IShr:
      applyAlu(I.Op, S, Sp);
      break;
    case Opcode::Goto:
      NextPc = static_cast<uint32_t>(I.A);
      break;
    case Opcode::IfEq:
    case Opcode::IfNe:
    case Opcode::IfLt:
    case Opcode::IfGe:
    case Opcode::IfICmpEq:
    case Opcode::IfICmpNe:
    case Opcode::IfICmpLt:
    case Opcode::IfICmpGe:
    case Opcode::IfICmpGt:
    case Opcode::IfICmpLe:
    case Opcode::IfNull:
    case Opcode::IfNonNull:
      if (popBranch(I.Op, S, Sp))
        NextPc = static_cast<uint32_t>(I.A);
      break;
    case Opcode::New:
    case Opcode::NewArray:
    case Opcode::ANewArray:
    case Opcode::MultiANewArray: {
      // Peek-then-commit: the operands stay on the stack until the
      // allocation succeeds. Reload afterwards: an allocation-event
      // observer may have re-entered run() and grown the arena.
      SyncTop();
      ObjectRef Obj = allocateFor(Vm, Thread, I.Op, I.A, I.B, S, Sp);
      Reload();
      Sp -= opcodePops(I.Op, I.B);
      Push(Value::fromRef(Obj));
      break;
    }
    case Opcode::PALoad:
    case Opcode::PAStore:
    case Opcode::AALoad:
    case Opcode::AAStore:
    case Opcode::ArrayLength:
    case Opcode::GetField:
    case Opcode::PutField:
    case Opcode::GetRefField:
    case Opcode::PutRefField:
      execAccess(Vm, Thread, I.Op, I.A, I.B, S, Sp);
      break;
    case Opcode::Invoke: {
      size_t Callee = static_cast<size_t>(I.A);
      const BytecodeMethod &CM = Program.method(Callee);
      assert(static_cast<uint32_t>(I.B) == CM.NumArgs &&
             "invoke argument count mismatch");
      assert(Sp >= CM.NumArgs && "operand stack underflow at invoke");
      // Consume the arguments in place: they become the callee's first
      // locals without being copied (the activation overlaps them).
      Sp -= CM.NumArgs;
      F->Pc = NextPc;
      F->Sp = Sp;
      uint32_t ArgsBase = F->StackBase + Sp;
      Frame &NF = pushActivation(Callee, ArgsBase);
      Thread.pushFrame(CM.RegistryId, 0);
      (void)NF;
      Reload();
      continue;
    }
    case Opcode::Return:
    case Opcode::IReturn:
    case Opcode::AReturn: {
      bool HasValue = I.Op != Opcode::Return;
      Value RV;
      if (HasValue) {
        RV = Pop();
        assert((I.Op == Opcode::IReturn ? !RV.IsRef : RV.IsRef) &&
               "return value tag mismatch");
      }
      Thread.popFrame();
      CallStack.pop_back();
      if (CallStack.size() == BaseDepth) {
        ArenaTop = BaseTop;
        if (HasValue)
          Out = RV;
        else
          Out = std::nullopt;
        return true;
      }
      Reload(); // Caller frame: Pc already advanced past the Invoke.
      if (HasValue)
        Push(RV);
      continue;
    }
    case Opcode::AllocHookPre:
    case Opcode::AllocHookPost:
      if (hasHook(I.Op)) {
        // Sync/reload around the dispatch: a hook may re-enter run() (the
        // old recursive interpreter allowed it), which needs fresh frame
        // state and may grow the arena under our cached pointers.
        SyncTop();
        callHook(I.Op, I.A, S, Sp);
        Reload();
      }
      break;
    }
    Pc = NextPc;
  }
}
