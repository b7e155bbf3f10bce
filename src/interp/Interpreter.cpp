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
  // The whole frame: its locals, then its verified max_stack.
  size_t Needed = static_cast<size_t>(ArgsBase) + M.NumLocals + M.MaxStack;
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
  // The top frame's execution registers, plain locals. Reload refreshes
  // them after a frame switch or a call out of the loop; SyncTop
  // publishes Pc/Sp back before anything that reads the frames (the GC
  // root scan, a re-entered run(), a pause). Every helper below is forced
  // inline, so no out-of-line closure pins the registers to memory.
  Frame *F = nullptr;
  const Instruction *Code = nullptr;
  Value *L = nullptr; // Locals base.
  Value *S = nullptr; // Operand stack base.
  uint32_t Sp = 0;
  uint32_t Pc = 0;
  // Super tier: the top frame's hot-site array (null in the interp tier).
  // Site storage mutates in place, so the pointer survives compiles and
  // invalidations; only a frame switch refreshes it.
  TraceCache::Site *TraceSites = nullptr;
  // Instructions retired so far, including those not yet charged. Steps,
  // the thread's cycles and the top frame's Bci are brought up to date
  // only at observation points -- memory accesses, allocations, hooks,
  // Invoke, trace entry, a pause, the step limit and the final Return --
  // which are the only places anything can read them.
  uint64_t Now = Steps;
  // One compare per step guards both budgets.
  const uint64_t Stop = std::min(QuantumEnd, StepDeadline);

  auto Reload = [&]() DJX_FORCE_INLINE {
    F = &CallStack.back();
    Code = F->M->Code.data();
    L = Arena.data() + F->LocalsBase;
    S = Arena.data() + F->StackBase;
    Sp = F->Sp;
    Pc = F->Pc;
    ArenaTop = F->StackBase + Sp;
    TraceSites =
        Traces ? Traces->sitesFor(F->MethodIndex, F->M->Code.size()) : nullptr;
  };
  auto SyncTop = [&]() DJX_FORCE_INLINE {
    F->Pc = Pc;
    F->Sp = Sp;
    ArenaTop = F->StackBase + Sp;
  };
  // Charges the retired instructions to Steps and the simulated clock.
  auto Charge = [&]() DJX_FORCE_INLINE {
    Vm.tick(Thread, Now - Steps);
    Steps = Now;
  };
  // Before a call that can allocate, collect, or re-enter run(): every
  // counter exact and the frame synced.
  auto SyncAll = [&]() DJX_FORCE_INLINE {
    Charge();
    Thread.setBci(Pc);
    SyncTop();
  };
  // After such a call: a re-entered run() may have moved the arena and
  // retired steps of its own.
  auto Resync = [&]() DJX_FORCE_INLINE {
    Reload();
    Now = Steps;
  };
  // The frame reserves the verified max_stack above its locals.
  auto Push = [&](Value V) DJX_FORCE_INLINE {
    assert(Sp < F->M->MaxStack && "push beyond the verified max_stack");
    S[Sp++] = V;
  };
  auto Pop = [&]() DJX_FORCE_INLINE {
    assert(Sp > 0 && "operand stack underflow");
    return S[--Sp];
  };
  Reload();

  for (;;) {
    if (Now >= Stop) {
      // Quantum boundary: pause *before* the next instruction so it has
      // not been counted or charged; the sync makes the pause a clean GC
      // / resume point. run() passes ~0 and never pauses.
      SyncAll();
      if (Now >= QuantumEnd)
        return false;
      // The next instruction overruns the per-run step limit.
      ++Steps;
      fatalStepLimit();
    }
    assert(Pc < F->M->Code.size() &&
           "the Verifier rejects code that can fall off the end");
    if (TraceSites) {
      Charge();
      SyncTop();
      if (execTrace(TraceSites[Pc], QuantumEnd)) {
        Resync();
        continue;
      }
    }
    ++Now;
    const Instruction &I = Code[Pc];

    // The ALU, branch, allocation and access opcodes each get a case of
    // their own that hands the Semantics.h handler a constant Opcode: the
    // handler's switch folds away, and this switch stays the step's one
    // indirect jump. A case that transfers control sets Pc and continues;
    // the others fall through to the next instruction.
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
#define DJX_ALU_CASE(Name)                                                    \
  case Opcode::Name:                                                          \
    applyAlu(Opcode::Name, S, Sp);                                            \
    break;
      DJX_ALU_CASE(IAdd)
      DJX_ALU_CASE(ISub)
      DJX_ALU_CASE(IMul)
      DJX_ALU_CASE(IDiv)
      DJX_ALU_CASE(IRem)
      DJX_ALU_CASE(INeg)
      DJX_ALU_CASE(IAnd)
      DJX_ALU_CASE(IOr)
      DJX_ALU_CASE(IXor)
      DJX_ALU_CASE(IShl)
      DJX_ALU_CASE(IShr)
#undef DJX_ALU_CASE
    case Opcode::Goto:
      Pc = static_cast<uint32_t>(I.A);
      continue;
#define DJX_BRANCH_CASE(Name)                                                 \
  case Opcode::Name:                                                          \
    if (popBranch(Opcode::Name, S, Sp)) {                                     \
      Pc = static_cast<uint32_t>(I.A);                                        \
      continue;                                                               \
    }                                                                         \
    break;
      DJX_BRANCH_CASE(IfEq)
      DJX_BRANCH_CASE(IfNe)
      DJX_BRANCH_CASE(IfLt)
      DJX_BRANCH_CASE(IfGe)
      DJX_BRANCH_CASE(IfICmpEq)
      DJX_BRANCH_CASE(IfICmpNe)
      DJX_BRANCH_CASE(IfICmpLt)
      DJX_BRANCH_CASE(IfICmpGe)
      DJX_BRANCH_CASE(IfICmpGt)
      DJX_BRANCH_CASE(IfICmpLe)
      DJX_BRANCH_CASE(IfNull)
      DJX_BRANCH_CASE(IfNonNull)
#undef DJX_BRANCH_CASE
      // Peek-then-commit: the operands stay on the stack until the
      // allocation succeeds, so a GcRequest unwind re-executes it cleanly.
#define DJX_ALLOC_CASE(Name)                                                  \
  case Opcode::Name: {                                                        \
    SyncAll();                                                                \
    ObjectRef Obj = allocateFor(Vm, Thread, Opcode::Name, I.A, I.B, S, Sp);   \
    Resync();                                                                 \
    Sp -= opcodePops(Opcode::Name, I.B);                                      \
    Push(Value::fromRef(Obj));                                                \
    break;                                                                    \
  }
      DJX_ALLOC_CASE(New)
      DJX_ALLOC_CASE(NewArray)
      DJX_ALLOC_CASE(ANewArray)
      DJX_ALLOC_CASE(MultiANewArray)
#undef DJX_ALLOC_CASE
      // A PMU sample the access triggers reads the step count, the clock
      // and the bci.
#define DJX_ACCESS_CASE(Name)                                                 \
  case Opcode::Name:                                                          \
    Charge();                                                                 \
    Thread.setBci(Pc);                                                        \
    execAccess(Vm, Thread, Opcode::Name, I.A, I.B, S, Sp);                    \
    break;
      DJX_ACCESS_CASE(PALoad)
      DJX_ACCESS_CASE(PAStore)
      DJX_ACCESS_CASE(AALoad)
      DJX_ACCESS_CASE(AAStore)
      DJX_ACCESS_CASE(ArrayLength)
      DJX_ACCESS_CASE(GetField)
      DJX_ACCESS_CASE(PutField)
      DJX_ACCESS_CASE(GetRefField)
      DJX_ACCESS_CASE(PutRefField)
#undef DJX_ACCESS_CASE
    case Opcode::Invoke: {
      size_t Callee = static_cast<size_t>(I.A);
      const BytecodeMethod &CM = Program.method(Callee);
      assert(static_cast<uint32_t>(I.B) == CM.NumArgs &&
             "invoke argument count mismatch");
      assert(Sp >= CM.NumArgs && "operand stack underflow at invoke");
      // Consume the arguments in place: they become the callee's first
      // locals without being copied (the activation overlaps them). The
      // caller's shadow frame shows the call site while the callee runs.
      Sp -= CM.NumArgs;
      Thread.setBci(Pc);
      F->Pc = Pc + 1;
      F->Sp = Sp;
      pushActivation(Callee, F->StackBase + Sp);
      Thread.pushFrame(CM.RegistryId, 0);
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
        Charge();
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
      // A hook may re-enter run(), which needs fresh frame state and may
      // grow the arena under the cached pointers.
      if (hasHook(I.Op)) {
        SyncAll();
        callHook(I.Op, I.A, S, Sp);
        Resync();
      }
      break;
    }
    ++Pc;
  }
}
