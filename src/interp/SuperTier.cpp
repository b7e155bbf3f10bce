//===- SuperTier.cpp - Trace admission and the trace executor -------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The super tier's half of the Interpreter: tier selection, and
/// execTrace(), which admits a hot site's compiled trace and runs it
/// without per-opcode dispatch. Opcode semantics come from interp/Semantics.h,
/// shared with the flat loop; this file owns only what differs between
/// the tiers -- batched step/tick charging, trace exits and deopts.
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/Semantics.h"

#include <cassert>
#include <utility>

using namespace djx;

void Interpreter::setTier(const TierConfig &Cfg) {
  assert(Steps == 0 && CallStack.empty() &&
         "the tier must be selected before any instruction executes");
  Traces.reset();
  if (Cfg.Tier == ExecTier::Super)
    Traces = std::make_unique<TraceCache>(Cfg, &Program);
}

bool Interpreter::execTrace(TraceCache::Site &Site, uint64_t QuantumEnd) {
  Frame *F = &CallStack.back();
  const bool SkipBump = GcRetryPending;
  GcRetryPending = false;
  const CompiledTrace *Trace = nullptr;
  if (Site.St == TraceCache::Site::Compiled)
    Trace = Site.Trace.get();
  else if (Site.St == TraceCache::Site::Cold && !SkipBump)
    Trace = Traces->bump(Site, *F->M, F->Pc);
  if (!Trace || Steps + Trace->NumSteps > QuantumEnd ||
      Steps + Trace->NumSteps > StepDeadline)
    return false;
  const CompiledTrace &T = *Trace;
  assert(F->Sp >= T.MinStackDepth &&
         "trace entered below its operand floor");
  // The trace runs in the top frame, whose verified max_stack reservation
  // holds every push below: each is a single store.
  Value *L = Arena.data() + F->LocalsBase;
  Value *S = Arena.data() + F->StackBase;
  uint32_t Sp = F->Sp;

  // Steps and dispatch ticks are batched: Pending counts retired
  // constituent instructions and is flushed before anything that can
  // observe the step counter or the simulated clock — memory accesses
  // (PMU sampling reads both, plus Bci), allocations, and every exit.
  uint64_t Pending = 0;
  auto Flush = [&] {
    Steps += Pending;
    Vm.tick(Thread, Pending);
    Pending = 0;
  };
  auto Exit = [&](uint32_t Pc) {
    F->Pc = Pc;
    F->Sp = Sp;
    ArenaTop = F->StackBase + Sp;
  };
  // Calls out of the trace (allocation observers, agent hooks) see a
  // fully synced frame and may re-enter run(), moving the arena.
  auto SyncForCall = [&](const TraceOp &O) {
    Flush();
    Thread.setBci(O.Pc);
    Exit(O.Pc);
  };
  auto Rederive = [&] {
    F = &CallStack.back();
    L = Arena.data() + F->LocalsBase;
    S = Arena.data() + F->StackBase;
  };
  // A nested re-entry burns shared Steps: deopt when the remainder no
  // longer fits a budget, so the flat loop pauses (or hits the step
  // limit) at exactly the instruction it would have anyway.
  auto RemainderFits = [&](const TraceOp &O) {
    return Steps + O.StepsAfter <= QuantumEnd &&
           Steps + O.StepsAfter <= StepDeadline;
  };

  for (const TraceOp &O : T.Ops) {
    Pending += O.NumSteps;
    switch (O.Kind) {
    case SuperOp::Nop:
      break;
    case SuperOp::IConst:
      S[Sp++] = Value::fromInt(O.A);
      break;
    case SuperOp::ILoad:
      assert(!L[O.A].IsRef && "iload of a reference slot");
      S[Sp++] = L[O.A];
      break;
    case SuperOp::ALoad:
      assert((L[O.A].IsRef || L[O.A].Bits == kNullRef) &&
             "aload of a non-reference slot");
      S[Sp++] = Value::fromRef(L[O.A].Bits);
      break;
    case SuperOp::IStore:
      assert(Sp > 0 && "operand stack underflow");
      assert(!S[Sp - 1].IsRef && "istore of a reference");
      L[O.A] = S[--Sp];
      break;
    case SuperOp::AStore:
      assert(Sp > 0 && "operand stack underflow");
      assert(S[Sp - 1].IsRef && "astore of a non-reference");
      L[O.A] = S[--Sp];
      break;
    case SuperOp::PopV:
      assert(Sp > 0 && "operand stack underflow");
      --Sp;
      break;
    case SuperOp::DupV:
      assert(Sp > 0 && "operand stack underflow");
      S[Sp] = S[Sp - 1];
      ++Sp;
      break;
    case SuperOp::SwapV:
      assert(Sp > 1 && "operand stack underflow");
      std::swap(S[Sp - 1], S[Sp - 2]);
      break;
    case SuperOp::Alu:
    case SuperOp::INeg:
      applyAlu(O.Src, S, Sp);
      break;
    case SuperOp::GotoExit:
      Flush();
      Exit(static_cast<uint32_t>(O.A));
      return true;
    case SuperOp::Br:
      if (popBranch(O.Src, S, Sp)) {
        Flush();
        Exit(static_cast<uint32_t>(O.A));
        return true;
      }
      break;
    case SuperOp::CmpBranchLL:
      assert(!L[O.A].IsRef && !L[O.B].IsRef &&
             "icmp branch of a reference slot");
      if (branchTaken(O.Src, L[O.A].asInt(), L[O.B].asInt())) {
        Flush();
        Exit(static_cast<uint32_t>(O.C));
        return true;
      }
      break;
    case SuperOp::CmpBranchLI:
      assert(!L[O.A].IsRef && "icmp branch of a reference slot");
      if (branchTaken(O.Src, L[O.A].asInt(), O.B)) {
        Flush();
        Exit(static_cast<uint32_t>(O.C));
        return true;
      }
      break;
    case SuperOp::IncLocal:
      assert(!L[O.A].IsRef && "iinc of a reference slot");
      L[O.A] = Value::fromInt(aluResult(Opcode::IAdd, L[O.A].asInt(), O.B));
      break;
    case SuperOp::AccumLocal:
      assert(Sp > 0 && "operand stack underflow");
      assert(!S[Sp - 1].IsRef && !L[O.A].IsRef &&
             "accumulate of a reference");
      --Sp;
      L[O.A] = Value::fromInt(
          aluResult(Opcode::IAdd, L[O.A].asInt(), S[Sp].asInt()));
      break;
    case SuperOp::PALoadLL:
      // The access constituent is the fused run's last instruction; the
      // sample a PMU overflow captures must carry its bci and the exact
      // pre-access step/cycle counts, as in flat dispatch.
      Flush();
      Thread.setBci(O.Pc + O.NumSteps - 1);
      assert((L[O.A].IsRef || L[O.A].Bits == kNullRef) &&
             "aload of a non-reference slot");
      assert(!L[O.B].IsRef && "iload of a reference slot");
      S[Sp++] = Value::fromInt(static_cast<int64_t>(
          loadPrimElement(Vm, Thread, L[O.A].Bits, L[O.B].asInt())));
      break;
    case SuperOp::PAStoreLLL:
      Flush();
      Thread.setBci(O.Pc + O.NumSteps - 1);
      assert((L[O.A].IsRef || L[O.A].Bits == kNullRef) &&
             "aload of a non-reference slot");
      assert(!L[O.B].IsRef && !L[O.C].IsRef && "iload of a reference slot");
      storePrimElement(Vm, Thread, L[O.A].Bits, L[O.B].asInt(),
                       static_cast<uint64_t>(L[O.C].asInt()));
      break;
    case SuperOp::Access:
      Flush();
      Thread.setBci(O.Pc);
      execAccess(Vm, Thread, O.Src, O.A, O.B, S, Sp);
      break;
    case SuperOp::Alloc: {
      // The allocation observes Steps/cycles/Bci, can fault (GcRequest)
      // and can re-enter run() from an allocation observer: sync first,
      // with the operands still on the stack (peek-then-commit, exactly
      // as the flat loop), so an unwind re-executes this constituent flat
      // after the safepoint GC.
      SyncForCall(O);
      ObjectRef Obj = allocateFor(Vm, Thread, O.Src, O.A, O.B, S, Sp);
      Rederive();
      Sp -= opcodePops(O.Src, O.B);
      S[Sp++] = Value::fromRef(Obj);
      if (!RemainderFits(O)) {
        Exit(O.Pc + 1);
        return true;
      }
      break;
    }
    case SuperOp::HookPre:
    case SuperOp::HookPost:
      // Agent hook dispatch mid-trace, exactly as the flat loop: the flat
      // loop ticks before dispatching, and the hook records contexts and
      // may re-enter run().
      if (hasHook(O.Src)) {
        SyncForCall(O);
        callHook(O.Src, O.A, S, Sp);
        Rederive();
        if (!RemainderFits(O)) {
          Exit(O.Pc + 1);
          return true;
        }
      }
      break;
    }
  }
  Flush();
  Exit(T.EndPc);
  return true;
}
