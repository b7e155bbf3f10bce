//===- Liveness.cpp - Backward liveness of locals and stack slots ----------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "analysis/Dataflow.h"

#include <cassert>

using namespace djx;

unsigned LivenessResult::liveStackSlotsAbove(uint32_t Pc,
                                             uint32_t FromDepth) const {
  if (!knownAt(Pc))
    return 0;
  unsigned N = 0;
  for (size_t I = FromDepth; I < StackAt[Pc].size(); ++I)
    N += StackAt[Pc][I] ? 1 : 0;
  return N;
}

namespace {

struct LiveState {
  std::vector<bool> Locals;
  std::vector<bool> Stack;
  bool Known = false;
};

struct LivenessProblem {
  using State = LiveState;
  const BytecodeMethod &M;
  const Cfg &G;
  const TypeStateResult &TS;

  State initial() { return {}; }

  State boundary() {
    State S;
    S.Known = true;
    S.Locals.assign(M.NumLocals, false);
    return S;
  }

  /// Stack depth entering \p Pc, or -1 when type-state never got there.
  int depthBefore(uint32_t Pc) const { return TS.depthAt(Pc); }

  /// Push count of the instruction at \p Pc, recovered from the exact
  /// depths (which resolves Invoke's callee-dependent push for free).
  int pushesOf(uint32_t Pc, int DBefore, int DAfter) const {
    StackEffect E = instructionStackEffect(M.Code[Pc]);
    if (M.Code[Pc].Op == Opcode::Invoke)
      return DAfter - DBefore + static_cast<int>(E.Pops);
    return static_cast<int>(E.Pushes);
  }

  /// Applies the instruction at \p Pc backwards: \p S is the state
  /// after it; on return it is the state before it. \p DBefore is the
  /// entering stack depth.
  void applyBackward(State &S, uint32_t Pc, int DBefore, int DAfter) {
    const Instruction &I = M.Code[Pc];
    StackEffect E = instructionStackEffect(I);
    int P = static_cast<int>(E.Pops);
    int Q = pushesOf(Pc, DBefore, DAfter);
    assert(static_cast<int>(S.Stack.size()) == DAfter && "depth drift");

    // Pull the liveness of the pushed result slots off, then append the
    // operand slots with their use-liveness.
    std::vector<bool> Pushed(S.Stack.end() - Q, S.Stack.end());
    S.Stack.resize(S.Stack.size() - Q);
    auto PushOperands = [&](std::initializer_list<bool> Ops) {
      for (bool L : Ops)
        S.Stack.push_back(L);
    };

    switch (I.Op) {
    case Opcode::Pop:
      PushOperands({false}); // The one opcode that discards its operand.
      break;
    case Opcode::Dup:
      // One operand, two result copies: used when either copy is.
      PushOperands({Pushed[0] || Pushed[1]});
      break;
    case Opcode::Swap:
      PushOperands({Pushed[1], Pushed[0]});
      break;
    case Opcode::ILoad:
    case Opcode::ALoad:
      // The local is read only when the loaded value is itself live.
      if (Pushed[0])
        S.Locals[I.A] = true;
      break;
    case Opcode::IStore:
    case Opcode::AStore:
      // The stored value matters only when the local is live below;
      // the store kills the local's previous value.
      PushOperands({S.Locals[I.A]});
      S.Locals[I.A] = false;
      break;
    case Opcode::AllocHookPost:
      // Peeks TOS: the hook observes it regardless of later uses.
      PushOperands({true});
      break;
    default:
      // Every other opcode observes all of its operands.
      for (int K = 0; K < P; ++K)
        S.Stack.push_back(true);
      break;
    }
    assert(static_cast<int>(S.Stack.size()) == DBefore && "depth drift");
  }

  /// Depth after the last instruction of \p B (its exit depth).
  int exitDepth(uint32_t B) const {
    const BasicBlock &Blk = G.blocks()[B];
    if (!Blk.Succs.empty())
      return depthBefore(G.blocks()[Blk.Succs[0]].Start);
    uint32_t Last = Blk.End - 1;
    int D = depthBefore(Last);
    if (D < 0)
      return -1;
    StackEffect E = instructionStackEffect(M.Code[Last]);
    return D - static_cast<int>(E.Pops) + static_cast<int>(E.Pushes);
  }

  /// True when every pc of \p B has a type-state depth (the backward
  /// walk needs them all).
  bool analyzable(uint32_t B) const {
    const BasicBlock &Blk = G.blocks()[B];
    for (uint32_t Pc = Blk.Start; Pc < Blk.End; ++Pc)
      if (depthBefore(Pc) < 0)
        return false;
    return exitDepth(B) >= 0;
  }

  State transfer(uint32_t B, const State &In) {
    if (!In.Known || !analyzable(B))
      return {};
    const BasicBlock &Blk = G.blocks()[B];
    State S = In;
    S.Locals.resize(M.NumLocals, false);
    S.Stack.resize(static_cast<size_t>(exitDepth(B)), false);
    for (uint32_t Pc = Blk.End; Pc-- > Blk.Start;) {
      int DBefore = depthBefore(Pc);
      int DAfter = Pc + 1 < Blk.End
                       ? depthBefore(Pc + 1)
                       : exitDepth(B);
      applyBackward(S, Pc, DBefore, DAfter);
    }
    return S;
  }

  bool join(State &Dest, const State &Src) {
    if (!Src.Known)
      return false;
    if (!Dest.Known) {
      Dest = Src;
      return true;
    }
    bool Changed = false;
    if (Dest.Locals.size() < Src.Locals.size())
      Dest.Locals.resize(Src.Locals.size(), false);
    for (size_t I = 0; I < Src.Locals.size(); ++I)
      if (Src.Locals[I] && !Dest.Locals[I]) {
        Dest.Locals[I] = true;
        Changed = true;
      }
    if (Dest.Stack.size() < Src.Stack.size())
      Dest.Stack.resize(Src.Stack.size(), false);
    for (size_t I = 0; I < Src.Stack.size(); ++I)
      if (Src.Stack[I] && !Dest.Stack[I]) {
        Dest.Stack[I] = true;
        Changed = true;
      }
    return Changed;
  }
};

} // namespace

LivenessResult djx::computeLiveness(const BytecodeMethod &M, const Cfg &G,
                                    const TypeStateResult &TS) {
  LivenessResult R;
  const size_t N = M.Code.size();
  R.LocalsAt.assign(N, {});
  R.StackAt.assign(N, {});
  R.Known.assign(N, false);

  LivenessProblem P{M, G, TS};
  std::vector<LiveState> Exit =
      solveDataflow(G, DataflowDirection::Backward, P);

  // Record pass: replay each analyzable block backwards once from its
  // fixpoint exit state, storing the per-pc before-states.
  for (uint32_t B = 0; B < G.blocks().size(); ++B) {
    if (!Exit[B].Known || !P.analyzable(B))
      continue;
    const BasicBlock &Blk = G.blocks()[B];
    LiveState S = Exit[B];
    S.Locals.resize(M.NumLocals, false);
    S.Stack.resize(static_cast<size_t>(P.exitDepth(B)), false);
    for (uint32_t Pc = Blk.End; Pc-- > Blk.Start;) {
      int DBefore = P.depthBefore(Pc);
      int DAfter = Pc + 1 < Blk.End ? P.depthBefore(Pc + 1) : P.exitDepth(B);
      P.applyBackward(S, Pc, DBefore, DAfter);
      R.LocalsAt[Pc] = S.Locals;
      R.StackAt[Pc] = S.Stack;
      R.Known[Pc] = true;
    }
  }
  return R;
}
