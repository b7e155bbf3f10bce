//===- TypeState.cpp - Abstract stack/locals type inference ----------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/TypeState.h"

#include "analysis/Dataflow.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace djx;

std::string AbsValue::str() const {
  if (Tags == 0)
    return "bottom";
  if (Tags == kTop)
    return "top";
  std::string Out;
  auto Add = [&](const char *Name) {
    if (!Out.empty())
      Out += "|";
    Out += Name;
  };
  if ((Tags & kIntAny) == kIntAny)
    Add("int");
  else if (Tags & kIntZero)
    Add("int0");
  else if (Tags & kIntNZ)
    Add("int");
  if (Tags & kNull)
    Add("null");
  if (Tags & kObj)
    Add("obj");
  if (Tags & kArr)
    Add("arr");
  if (Sites != 0) {
    Out += "@{";
    bool First = true;
    for (unsigned B = 0; B < 64; ++B)
      if (Sites & (1ull << B)) {
        if (!First)
          Out += ",";
        Out += std::to_string(B);
        First = false;
      }
    Out += "}";
  }
  return Out;
}

std::string djx::escapeRoutesStr(uint8_t Routes) {
  if (Routes == 0)
    return "none";
  std::string Out;
  auto Add = [&](const char *Name) {
    if (!Out.empty())
      Out += "+";
    Out += Name;
  };
  if (Routes & kEscStore)
    Add("store");
  if (Routes & kEscReturn)
    Add("return");
  if (Routes & kEscCall)
    Add("call");
  return Out;
}

const AllocSiteFact *TypeStateResult::siteAtPc(uint32_t Pc) const {
  for (const AllocSiteFact &S : Sites)
    if (S.Pc == Pc)
      return &S;
  return nullptr;
}

namespace {

/// Renders the top of the abstract stack for diagnostics.
std::string renderStack(const AbsFrame &F) {
  constexpr size_t kMaxSlots = 4;
  std::ostringstream OS;
  OS << "stack: [";
  size_t N = F.Stack.size();
  size_t First = N > kMaxSlots ? N - kMaxSlots : 0;
  if (First > 0)
    OS << "... ";
  for (size_t I = First; I < N; ++I) {
    if (I > First)
      OS << ", ";
    OS << F.Stack[I].str();
  }
  OS << "]";
  return OS.str();
}

/// Return-kind tag set of a callee: which of IReturn / AReturn its body
/// can reach the caller through.
uint8_t calleeReturnTags(const BytecodeMethod &Callee) {
  uint8_t T = 0;
  for (const Instruction &I : Callee.Code) {
    if (I.Op == Opcode::IReturn)
      T |= 1;
    else if (I.Op == Opcode::AReturn)
      T |= 2;
  }
  return T;
}

/// The instruction-level abstract interpreter. One instance drives both
/// the fixpoint (Record=false: pure transfer) and the final extraction
/// pass (Record=true: diagnostics, escape routes, peak depth).
struct AbsInterp {
  const BytecodeMethod &M;
  const CalleeResolver &Resolve;
  TypeStateResult &R;
  /// Pc -> index into R.Sites (kNoBlock when not an allocation).
  std::vector<uint32_t> SiteIndex;
  bool Record = false;
  /// First pc whose result exceeded kMaxStackDepth (kNoBlock if none).
  uint32_t TooDeepPc = kNoBlock;

  AbsInterp(const BytecodeMethod &M, const CalleeResolver &Resolve,
            TypeStateResult &R)
      : M(M), Resolve(Resolve), R(R) {
    SiteIndex.assign(M.Code.size(), kNoBlock);
    for (uint32_t Pc = 0; Pc < M.Code.size(); ++Pc)
      if (isAllocation(M.Code[Pc].Op)) {
        uint32_t Ord = static_cast<uint32_t>(R.Sites.size());
        SiteIndex[Pc] = Ord;
        AllocSiteFact F;
        F.Pc = Pc;
        F.Op = M.Code[Pc].Op;
        F.Tracked = Ord < 64;
        R.Sites.push_back(F);
      }
  }

  void error(uint32_t Pc, const std::string &Msg) {
    if (Record)
      R.Errors.push_back({Pc, Msg});
  }

  void escape(const AbsValue &V, uint8_t Route) {
    if (!Record || V.Sites == 0)
      return;
    for (unsigned B = 0; B < 64 && B < R.Sites.size(); ++B)
      if (V.Sites & (1ull << B))
        R.Sites[B].Routes |= Route;
  }

  uint64_t siteBit(uint32_t Pc) const {
    uint32_t Ord = SiteIndex[Pc];
    return Ord < 64 ? (1ull << Ord) : 0;
  }

  /// Applies the instruction at \p Pc to \p F. Returns false when the
  /// rest of the block cannot be reasoned about (operand underflow, an
  /// Invoke with no resolution, or a stack past the depth cap).
  bool apply(AbsFrame &F, uint32_t Pc) {
    const Instruction &I = M.Code[Pc];
    const std::string Op = opcodeName(I.Op);

    // Local indices are the structural verifier's job; hand-built code
    // reaching the analysis directly still must not fault it.
    if (opcodeInfo(I.Op).Format == OperandFormat::Local &&
        (I.A < 0 || static_cast<size_t>(I.A) >= F.Locals.size())) {
      error(Pc, std::string(Op) + " local slot out of range");
      return false;
    }

    const StackEffect E = instructionStackEffect(I);
    if (F.Stack.size() < E.Pops) {
      error(Pc, std::string("stack underflow: ") + Op + " pops " +
                    std::to_string(E.Pops) + " with " +
                    std::to_string(F.Stack.size()) + " on the stack");
      return false;
    }
    auto Pop = [&]() {
      AbsValue V = F.Stack.back();
      F.Stack.pop_back();
      return V;
    };
    auto Push = [&](AbsValue V) { F.Stack.push_back(V); };
    // "The popped operand must be able to be X": flag definite misuse
    // (no possible concrete value satisfies the opcode), then push on
    // with the shape the runtime assert would have guaranteed.
    auto NeedInt = [&](AbsValue &V, const std::string &What) {
      if (!V.mayInt()) {
        error(Pc, What + " (" + renderStack(F) + " <- after pop of " +
                      V.str() + ")");
        V = AbsValue::intAny();
      }
    };

    switch (I.Op) {
    case Opcode::IConst:
      Push(AbsValue::intConst(I.A));
      break;
    case Opcode::ILoad: {
      AbsValue &L = F.Locals[I.A];
      if (!L.mayInt())
        error(Pc, "iload of a reference local L" + std::to_string(I.A) +
                      " (local: " + L.str() + ")");
      uint8_t T = L.Tags & AbsValue::kIntAny;
      Push(AbsValue::make(T ? T : AbsValue::kIntAny));
      break;
    }
    case Opcode::ALoad: {
      AbsValue &L = F.Locals[I.A];
      if (!L.mayALoad())
        error(Pc, "aload of an integer local L" + std::to_string(I.A) +
                      " (local: " + L.str() + ")");
      // A zero-initialised (int-tagged zero) slot loads as null.
      uint8_t T = (L.Tags & AbsValue::kRefAny) |
                  ((L.Tags & AbsValue::kIntZero) ? AbsValue::kNull : 0);
      Push(AbsValue::make(T ? T : AbsValue::kRefAny, L.Sites));
      break;
    }
    case Opcode::IStore: {
      AbsValue V = Pop();
      if (!V.mayInt())
        error(Pc, "istore of a reference into L" + std::to_string(I.A) +
                      " (value: " + V.str() + ")");
      uint8_t T = V.Tags & AbsValue::kIntAny;
      F.Locals[I.A] = AbsValue::make(T ? T : AbsValue::kIntAny);
      break;
    }
    case Opcode::AStore: {
      AbsValue V = Pop();
      if (!V.mayRefTagged())
        error(Pc, "astore of a non-reference into L" + std::to_string(I.A) +
                      " (value: " + V.str() + ")");
      uint8_t T = V.Tags & AbsValue::kRefAny;
      F.Locals[I.A] = AbsValue::make(T ? T : AbsValue::kRefAny, V.Sites);
      break;
    }
    case Opcode::Pop:
      Pop();
      break;
    case Opcode::Dup:
      Push(F.Stack.back());
      break;
    case Opcode::Swap:
      std::swap(F.Stack[F.Stack.size() - 1], F.Stack[F.Stack.size() - 2]);
      break;
    case Opcode::IfNull:
    case Opcode::IfNonNull: {
      AbsValue V = Pop();
      if (!V.mayRefTagged() && !(V.Tags & AbsValue::kIntZero))
        error(Pc, std::string(Op) + " on an integer operand (value: " +
                      V.str() + ")");
      break;
    }
    case Opcode::New:
      Push(AbsValue::make(AbsValue::kObj, siteBit(Pc)));
      break;
    case Opcode::NewArray:
    case Opcode::ANewArray: {
      AbsValue Len = Pop();
      NeedInt(Len, std::string(Op) + " length must be an integer");
      Push(AbsValue::make(AbsValue::kArr, siteBit(Pc)));
      break;
    }
    case Opcode::MultiANewArray: {
      for (unsigned D = 0; D < E.Pops; ++D) {
        AbsValue Len = Pop();
        NeedInt(Len, "multianewarray dimension must be an integer");
      }
      Push(AbsValue::make(AbsValue::kArr, siteBit(Pc)));
      break;
    }
    case Opcode::PALoad:
    case Opcode::AALoad: {
      AbsValue Idx = Pop();
      AbsValue Arr = Pop();
      NeedInt(Idx, std::string(Op) + " index must be an integer");
      if (!Arr.mayArray())
        error(Pc, std::string(Op) + " on a non-array operand (operand: " +
                      Arr.str() + ", " + renderStack(F) + ")");
      Push(I.Op == Opcode::PALoad ? AbsValue::intAny() : AbsValue::refAny());
      break;
    }
    case Opcode::PAStore: {
      AbsValue V = Pop();
      AbsValue Idx = Pop();
      AbsValue Arr = Pop();
      NeedInt(V, "pastore value must be an integer");
      NeedInt(Idx, "pastore index must be an integer");
      if (!Arr.mayArray())
        error(Pc, std::string("pastore on a non-array operand (operand: ") +
                      Arr.str() + ", " + renderStack(F) + ")");
      break;
    }
    case Opcode::AAStore: {
      AbsValue V = Pop();
      AbsValue Idx = Pop();
      AbsValue Arr = Pop();
      if (!V.mayRefTagged())
        error(Pc, "aastore of a non-reference value (value: " + V.str() +
                      ")");
      escape(V, kEscStore);
      NeedInt(Idx, "aastore index must be an integer");
      if (!Arr.mayArray())
        error(Pc, std::string("aastore on a non-array operand (operand: ") +
                      Arr.str() + ")");
      break;
    }
    case Opcode::ArrayLength: {
      AbsValue Arr = Pop();
      if (!Arr.mayArray())
        error(Pc, "arraylength on a non-array operand (operand: " +
                      Arr.str() + ")");
      Push(AbsValue::intAny());
      break;
    }
    case Opcode::GetField:
    case Opcode::GetRefField: {
      AbsValue Obj = Pop();
      if (!Obj.mayObject())
        error(Pc, std::string(Op) + " on a non-object operand (operand: " +
                      Obj.str() + ")");
      Push(I.Op == Opcode::GetField ? AbsValue::intAny()
                                    : AbsValue::refAny());
      break;
    }
    case Opcode::PutField: {
      AbsValue V = Pop();
      AbsValue Obj = Pop();
      NeedInt(V, "putfield value must be an integer");
      if (!Obj.mayObject())
        error(Pc, "putfield on a non-object operand (operand: " +
                      Obj.str() + ")");
      break;
    }
    case Opcode::PutRefField: {
      AbsValue V = Pop();
      AbsValue Obj = Pop();
      if (!V.mayRefTagged())
        error(Pc, "putreffield of a non-reference value (value: " +
                      V.str() + ")");
      escape(V, kEscStore);
      if (!Obj.mayObject())
        error(Pc, "putreffield on a non-object operand (operand: " +
                      Obj.str() + ")");
      break;
    }
    case Opcode::Invoke: {
      const BytecodeMethod *Callee = Resolve ? Resolve(I) : nullptr;
      if (!Callee) {
        R.Incomplete = true;
        return false;
      }
      for (unsigned A = 0; A < E.Pops; ++A) {
        AbsValue V = Pop();
        escape(V, kEscCall);
      }
      switch (calleeReturnTags(*Callee)) {
      case 1:
        Push(AbsValue::intAny());
        break;
      case 2:
        Push(AbsValue::refAny());
        break;
      case 3:
        Push(AbsValue::top());
        break;
      default:
        break;
      }
      break;
    }
    case Opcode::IReturn: {
      AbsValue V = Pop();
      NeedInt(V, "ireturn of a reference");
      break;
    }
    case Opcode::AReturn: {
      AbsValue V = Pop();
      if (!V.mayRefTagged())
        error(Pc, "areturn of a non-reference (value: " + V.str() + ")");
      escape(V, kEscReturn);
      break;
    }
    case Opcode::AllocHookPost: {
      // Peeks (and requires) the freshly allocated ref on TOS.
      if (!F.Stack.back().mayRefTagged())
        error(Pc, "allochook_post without a reference on TOS (" +
                      renderStack(F) + ")");
      break;
    }
    default: {
      // Integer operators and compares, and the operand-free opcodes:
      // every operand must be an int, every result is one.
      assert(E.Pops <= 2 && "no int operator pops more than two");
      AbsValue Operands[2];
      for (unsigned K = 0; K < E.Pops; ++K)
        Operands[K] = Pop();
      for (unsigned K = 0; K < E.Pops; ++K)
        NeedInt(Operands[K], Op + " on a reference operand");
      for (unsigned K = 0; K < E.Pushes; ++K)
        Push(AbsValue::intAny());
      break;
    }
    }
    if (F.Stack.size() > kMaxStackDepth) {
      if (TooDeepPc == kNoBlock)
        TooDeepPc = Pc;
      return false;
    }
    if (Record)
      R.MaxStack = std::max(R.MaxStack, static_cast<uint32_t>(F.Stack.size()));
    return true;
  }
};

/// The dataflow problem: states are abstract frames at block entry.
struct TypeStateProblem {
  using State = AbsFrame;
  const BytecodeMethod &M;
  const Cfg &G;
  AbsInterp &AI;
  /// Depth-mismatch joins observed (target block -> the two depths);
  /// reported once per block by the extraction pass.
  std::vector<std::pair<int, int>> Conflicts;

  TypeStateProblem(const BytecodeMethod &M, const Cfg &G, AbsInterp &AI)
      : M(M), G(G), AI(AI) {
    Conflicts.assign(G.blocks().size(), {-1, -1});
  }

  State initial() { return {}; }

  State boundary() {
    State F;
    F.Reachable = true;
    F.Locals.assign(M.NumLocals, AbsValue::make(AbsValue::kIntZero));
    // Argument slots arrive from the caller with unknown shapes.
    for (uint32_t A = 0; A < M.NumArgs && A < M.NumLocals; ++A)
      F.Locals[A] = AbsValue::top();
    return F;
  }

  State transfer(uint32_t Block, const State &In) {
    if (!In.Reachable)
      return {};
    State Out = In;
    const BasicBlock &B = G.blocks()[Block];
    for (uint32_t Pc = B.Start; Pc < B.End; ++Pc)
      if (!AI.apply(Out, Pc))
        return {};
    return Out;
  }

  bool join(State &Dest, const State &Src) {
    return joinInto(Dest, Src, kNoBlock);
  }

  bool joinInto(State &Dest, const State &Src, uint32_t DestBlock) {
    if (!Src.Reachable)
      return false;
    if (!Dest.Reachable) {
      Dest = Src;
      return true;
    }
    bool Changed = false;
    assert(Dest.Locals.size() == Src.Locals.size());
    for (size_t I = 0; I < Dest.Locals.size(); ++I)
      Changed |= Dest.Locals[I].join(Src.Locals[I]);
    if (Dest.Stack.size() != Src.Stack.size()) {
      // Merging frames of different depths is a verification error; keep
      // Dest's stack (no sound merge exists) and remember the conflict.
      if (DestBlock != kNoBlock && Conflicts[DestBlock].first < 0) {
        Conflicts[DestBlock] = {static_cast<int>(Dest.Stack.size()),
                                static_cast<int>(Src.Stack.size())};
        Changed = true;
      }
      return Changed;
    }
    for (size_t I = 0; I < Dest.Stack.size(); ++I)
      Changed |= Dest.Stack[I].join(Src.Stack[I]);
    return Changed;
  }
};

} // namespace

TypeStateResult djx::inferTypeStates(const BytecodeMethod &M, const Cfg &G,
                                     const CalleeResolver &Resolve) {
  TypeStateResult R;
  R.Depth.assign(M.Code.size(), -1);
  AbsInterp AI(M, Resolve, R);
  TypeStateProblem P(M, G, AI);

  // Fixpoint (pure transfers: no diagnostics, no escape recording).
  std::vector<AbsFrame> In = solveDataflow(G, P);
  if (AI.TooDeepPc != kNoBlock) {
    R.Errors.push_back({AI.TooDeepPc, "operand stack deeper than " +
                                          std::to_string(kMaxStackDepth) +
                                          " slots"});
    return R;
  }

  // Re-join every edge once against the fixpoint to attribute depth
  // conflicts to their target blocks (the solver's joins mutated the
  // vector as it grew, so attribution there would be unstable). In is
  // a fixpoint, so these joins change only the conflicts.
  for (uint32_t B = 0; B < G.blocks().size(); ++B) {
    AbsFrame Out = P.transfer(B, In[B]);
    for (uint32_t S : G.blocks()[B].Succs)
      P.joinInto(In[S], Out, S);
  }

  // Extraction pass: replay each reachable block from its fixpoint
  // in-state in RPO (deterministic diagnostics order), recording per-pc
  // depths, type errors, escape routes and the peak depth.
  AI.Record = true;
  for (uint32_t B : G.rpo()) {
    const BasicBlock &Blk = G.blocks()[B];
    if (auto [D1, D2] = P.Conflicts[B]; D1 >= 0)
      R.Errors.push_back(
          {Blk.Start, "operand stack depth mismatch at merge (" +
                          std::to_string(D1) + " vs " + std::to_string(D2) +
                          ")"});
    if (!In[B].Reachable)
      continue;
    AbsFrame F = In[B];
    for (uint32_t Pc = Blk.Start; Pc < Blk.End; ++Pc) {
      R.Depth[Pc] = static_cast<int32_t>(F.Stack.size());
      if (!AI.apply(F, Pc))
        break;
    }
  }
  R.BlockIn = std::move(In);

  // Entry-unreachable code is dead by construction; report it unless an
  // unresolved Invoke left reachability partial. (CFG reachability is
  // structural, so this cannot false-positive on executed code.)
  if (!R.Incomplete)
    for (uint32_t B = 0; B < G.blocks().size(); ++B)
      if (!G.reachable(B))
        R.Errors.push_back({G.blocks()[B].Start,
                            "unreachable code (no control path from method "
                            "entry reaches this block)"});

  // Keep diagnostics sorted by pc for stable caller-side aggregation.
  std::stable_sort(R.Errors.begin(), R.Errors.end(),
                   [](const TypeStateError &A, const TypeStateError &B) {
                     return A.Pc < B.Pc;
                   });
  return R;
}
