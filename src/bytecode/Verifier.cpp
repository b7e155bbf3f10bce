//===- Verifier.cpp - Structural bytecode checks ---------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"

#include "analysis/Dataflow.h"
#include "analysis/TypeState.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <unordered_map>

using namespace djx;

static void addError(VerifyResult &R, size_t Bci, const std::string &Msg) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "bci %zu: ", Bci);
  R.Errors.push_back(Buf + Msg);
}

namespace {

/// Program-level context for resolving Invoke callees by qualified name
/// (unlinked) or flattened method index (linked).
struct ProgramContext {
  std::unordered_map<std::string, const BytecodeMethod *> ByName;
  std::vector<const BytecodeMethod *> ByIndex;
  /// Values each method leaves on its caller's stack: 1 when it has a
  /// value return, else 0.
  std::unordered_map<const BytecodeMethod *, unsigned> ReturnPushes;

  void add(const BytecodeMethod &M) {
    ByName.emplace(M.qualifiedName(), &M);
    ByIndex.push_back(&M);
    unsigned Pushes = 0;
    for (const Instruction &I : M.Code)
      if (I.Op == Opcode::IReturn || I.Op == Opcode::AReturn)
        Pushes = 1;
    ReturnPushes.emplace(&M, Pushes);
  }

  const BytecodeMethod *callee(const BytecodeMethod &Caller,
                               const Instruction &Inst) const {
    if (Inst.A < 0)
      return nullptr;
    if (Caller.RegistryId == kInvalidMethod) {
      if (static_cast<size_t>(Inst.A) >= Caller.CalleeRefs.size())
        return nullptr;
      auto It = ByName.find(Caller.CalleeRefs[Inst.A]);
      return It == ByName.end() ? nullptr : It->second;
    }
    return static_cast<size_t>(Inst.A) < ByIndex.size()
               ? ByIndex[Inst.A]
               : nullptr;
  }
};

/// Abstract operand-stack depth interval at a block entry. The only
/// source of uncertainty is an Invoke whose callee is not resolved (a
/// lone method, or a bad callee reference): it may push 0 or 1.
struct DepthRange {
  unsigned Lo = 0;
  unsigned Hi = 0;
  bool Reached = false;
};

/// Depth cap: deeper means an unbalanced loop is pumping the stack.
constexpr unsigned kMaxTrackedDepth = 1 << 16;

/// Depth intervals as a forward dataflow problem. Reports definite
/// underflow (even the maximal depth cannot feed the instruction's pops)
/// -- the "bad operand count" class of malformed programs -- without
/// false positives on valid code. The replay also yields the method's
/// peak depth, its max_stack: the operand slots its frame must reserve.
struct DepthProblem {
  using State = DepthRange;
  const BytecodeMethod &M;
  const Cfg &G;
  /// Resolves Invoke pushes exactly; null for a lone method.
  const ProgramContext *Ctx = nullptr;
  /// Null while solving; the reporting pass replays blocks into it.
  VerifyResult *R = nullptr;
  /// Highest Hi the reporting pass replays (the fixpoint's peak).
  unsigned Peak = 0;

  State initial() { return {}; }
  State boundary() { return {0, 0, true}; }

  /// Applies the instruction at \p Pc; false when the state broke (its
  /// successors would only cascade noise).
  bool step(State &D, uint32_t Pc) {
    const Instruction &Inst = M.Code[Pc];
    StackEffect E = instructionStackEffect(Inst);
    if (D.Hi < E.Pops) {
      if (R)
        addError(*R, Pc,
                 "stack underflow: pops " + std::to_string(E.Pops) +
                     " with at most " + std::to_string(D.Hi) +
                     " on the stack");
      return false;
    }
    // An Invoke pushes its callee's return value: exactly when the
    // program resolves the callee, else maybe.
    unsigned MaybePush = 0;
    if (Inst.Op == Opcode::Invoke) {
      const BytecodeMethod *Callee = Ctx ? Ctx->callee(M, Inst) : nullptr;
      if (Callee)
        E.Pushes = Ctx->ReturnPushes.at(Callee);
      else
        MaybePush = 1;
    }
    // Lo may dip below the pops when the uncertainty came from earlier
    // unresolved pushes; clamp at zero rather than flag a maybe.
    D.Lo = (D.Lo > E.Pops ? D.Lo - E.Pops : 0) + E.Pushes;
    D.Hi = D.Hi - E.Pops + E.Pushes + MaybePush;
    if (D.Hi > kMaxTrackedDepth) {
      if (R)
        addError(*R, Pc, "stack depth grows without bound (unbalanced loop?)");
      return false;
    }
    if (R)
      Peak = std::max(Peak, D.Hi);
    return true;
  }

  State transfer(uint32_t Block, const State &In) {
    State D = In;
    const BasicBlock &B = G.blocks()[Block];
    for (uint32_t Pc = B.Start; D.Reached && Pc < B.End; ++Pc)
      D.Reached = step(D, Pc);
    return D;
  }

  bool join(State &Dest, const State &Src) {
    if (!Src.Reached ||
        (Dest.Reached && Dest.Lo <= Src.Lo && Dest.Hi >= Src.Hi))
      return false;
    Dest.Lo = Dest.Reached ? std::min(Dest.Lo, Src.Lo) : Src.Lo;
    Dest.Hi = Dest.Reached ? std::max(Dest.Hi, Src.Hi) : Src.Hi;
    Dest.Reached = true;
    return true;
  }
};

/// Solves the depth intervals to fixpoint, then replays each reached
/// block once from its fixpoint entry state to report errors; returns
/// the peak depth the replay saw.
unsigned verifyStackDepths(const BytecodeMethod &M, const Cfg &G,
                           const ProgramContext *Ctx, VerifyResult &R) {
  DepthProblem P{M, G, Ctx};
  std::vector<DepthRange> In =
      solveDataflow(G, DataflowDirection::Forward, P);
  P.R = &R;
  for (uint32_t B : G.rpo())
    P.transfer(B, In[B]);
  return P.Peak;
}

/// verifyMethod(), with Invoke pushes resolved through \p Ctx when given;
/// records the method's max_stack as R.MaxStack's one entry (0 when the
/// structure is unsound). When the structure is sound, also leaves the
/// CFG its depth pass ran on in \p G for verifyProgram's type-state pass.
VerifyResult verifyBody(const BytecodeMethod &M, const ProgramContext *Ctx,
                        std::optional<Cfg> &G) {
  VerifyResult R;
  R.MaxStack.push_back(0);
  if (M.Code.empty()) {
    R.Errors.push_back("empty code");
    return R;
  }
  if (M.NumArgs > M.NumLocals)
    R.Errors.push_back("argument count exceeds local slots");
  size_t N = M.Code.size();
  for (size_t I = 0; I < N; ++I) {
    const Instruction &Inst = M.Code[I];
    if (isBranch(Inst.Op)) {
      if (Inst.A < 0 || static_cast<size_t>(Inst.A) >= N)
        addError(R, I, "branch target out of range");
    }
    if (opcodeInfo(Inst.Op).Format == OperandFormat::Local &&
        (Inst.A < 0 || static_cast<size_t>(Inst.A) >= M.NumLocals))
      addError(R, I, "local slot out of range");
    switch (Inst.Op) {
    case Opcode::Invoke:
      if (Inst.B < 0)
        addError(R, I, "negative argument count");
      // Unlinked methods index the callee table; linked ones index the
      // program, which the interpreter checks at call time.
      if (M.RegistryId == kInvalidMethod &&
          (Inst.A < 0 || static_cast<size_t>(Inst.A) >= M.CalleeRefs.size()))
        addError(R, I, "callee table index out of range");
      break;
    case Opcode::MultiANewArray:
      if (Inst.B < 1)
        addError(R, I, "multianewarray needs >= 1 dimension");
      break;
    default:
      break;
    }
  }
  if (!isTerminal(M.Code.back().Op))
    R.Errors.push_back("code does not end with a return or goto");
  for (size_t I = 1; I < M.LineTable.size(); ++I)
    if (M.LineTable[I - 1].Bci >= M.LineTable[I].Bci)
      R.Errors.push_back("line table not sorted by BCI");
  // Operand-count / stack-shape pass, only once the structure is sound
  // (the CFG assumes in-range branch targets). Without a program,
  // Invoke pushes are unknown; the interval analysis stays conservative.
  if (R.ok()) {
    G = Cfg::build(M);
    R.MaxStack[0] = verifyStackDepths(M, *G, Ctx, R);
  }
  return R;
}

} // namespace

VerifyResult djx::verifyMethod(const BytecodeMethod &M) {
  std::optional<Cfg> G;
  return verifyBody(M, nullptr, G);
}

VerifyResult djx::verifyProgram(const BytecodeProgram &P) {
  // Walk classes directly so unloaded programs can be verified before
  // linking, like a class-load-time verifier.
  VerifyResult All;
  ProgramContext Ctx;
  for (const ClassFile &C : P.classes())
    for (const BytecodeMethod &M : C.Methods)
      Ctx.add(M);
  for (const ClassFile &C : P.classes())
    for (const BytecodeMethod &M : C.Methods) {
      std::optional<Cfg> G;
      VerifyResult R = verifyBody(M, &Ctx, G);
      All.MaxStack.push_back(R.MaxStack[0]);
      // Cross-method checks: Invoke operand counts against the callee's
      // declared arity, and the type-state pass.
      bool InvokesOk = true;
      for (size_t I = 0; I < M.Code.size(); ++I) {
        const Instruction &Inst = M.Code[I];
        if (Inst.Op != Opcode::Invoke)
          continue;
        const BytecodeMethod *Callee = Ctx.callee(M, Inst);
        if (!Callee) {
          std::string Name = "(bad callee table index)";
          if (M.RegistryId == kInvalidMethod && Inst.A >= 0 &&
              static_cast<size_t>(Inst.A) < M.CalleeRefs.size())
            Name = "'" + M.CalleeRefs[Inst.A] + "'";
          addError(R, I, "unresolved callee " + Name);
          InvokesOk = false;
          continue;
        }
        if (Inst.B < 0 || static_cast<uint32_t>(Inst.B) != Callee->NumArgs) {
          addError(R, I,
                   "invoke passes " + std::to_string(Inst.B) +
                       " arguments but " + Callee->qualifiedName() +
                       " takes " + std::to_string(Callee->NumArgs));
          InvokesOk = false;
        }
      }
      if (R.ok() && InvokesOk) {
        // Full type-state pass (src/analysis/): exact stack depths with
        // callee return kinds resolved, plus type-confusion checks
        // mirroring the dispatch loop's runtime asserts, merge-depth
        // conflicts, and unreachable-code detection. The interval pass
        // already rejected definite underflow, so this only runs on
        // structurally sound methods.
        CalleeResolver Resolve =
            [&Ctx, &M](const Instruction &Inst) -> const BytecodeMethod * {
          return Ctx.callee(M, Inst);
        };
        TypeStateResult TS = inferTypeStates(M, *G, Resolve);
        for (const TypeStateError &E : TS.Errors)
          addError(R, E.Pc, E.Msg);
      }
      for (const std::string &E : R.Errors)
        All.Errors.push_back(M.qualifiedName() + ": " + E);
    }
  return All;
}
