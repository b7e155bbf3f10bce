//===- Verifier.cpp - Class-load-time bytecode verifier -------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"

#include "analysis/TypeState.h"

#include <cstdio>
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

  void add(const BytecodeMethod &M) {
    ByName.emplace(M.qualifiedName(), &M);
    ByIndex.push_back(&M);
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

/// Structural checks, which the CFG relies on: code present and ending
/// on a terminal, branch targets and local slots in range, operand
/// counts and the line table sane.
void checkStructure(const BytecodeMethod &M, VerifyResult &R) {
  if (M.Code.empty()) {
    R.Errors.push_back("empty code");
    return;
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
}

/// Resolves every Invoke of \p M and checks its operand count against
/// the callee's declared arity.
void checkInvokes(const BytecodeMethod &M, const ProgramContext &Ctx,
                  VerifyResult &R) {
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
      continue;
    }
    if (Inst.B < 0 || static_cast<uint32_t>(Inst.B) != Callee->NumArgs)
      addError(R, I,
               "invoke passes " + std::to_string(Inst.B) +
                   " arguments but " + Callee->qualifiedName() + " takes " +
                   std::to_string(Callee->NumArgs));
  }
}

} // namespace

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
      VerifyResult R;
      checkStructure(M, R);
      checkInvokes(M, Ctx, R);
      uint32_t MaxStack = 0;
      if (R.ok()) {
        // Type-state pass (src/analysis/), on sound structure and
        // resolved calls only: exact stack depths with callee return
        // kinds, underflow, the depth cap, type-confusion checks
        // mirroring the dispatch loop's runtime asserts, merge-depth
        // conflicts and unreachable code; its peak depth is max_stack.
        CalleeResolver Resolve =
            [&Ctx, &M](const Instruction &Inst) -> const BytecodeMethod * {
          return Ctx.callee(M, Inst);
        };
        TypeStateResult TS = inferTypeStates(M, Cfg::build(M), Resolve);
        for (const TypeStateError &E : TS.Errors)
          addError(R, E.Pc, E.Msg);
        MaxStack = TS.MaxStack;
      }
      All.MaxStack.push_back(MaxStack);
      for (const std::string &E : R.Errors)
        All.Errors.push_back(M.qualifiedName() + ": " + E);
    }
  return All;
}
