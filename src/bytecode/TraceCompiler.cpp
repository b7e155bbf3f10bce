//===- TraceCompiler.cpp - Hot-trace superinstruction compiler ------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/TraceCompiler.h"

#include "analysis/MethodAnalysis.h"

#include <algorithm>

using namespace djx;

const char *djx::execTierName(ExecTier Tier) {
  return Tier == ExecTier::Super ? "super" : "interp";
}

bool djx::parseExecTier(const std::string &Name, ExecTier &Out) {
  if (Name == "interp") {
    Out = ExecTier::Interp;
    return true;
  }
  if (Name == "super") {
    Out = ExecTier::Super;
    return true;
  }
  return false;
}

namespace {

/// The base (unfused) SuperOp encoding of each opcode.
constexpr SuperOp kBaseEncoding[] = {
#define OPCODE(Name, Mnemonic, Pops, Pushes, Format, Super, Flags)           \
  SuperOp::Super,
#include "bytecode/Opcodes.def"
};

/// Running operand-stack depth relative to trace entry, tracked at
/// constituent granularity via the opcode table's stack effects. Min
/// bounds the operands the trace consumes below its entry depth
/// (conservative for fused ops, which skip the intermediate pushes
/// entirely). Peak growth needs no tracking: the trace runs in its
/// method's frame, which reserves the verified max_stack.
struct ShapeTracker {
  int Depth = 0;
  int Min = 0;

  void apply(const Instruction &I) {
    StackEffect E = instructionStackEffect(I);
    Depth -= static_cast<int>(E.Pops);
    Min = std::min(Min, Depth);
    Depth += static_cast<int>(E.Pushes);
  }
};

/// Below this many constituents a trace cannot pay for its entry
/// (budget admission + frame sync), so the site is marked dead.
constexpr uint32_t kMinTraceSteps = 3;

} // namespace

std::optional<CompiledTrace> djx::compileTrace(const BytecodeMethod &M,
                                               uint32_t EntryPc,
                                               const TierConfig &Cfg,
                                               const MethodAnalysis *MA) {
  const std::vector<Instruction> &Code = M.Code;
  const uint32_t N = static_cast<uint32_t>(Code.size());
  CompiledTrace T;
  T.EntryPc = EntryPc;
  ShapeTracker Shape;
  uint32_t Pc = EntryPc;
  uint32_t Steps = 0;
  bool Ended = false; // Goto reached: the trace carries its own exit.

  auto emit = [&](SuperOp Kind, Opcode Src, uint32_t Len, int64_t A = 0,
                  int64_t B = 0, int64_t C = 0) {
    TraceOp O;
    O.Kind = Kind;
    O.Src = Src;
    O.NumSteps = static_cast<uint16_t>(Len);
    O.Pc = Pc;
    O.A = A;
    O.B = B;
    O.C = C;
    T.Ops.push_back(O);
    for (uint32_t K = 0; K < Len; ++K)
      Shape.apply(Code[Pc + K]);
    Pc += Len;
    Steps += Len;
  };
  auto emitBase = [&] {
    const Instruction &I = Code[Pc];
    emit(kBaseEncoding[static_cast<size_t>(I.Op)], I.Op, 1, I.A, I.B);
  };

  while (!Ended && Pc < N && Steps < Cfg.MaxTraceLength) {
    const Instruction &I = Code[Pc];
    const uint32_t Left = Cfg.MaxTraceLength - Steps;

    // Analysis-proven superblock extension: an instrumented allocation
    // (allochook_pre; alloc; allochook_post) whose site the escape
    // analysis proves never leaves this method keeps the trace going
    // instead of ending it. The hook superops dispatch the agent
    // callbacks with full frame sync, so the profile is byte-identical
    // to flat dispatch; escape is the admission predicate (an escaping
    // object may be relocated or observed concurrently mid-trace, so
    // those sites stay in the flat loop).
    if (I.Op == Opcode::AllocHookPre && MA && Left >= 3 && Pc + 2 < N &&
        isAllocation(Code[Pc + 1].Op) &&
        Code[Pc + 2].Op == Opcode::AllocHookPost && !MA->Types.Incomplete &&
        MA->Types.reachable(Pc + 1)) {
      const AllocSiteFact *Site = MA->Types.siteAtPc(Pc + 1);
      if (Site && !Site->escapes()) {
        emitBase(); // allochook_pre
        emitBase(); // the allocation
        emitBase(); // allochook_post
        continue;
      }
    }
    if (endsTrace(I.Op))
      break;

    // Fused idioms first, longest match wins; a pattern that does not fit
    // the remaining length budget falls back to its base encodings.
    if (I.Op == Opcode::ALoad && Left >= 4 && Pc + 3 < N &&
        Code[Pc + 1].Op == Opcode::ILoad &&
        Code[Pc + 2].Op == Opcode::ILoad &&
        Code[Pc + 3].Op == Opcode::PAStore) {
      emit(SuperOp::PAStoreLLL, Opcode::PAStore, 4, I.A, Code[Pc + 1].A,
           Code[Pc + 2].A);
      continue;
    }
    if (I.Op == Opcode::ALoad && Left >= 3 && Pc + 2 < N &&
        Code[Pc + 1].Op == Opcode::ILoad &&
        Code[Pc + 2].Op == Opcode::PALoad) {
      emit(SuperOp::PALoadLL, Opcode::PALoad, 3, I.A, Code[Pc + 1].A);
      continue;
    }
    if (I.Op == Opcode::ILoad && Left >= 4 && Pc + 3 < N &&
        Code[Pc + 1].Op == Opcode::IConst &&
        (Code[Pc + 2].Op == Opcode::IAdd ||
         Code[Pc + 2].Op == Opcode::ISub) &&
        Code[Pc + 3].Op == Opcode::IStore && Code[Pc + 3].A == I.A) {
      // Wrapping negation: isub of INT64_MIN adds INT64_MIN.
      const uint64_t K = static_cast<uint64_t>(Code[Pc + 1].A);
      int64_t Delta = static_cast<int64_t>(
          Code[Pc + 2].Op == Opcode::IAdd ? K : 0 - K);
      emit(SuperOp::IncLocal, Code[Pc + 2].Op, 4, I.A, Delta);
      continue;
    }
    if (I.Op == Opcode::ILoad && Left >= 3 && Pc + 2 < N &&
        Code[Pc + 1].Op == Opcode::ILoad && isICmpBranch(Code[Pc + 2].Op)) {
      emit(SuperOp::CmpBranchLL, Code[Pc + 2].Op, 3, I.A, Code[Pc + 1].A,
           Code[Pc + 2].A);
      continue;
    }
    // Local-vs-immediate compare: admitted only under the analysis
    // proof that the side exit elides no observable stack traffic —
    // the type-state depth at the taken target equals the depth
    // entering the pattern, so the target's frame holds exactly the
    // slots the fused form leaves materialised and nothing above them.
    // (Holds for every well-formed loop guard; the proof is what lets
    // the fused form skip the two pushes without a flat-state mismatch
    // at the deopt point.)
    if (I.Op == Opcode::ILoad && MA && Left >= 3 && Pc + 2 < N &&
        Code[Pc + 1].Op == Opcode::IConst && isICmpBranch(Code[Pc + 2].Op)) {
      uint32_t Target = static_cast<uint32_t>(Code[Pc + 2].A);
      int D0 = MA->Types.depthAt(Pc);
      if (D0 >= 0 && MA->Types.depthAt(Target) == D0) {
        emit(SuperOp::CmpBranchLI, Code[Pc + 2].Op, 3, I.A, Code[Pc + 1].A,
             Target);
        continue;
      }
    }
    if (I.Op == Opcode::ILoad && Left >= 3 && Pc + 2 < N &&
        Code[Pc + 1].Op == Opcode::IAdd &&
        Code[Pc + 2].Op == Opcode::IStore && Code[Pc + 2].A == I.A) {
      emit(SuperOp::AccumLocal, Opcode::IAdd, 3, I.A);
      continue;
    }

    Ended = isTerminal(I.Op);
    emitBase();
  }

  if (Steps < kMinTraceSteps)
    return std::nullopt;
  T.EndPc = Pc;
  T.NumSteps = Steps;
  T.MinStackDepth = static_cast<uint32_t>(std::max(0, -Shape.Min));
  uint32_t Remaining = Steps;
  for (TraceOp &O : T.Ops) {
    Remaining -= O.NumSteps;
    O.StepsAfter = Remaining;
  }
  return T;
}
