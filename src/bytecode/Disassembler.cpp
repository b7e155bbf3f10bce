//===- Disassembler.cpp - Human-readable bytecode listings -----------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Disassembler.h"

#include <sstream>

using namespace djx;

namespace {

const char *superOpName(SuperOp K) {
  switch (K) {
  case SuperOp::Nop:
    return "nop";
  case SuperOp::IConst:
    return "iconst";
  case SuperOp::ILoad:
    return "iload";
  case SuperOp::ALoad:
    return "aload";
  case SuperOp::IStore:
    return "istore";
  case SuperOp::AStore:
    return "astore";
  case SuperOp::PopV:
    return "pop";
  case SuperOp::DupV:
    return "dup";
  case SuperOp::SwapV:
    return "swap";
  case SuperOp::Alu:
    return "alu";
  case SuperOp::INeg:
    return "ineg";
  case SuperOp::Br:
    return "br";
  case SuperOp::GotoExit:
    return "goto_exit";
  case SuperOp::Access:
    return "access";
  case SuperOp::Alloc:
    return "alloc";
  case SuperOp::CmpBranchLL:
    return "cmp_branch_ll";
  case SuperOp::IncLocal:
    return "inc_local";
  case SuperOp::AccumLocal:
    return "accum_local";
  case SuperOp::PALoadLL:
    return "pa_load_ll";
  case SuperOp::PAStoreLLL:
    return "pa_store_lll";
  case SuperOp::CmpBranchLI:
    return "cmp_branch_li";
  case SuperOp::HookPre:
    return "hook_pre";
  case SuperOp::HookPost:
    return "hook_post";
  }
  return "?";
}

} // namespace

std::string djx::disassemble(const BytecodeMethod &M) {
  std::ostringstream OS;
  OS << M.qualifiedName() << " (args=" << M.NumArgs
     << ", locals=" << M.NumLocals << ")\n";
  size_t LineIdx = 0;
  for (size_t Bci = 0; Bci < M.Code.size(); ++Bci) {
    while (LineIdx < M.LineTable.size() && M.LineTable[LineIdx].Bci == Bci) {
      OS << "  // line " << M.LineTable[LineIdx].Line << "\n";
      ++LineIdx;
    }
    const Instruction &I = M.Code[Bci];
    OS << "  " << Bci << ": " << opcodeName(I.Op);
    switch (opcodeInfo(I.Op).Format) {
    case OperandFormat::None:
      break;
    case OperandFormat::Imm:
    case OperandFormat::Local:
      OS << " " << I.A;
      break;
    case OperandFormat::Callee:
      if (M.RegistryId == kInvalidMethod &&
          static_cast<size_t>(I.A) < M.CalleeRefs.size())
        OS << " " << M.CalleeRefs[I.A];
      else
        OS << " #" << I.A;
      OS << " args=" << I.B;
      break;
    case OperandFormat::Field:
      OS << " off=" << I.A << " width=" << I.B;
      break;
    case OperandFormat::RefField:
      OS << " off=" << I.A;
      break;
    case OperandFormat::Dims:
      OS << " leaf-type=" << I.A << " dims=" << I.B;
      break;
    }
    OS << "\n";
  }
  return OS.str();
}

std::string djx::disassembleTrace(const BytecodeMethod &M,
                                  const CompiledTrace &T) {
  std::ostringstream OS;
  OS << "trace " << M.qualifiedName() << " @" << T.EntryPc << ": "
     << T.Ops.size() << " superops / " << T.NumSteps << " steps, exit -> "
     << T.EndPc << " (floor=" << T.MinStackDepth << ")\n";
  for (const TraceOp &O : T.Ops) {
    OS << "  " << O.Pc;
    if (O.NumSteps > 1)
      OS << ".." << (O.Pc + O.NumSteps - 1);
    OS << ": " << superOpName(O.Kind);
    switch (O.Kind) {
    case SuperOp::IConst:
      OS << " " << O.A;
      break;
    case SuperOp::ILoad:
    case SuperOp::ALoad:
    case SuperOp::IStore:
    case SuperOp::AStore:
      OS << " L" << O.A;
      break;
    case SuperOp::Alu:
    case SuperOp::Access:
      OS << " (" << opcodeName(O.Src) << ")";
      break;
    case SuperOp::Br:
      OS << " (" << opcodeName(O.Src) << ") -> " << O.A << " [side exit]";
      break;
    case SuperOp::GotoExit:
      OS << " -> " << O.A << " [exit]";
      break;
    case SuperOp::Alloc:
      OS << " (" << opcodeName(O.Src) << ") type=" << O.A;
      break;
    case SuperOp::CmpBranchLL:
      OS << " (" << opcodeName(O.Src) << ") L" << O.A << ", L" << O.B
         << " -> " << O.C << " [side exit]";
      break;
    case SuperOp::CmpBranchLI:
      OS << " (" << opcodeName(O.Src) << ") L" << O.A << ", #" << O.B
         << " -> " << O.C << " [side exit]";
      break;
    case SuperOp::HookPre:
    case SuperOp::HookPost:
      OS << " site=" << O.A;
      break;
    case SuperOp::IncLocal:
      OS << " L" << O.A << " += " << O.B;
      break;
    case SuperOp::AccumLocal:
      OS << " L" << O.A;
      break;
    case SuperOp::PALoadLL:
      OS << " arr=L" << O.A << " idx=L" << O.B;
      break;
    case SuperOp::PAStoreLLL:
      OS << " arr=L" << O.A << " idx=L" << O.B << " val=L" << O.C;
      break;
    default:
      break;
    }
    OS << "\n";
  }
  if (T.Ops.empty() || T.Ops.back().Kind != SuperOp::GotoExit)
    OS << "  " << T.EndPc << ": [fall-through]\n";
  return OS.str();
}
