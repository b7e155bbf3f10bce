//===- Opcode.h - MiniJVM bytecode instruction set --------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stack-machine instruction set executed by the interpreter. It is a
/// compact subset of JVM bytecode sufficient for the paper's workload
/// kernels, and crucially contains the four object-allocation opcodes the
/// Java agent instruments (§4.1): New, NewArray, ANewArray and
/// MultiANewArray. AllocHookPre/AllocHookPost are the pseudo-instructions
/// the ASM-style instrumenter inserts around them.
///
/// Every opcode fact below is generated from the rows of Opcodes.def.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_BYTECODE_OPCODE_H
#define DJX_BYTECODE_OPCODE_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace djx {

/// Bytecode operation codes; Opcodes.def documents each one's operands.
enum class Opcode : uint8_t {
#define OPCODE(Name, Mnemonic, Pops, Pushes, Format, Super, Flags) Name,
#include "bytecode/Opcodes.def"
};

/// How the disassembler renders an instruction's immediates.
enum class OperandFormat : uint8_t {
  None,     ///< Nothing after the mnemonic.
  Imm,      ///< " A".
  Local,    ///< " A", a local slot index.
  Callee,   ///< The callee (name when unlinked, else "#A"), " args=B".
  Field,    ///< " off=A width=B".
  RefField, ///< " off=A".
  Dims,     ///< " leaf-type=A dims=B".
};

/// Opcodes.def Flags bits.
enum OpcodeFlags : uint8_t {
  kOpBranch = 1,     ///< A is a branch-target bci.
  kOpTerminal = 2,   ///< Control never falls through to the next bci.
  kOpAlloc = 4,      ///< One of the four allocations the agent instruments.
  kOpICmp = 8,       ///< Pops two ints and branches on their comparison.
  kOpEndsTrace = 16, ///< Frame switch or agent hook: traces stop before it.
};

/// Opcodes.def Pops value meaning "operand B of the instruction".
constexpr int8_t kPopsB = -1;

/// One Opcodes.def row, minus the trace compiler's column.
struct OpcodeInfo {
  const char *Mnemonic;
  int8_t Pops;
  uint8_t Pushes;
  OperandFormat Format;
  uint8_t Flags;
};

inline constexpr OpcodeInfo kOpcodeTable[] = {
#define OPCODE(Name, Mnemonic, Pops, Pushes, Format, Super, Flags)           \
  {Mnemonic, Pops, Pushes, OperandFormat::Format, Flags},
#include "bytecode/Opcodes.def"
};

constexpr size_t kNumOpcodes = sizeof(kOpcodeTable) / sizeof(kOpcodeTable[0]);

inline const OpcodeInfo &opcodeInfo(Opcode Op) {
  return kOpcodeTable[static_cast<size_t>(Op)];
}

/// Printable mnemonic for \p Op.
inline std::string opcodeName(Opcode Op) { return opcodeInfo(Op).Mnemonic; }

/// True for opcodes whose A operand is a branch-target BCI (needed by the
/// instrumentation framework when it remaps code).
inline bool isBranch(Opcode Op) { return opcodeInfo(Op).Flags & kOpBranch; }

/// True for opcodes after which control never falls through: the
/// returns and goto.
inline bool isTerminal(Opcode Op) {
  return opcodeInfo(Op).Flags & kOpTerminal;
}

/// True for the four allocation opcodes the Java agent instruments.
inline bool isAllocation(Opcode Op) {
  return opcodeInfo(Op).Flags & kOpAlloc;
}

/// True for the two-operand integer compare-and-branch opcodes.
inline bool isICmpBranch(Opcode Op) {
  return opcodeInfo(Op).Flags & kOpICmp;
}

/// True for the opcodes a compiled trace must stop before: frame
/// switches and agent hook dispatches execute only in the flat loop.
inline bool endsTrace(Opcode Op) {
  return opcodeInfo(Op).Flags & kOpEndsTrace;
}

/// Operands \p Op pops when its B immediate is \p B.
inline unsigned opcodePops(Opcode Op, int64_t B) {
  int8_t Pops = opcodeInfo(Op).Pops;
  if (Pops != kPopsB)
    return static_cast<unsigned>(Pops);
  return B > 0 ? static_cast<unsigned>(B) : 0u;
}

/// One decoded instruction.
struct Instruction {
  Opcode Op = Opcode::Nop;
  int64_t A = 0;
  int64_t B = 0;
};

/// Static stack effect of one instruction: operands popped and results
/// pushed. Invoke is the one opcode whose push count depends on the
/// callee (void vs value return) and is handled by the caller.
struct StackEffect {
  unsigned Pops = 0;
  unsigned Pushes = 0;
};

/// The stack-effect table behind the verifier's depth dataflow; also the
/// trace compiler's shape analysis (a trace's operand floor and peak
/// growth are running sums of these).
inline StackEffect instructionStackEffect(const Instruction &Inst) {
  return {opcodePops(Inst.Op, Inst.B), opcodeInfo(Inst.Op).Pushes};
}

} // namespace djx

#endif // DJX_BYTECODE_OPCODE_H
