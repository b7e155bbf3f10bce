//===- TraceCompiler.h - Hot-trace superinstruction compiler ----*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second execution tier's compiler: turns a hot straight-line
/// bytecode region (a superblock starting at one entry pc) into a
/// sequence of superinstructions the interpreter executes without
/// per-opcode dispatch overhead. Shape analysis reuses the opcode
/// table's stack effects to compute the trace's operand floor; the
/// analysis-proven forms take their proofs (stack depths, escape) from
/// the method's type-state analysis (src/analysis/MethodAnalysis.h).
///
/// Legality is deliberately conservative — a trace must be
/// observationally equivalent to flat dispatch, instruction by
/// instruction, under every profiling observer:
///  - Invoke / Return* / AllocHook* end trace formation (frame switches
///    and agent hook dispatches stay in the flat loop).
///  - Conditional branches are *side exits*: fall-through continues the
///    trace, taken deopts back to the flat loop at the target.
///  - Goto terminates the trace with an exit to its target.
///  - Allocations are included (they dominate the catalog's hot loops)
///    but compile to ops that sync frame state first, preserving the
///    peek-then-commit contract so a GcRequest unwind re-executes the
///    faulting instruction in the flat loop.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_BYTECODE_TRACECOMPILER_H
#define DJX_BYTECODE_TRACECOMPILER_H

#include "bytecode/ClassFile.h"

#include <optional>
#include <string>
#include <vector>

namespace djx {

/// Which tier executes bytecode (`--tier {interp,super}`).
enum class ExecTier : uint8_t {
  Interp, ///< Flat dispatch loop only (the reference semantics).
  Super,  ///< Hot-region detection + superinstruction traces.
};

/// Tier selection plus the tuning knobs the CLI exposes.
struct TierConfig {
  ExecTier Tier = ExecTier::Interp;
  /// Flat dispatches of a trace-head pc before it compiles
  /// (`--hot-threshold`). Counted per interpreter, per (method, pc).
  uint32_t HotThreshold = 16;
  /// Cap on constituent instructions per trace (`--max-trace-len`).
  uint32_t MaxTraceLength = 64;
};

/// "interp" / "super".
const char *execTierName(ExecTier Tier);

/// Parses an ExecTier name; returns false (Out untouched) when unknown.
bool parseExecTier(const std::string &Name, ExecTier &Out);

/// Superinstruction kinds. The base kinds mirror single opcodes (minus
/// dispatch overhead); the fused kinds collapse the multi-opcode idioms
/// the workload catalog's hot loops are built from.
enum class SuperOp : uint8_t {
  Nop,
  IConst,     ///< A = immediate.
  ILoad,      ///< A = local slot.
  ALoad,      ///< A = local slot.
  IStore,     ///< A = local slot.
  AStore,     ///< A = local slot.
  PopV,
  DupV,
  SwapV,
  Alu,        ///< Src selects IAdd..IShr.
  INeg,
  Br,         ///< Side exit. Src selects the If*; A = taken target.
  GotoExit,   ///< Unconditional exit; A = target.
  Access,     ///< Simulated memory access; Src selects the opcode,
              ///< A/B carry its immediates (field offset/width).
  Alloc,      ///< Allocation; Src selects the opcode, A = TypeId,
              ///< B = MultiANewArray dim count.
  // --- Fused idioms -----------------------------------------------------
  CmpBranchLL, ///< iload A; iload B; if_icmp<Src> C  (side exit).
  IncLocal,    ///< iload A; iconst; iadd/isub; istore A  => L[A] += B.
  AccumLocal,  ///< iload A; iadd; istore A  => L[A] += pop().
  PALoadLL,    ///< aload A; iload B; paload  (one simulated access).
  PAStoreLLL,  ///< aload A; iload B; iload C; pastore  (one access).
  // --- Analysis-proven forms (emitted only with a MethodAnalysis) -------
  CmpBranchLI, ///< iload A; iconst B; if_icmp<Src> C  (side exit);
               ///< admitted via the type-state depth proof at C.
  HookPre,     ///< allochook_pre, A = site id; dispatches the agent
               ///< hook with full frame sync, exactly as flat dispatch.
  HookPost,    ///< allochook_post, A = site id (peeks the fresh ref).
};

/// One compiled superinstruction.
struct TraceOp {
  SuperOp Kind = SuperOp::Nop;
  /// Source opcode (selector for Alu/Br/Access/Alloc/CmpBranchLL;
  /// informational for the rest).
  Opcode Src = Opcode::Nop;
  /// Constituent flat instructions this op retires — its step and
  /// dispatch-tick charge.
  uint16_t NumSteps = 1;
  /// Bci of the first constituent.
  uint32_t Pc = 0;
  /// Constituents retired by the ops after this one when the trace runs
  /// to its fall-through end; the executing tier's post-allocation
  /// budget check uses it to decide whether to deopt.
  uint32_t StepsAfter = 0;
  int64_t A = 0;
  int64_t B = 0;
  int64_t C = 0;
};

/// One compiled trace: the superblock's ops plus the static shape facts
/// the executing tier needs.
struct CompiledTrace {
  uint32_t EntryPc = 0;
  /// Flat pc after the last constituent (the fall-through exit target).
  uint32_t EndPc = 0;
  /// Total constituent instructions when the trace runs end-to-end; the
  /// quantum/step-deadline admission check charges this worst case.
  uint32_t NumSteps = 0;
  /// Operands consumed below the entry depth (entry Sp must cover it).
  uint32_t MinStackDepth = 0;
  std::vector<TraceOp> Ops;
};

struct MethodAnalysis;

/// Compiles the superblock starting at \p EntryPc in \p M. Returns
/// nullopt when the region is too short to pay for trace entry (the
/// site is dead — e.g. the pc sits right before an Invoke).
///
/// \p MA, when given, unlocks the analysis-proven forms: superblocks
/// extend across allocation sites the escape analysis proves
/// non-escaping (HookPre/Alloc/HookPost instead of ending the trace),
/// and CmpBranchLI side exits are admitted where the type-state depth
/// at the target matches the pattern entry. The super tier always
/// passes its method's analysis; null \p MA gives the purely syntactic
/// compiler the unit tests compare against. A proof that does not hold
/// falls back to the base encodings, so traces stay observationally
/// identical to flat dispatch either way.
std::optional<CompiledTrace> compileTrace(const BytecodeMethod &M,
                                          uint32_t EntryPc,
                                          const TierConfig &Cfg,
                                          const MethodAnalysis *MA = nullptr);

} // namespace djx

#endif // DJX_BYTECODE_TRACECOMPILER_H
