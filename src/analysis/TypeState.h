//===- TypeState.h - Abstract stack/locals type inference -------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward dataflow over an abstract interpreter state: operand stack
/// and locals, each slot an AbsValue over the Int/Ref/ArrayRef/Top
/// lattice (refined with null/zero knowledge so the checks exactly
/// mirror the flat dispatch loop's runtime asserts). Like the JVM's
/// StackMapTable, the result keeps frames only at basic-block heads,
/// plus one stack depth per pc: per-block frames, per-pc depths.
/// References also carry the set of in-method allocation sites that may
/// have produced them, which makes allocation-site escape analysis a
/// by-product of the same fixpoint: a site escapes its method when one
/// of its values is stored into the heap, returned, or passed to a
/// callee.
///
/// Error policy is *definite misuse only*: an operand is flagged when no
/// possible concrete value it abstracts satisfies the opcode (zero
/// false positives on valid code by construction — Top is never an
/// error). It is the only stack-depth dataflow: the Verifier takes
/// underflow, merge-depth and type checks from it, and each method's
/// max_stack (the peak depth it reaches); the TraceCompiler consults it
/// to prove fusions and hook-spanning traces safe.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_ANALYSIS_TYPESTATE_H
#define DJX_ANALYSIS_TYPESTATE_H

#include "analysis/Cfg.h"

#include <functional>
#include <string>
#include <vector>

namespace djx {

/// One abstract slot: the set of runtime tag shapes the value may have,
/// plus the allocation sites (bit N = the method's Nth allocation
/// instruction) that may have produced it when it can be a reference.
struct AbsValue {
  // A slot's concrete runtime shape is one of: an int-tagged zero (also
  // legal for aload — the interpreter treats it as null), an int-tagged
  // nonzero, a ref-tagged null, a plain object ref, or an array ref.
  static constexpr uint8_t kIntZero = 1;
  static constexpr uint8_t kIntNZ = 2;
  static constexpr uint8_t kNull = 4;
  static constexpr uint8_t kObj = 8;
  static constexpr uint8_t kArr = 16;
  static constexpr uint8_t kIntAny = kIntZero | kIntNZ;
  static constexpr uint8_t kRefAny = kNull | kObj | kArr;
  static constexpr uint8_t kTop = kIntAny | kRefAny;

  uint8_t Tags = 0; ///< Empty set = bottom (unreachable).
  uint64_t Sites = 0;

  static AbsValue top() { return {kTop, 0}; }
  static AbsValue intAny() { return {kIntAny, 0}; }
  static AbsValue intConst(int64_t V) {
    return {V == 0 ? kIntZero : kIntNZ, 0};
  }
  static AbsValue refAny() { return {kRefAny, 0}; }
  static AbsValue make(uint8_t Tags, uint64_t Sites = 0) {
    return {Tags, Sites};
  }

  bool mayInt() const { return (Tags & kIntAny) != 0; }
  bool mayRefTagged() const { return (Tags & kRefAny) != 0; }
  bool mayObject() const { return (Tags & (kObj | kArr)) != 0; }
  bool mayArray() const { return (Tags & kArr) != 0; }
  /// May this slot satisfy the interpreter's aload assert
  /// (IsRef || Bits == 0)?
  bool mayALoad() const { return (Tags & (kRefAny | kIntZero)) != 0; }

  bool join(const AbsValue &O) {
    uint8_t T = Tags | O.Tags;
    uint64_t S = Sites | O.Sites;
    bool Changed = T != Tags || S != Sites;
    Tags = T;
    Sites = S;
    return Changed;
  }

  /// Compact rendering for diagnostics: "int", "null", "obj@{1}",
  /// "arr", "int|null", "top", ...
  std::string str() const;
};

/// Abstract frame at one program point: locals and the operand stack
/// (bottom up).
struct AbsFrame {
  std::vector<AbsValue> Locals;
  std::vector<AbsValue> Stack;
  bool Reachable = false;
};

/// How an allocation site's object leaves its allocating method.
enum EscapeRoute : uint8_t {
  kEscStore = 1,  ///< Stored into the heap (putreffield / aastore).
  kEscReturn = 2, ///< Returned (areturn).
  kEscCall = 4,   ///< Passed as an Invoke argument.
};

/// "none" or a "+"-joined route list ("store+call").
std::string escapeRoutesStr(uint8_t Routes);

/// Static facts about one allocation instruction, in code order.
struct AllocSiteFact {
  uint32_t Pc = 0; ///< Pc of the allocation opcode itself.
  Opcode Op = Opcode::Nop;
  uint8_t Routes = 0;
  /// False when the method has more sites than the 64-bit site mask
  /// tracks; such a site is conservatively treated as escaping.
  bool Tracked = true;
  bool escapes() const { return !Tracked || Routes != 0; }
};

struct TypeStateError {
  uint32_t Pc = 0;
  std::string Msg; ///< Includes the rendered inferred state.
};

/// Resolves an Invoke instruction to its callee, or null when unknown.
using CalleeResolver =
    std::function<const BytecodeMethod *(const Instruction &)>;

struct TypeStateResult {
  /// An Invoke could not be resolved: states downstream of it are
  /// missing and reachability is partial (no unreachable-code claims).
  bool Incomplete = false;
  /// The stack map: the fixpoint's in-state per basic block, indexed
  /// like Cfg::blocks(); Reachable=false where it never arrived.
  std::vector<AbsFrame> BlockIn;
  /// Operand-stack depth entering each pc; -1 where never reached.
  std::vector<int32_t> Depth;
  std::vector<TypeStateError> Errors;
  /// Per allocation instruction, in code order (bit N of a value's site
  /// mask refers to Sites[N]).
  std::vector<AllocSiteFact> Sites;
  /// Peak operand-stack depth after any reached instruction: the JVM's
  /// max_stack, the operand slots the method's frame must reserve.
  uint32_t MaxStack = 0;

  bool reachable(uint32_t Pc) const { return depthAt(Pc) >= 0; }
  /// Operand-stack depth entering \p Pc; -1 when unreachable/unknown.
  int depthAt(uint32_t Pc) const {
    return Pc < Depth.size() ? Depth[Pc] : -1;
  }
  /// The site fact whose allocation opcode sits at \p Pc, if any.
  const AllocSiteFact *siteAtPc(uint32_t Pc) const;
};

/// Deepest operand stack a method may build, which bounds the size of
/// one frame. A deeper one is rejected at the pc that first exceeds it,
/// and neither frames nor depths are recorded for the method.
constexpr uint32_t kMaxStackDepth = 1 << 16;

/// Runs the type-state fixpoint over \p M. \p Resolve may be null: any
/// Invoke then marks the result Incomplete (facts before it are valid).
TypeStateResult inferTypeStates(const BytecodeMethod &M, const Cfg &G,
                                const CalleeResolver &Resolve = nullptr);

} // namespace djx

#endif // DJX_ANALYSIS_TYPESTATE_H
