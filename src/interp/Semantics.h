//===- Semantics.h - Per-opcode semantics shared by both tiers --*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one statement of what the value-level opcodes do. The flat loop
/// (Interpreter.cpp) and the trace executor (SuperTier.cpp) both call
/// these handlers; each executor keeps its own dispatch and step / tick
/// / bci accounting. A handler that works on the operand stack
/// [S, S + Sp) never grows it (each such opcode pops at least as many
/// slots as it pushes); every push the executors do lands inside the
/// frame's verified max_stack reservation.
///
/// Integer arithmetic is the JVM's 64-bit long arithmetic: add, sub, mul,
/// neg and shl wrap, MIN / -1 is MIN and MIN % -1 is 0 (ladd, ldiv, lrem).
///
/// Everything here is inline, and optimised builds force it: the build
/// has no LTO, and both executors' translation units must inline the
/// handlers into their dispatch loops (GCC would otherwise keep
/// execAccess out of line). Unoptimised builds keep one shared copy of
/// each handler, so coverage counts its branches once. A handler called
/// with a constant Opcode folds its inner switch away.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_INTERP_SEMANTICS_H
#define DJX_INTERP_SEMANTICS_H

#include "interp/Interpreter.h"

#include <cassert>
#include <vector>

/// Forces inlining in optimised builds; also usable on a lambda, after
/// its parameter list.
#if defined(__GNUC__) && defined(__OPTIMIZE__)
#define DJX_FORCE_INLINE __attribute__((always_inline))
#else
#define DJX_FORCE_INLINE
#endif
#define DJX_ALWAYS_INLINE inline DJX_FORCE_INLINE

namespace djx {

static_assert(kNullRef == 0, "branchTaken compares null references as 0");

/// The result of ALU opcode \p Op (iadd .. ishr, or ineg of \p A).
DJX_ALWAYS_INLINE int64_t aluResult(Opcode Op, int64_t A, int64_t B) {
  const uint64_t UA = static_cast<uint64_t>(A);
  const uint64_t UB = static_cast<uint64_t>(B);
  switch (Op) {
  case Opcode::IAdd:
    return static_cast<int64_t>(UA + UB);
  case Opcode::ISub:
    return static_cast<int64_t>(UA - UB);
  case Opcode::IMul:
    return static_cast<int64_t>(UA * UB);
  case Opcode::INeg:
    return static_cast<int64_t>(0 - UA);
  case Opcode::IDiv:
    assert(B != 0 && "division by zero");
    return B == -1 ? static_cast<int64_t>(0 - UA) : A / B;
  case Opcode::IRem:
    assert(B != 0 && "remainder by zero");
    return B == -1 ? 0 : A % B;
  case Opcode::IAnd:
    return A & B;
  case Opcode::IOr:
    return A | B;
  case Opcode::IXor:
    return A ^ B;
  case Opcode::IShl:
    return static_cast<int64_t>(UA << (B & 63));
  case Opcode::IShr:
    return A >> (B & 63);
  default:
    assert(false && "not an ALU opcode");
    return 0;
  }
}

/// Applies ALU opcode \p Op to the top of the operand stack in place.
DJX_ALWAYS_INLINE void applyAlu(Opcode Op, Value *S, uint32_t &Sp) {
  if (Op == Opcode::INeg) {
    assert(Sp > 0 && "operand stack underflow");
    S[Sp - 1] = Value::fromInt(aluResult(Op, S[Sp - 1].asInt(), 0));
    return;
  }
  assert(Sp > 1 && "operand stack underflow");
  --Sp;
  S[Sp - 1] = Value::fromInt(aluResult(Op, S[Sp - 1].asInt(), S[Sp].asInt()));
}

/// Whether conditional branch \p Op is taken: the if<cond> forms compare
/// \p A with zero (a null reference is zero), the if_icmp<cond> forms
/// compare \p A with \p B.
DJX_ALWAYS_INLINE bool branchTaken(Opcode Op, int64_t A, int64_t B = 0) {
  switch (Op) {
  case Opcode::IfEq:
  case Opcode::IfNull:
  case Opcode::IfICmpEq:
    return A == B;
  case Opcode::IfNe:
  case Opcode::IfNonNull:
  case Opcode::IfICmpNe:
    return A != B;
  case Opcode::IfLt:
  case Opcode::IfICmpLt:
    return A < B;
  case Opcode::IfGe:
  case Opcode::IfICmpGe:
    return A >= B;
  case Opcode::IfICmpGt:
    return A > B;
  case Opcode::IfICmpLe:
    return A <= B;
  default:
    assert(false && "not a conditional branch");
    return false;
  }
}

/// Pops conditional branch \p Op's operands and decides it.
DJX_ALWAYS_INLINE bool popBranch(Opcode Op, const Value *S, uint32_t &Sp) {
  assert(Sp >= opcodePops(Op, 0) && "operand stack underflow");
  if (isICmpBranch(Op)) {
    Sp -= 2;
    return branchTaken(Op, S[Sp].asInt(), S[Sp + 1].asInt());
  }
  return branchTaken(Op, S[--Sp].asInt());
}

/// Loads element \p Idx of primitive array \p Arr at its element width
/// (one simulated access).
DJX_ALWAYS_INLINE uint64_t loadPrimElement(JavaVm &Vm, JavaThread &T,
                                           ObjectRef Arr, int64_t Idx) {
  const ObjectInfo &Info = Vm.objectInfo(T, Arr);
  const TypeDescriptor &Desc = Vm.objectType(T, Arr);
  assert(Desc.IsArray && !Desc.ElemIsRef && "paload needs a prim array");
  assert(Idx >= 0 && static_cast<uint64_t>(Idx) < Info.Length &&
         "array index out of bounds");
  (void)Info;
  uint64_t Off = static_cast<uint64_t>(Idx) * Desc.ElemSize;
  if (Desc.ElemSize == 1)
    return Vm.readU8(T, Arr, Off);
  if (Desc.ElemSize == 4)
    return Vm.readU32(T, Arr, Off);
  return Vm.readWord(T, Arr, Off);
}

/// Stores \p V, truncated to the element width, into element \p Idx of
/// primitive array \p Arr (one simulated access).
DJX_ALWAYS_INLINE void storePrimElement(JavaVm &Vm, JavaThread &T,
                                        ObjectRef Arr, int64_t Idx,
                                        uint64_t V) {
  const ObjectInfo &Info = Vm.objectInfo(T, Arr);
  const TypeDescriptor &Desc = Vm.objectType(T, Arr);
  assert(Desc.IsArray && !Desc.ElemIsRef && "pastore needs a prim array");
  assert(Idx >= 0 && static_cast<uint64_t>(Idx) < Info.Length &&
         "array index out of bounds");
  (void)Info;
  uint64_t Off = static_cast<uint64_t>(Idx) * Desc.ElemSize;
  if (Desc.ElemSize == 1)
    Vm.writeU8(T, Arr, Off, static_cast<uint8_t>(V));
  else if (Desc.ElemSize == 4)
    Vm.writeU32(T, Arr, Off, static_cast<uint32_t>(V));
  else
    Vm.writeWord(T, Arr, Off, V);
}

/// Checks (debug builds) that \p Arr is a reference array holding \p Idx.
DJX_ALWAYS_INLINE void checkRefElement(JavaVm &Vm, JavaThread &T,
                                       ObjectRef Arr, int64_t Idx) {
#ifndef NDEBUG
  const ObjectInfo &Info = Vm.objectInfo(T, Arr);
  assert(Vm.objectType(T, Arr).ElemIsRef && "aaload/aastore need ref array");
  assert(Idx >= 0 && static_cast<uint64_t>(Idx) < Info.Length &&
         "array index out of bounds");
#else
  (void)Vm, (void)T, (void)Arr, (void)Idx;
#endif
}

/// Executes memory-access opcode \p Op (paload .. putreffield; \p A is a
/// field offset, \p B a field width) on the operand stack: pops its
/// operands and pushes its result in place.
DJX_ALWAYS_INLINE void execAccess(JavaVm &Vm, JavaThread &T, Opcode Op,
                                  int64_t A, int64_t B, Value *S,
                                  uint32_t &Sp) {
  assert(Sp >= opcodePops(Op, B) && "operand stack underflow");
  const uint64_t Off = static_cast<uint64_t>(A);
  switch (Op) {
  case Opcode::PALoad: {
    int64_t Idx = S[--Sp].asInt();
    ObjectRef Arr = S[--Sp].asRef();
    S[Sp++] = Value::fromInt(
        static_cast<int64_t>(loadPrimElement(Vm, T, Arr, Idx)));
    break;
  }
  case Opcode::PAStore: {
    uint64_t V = static_cast<uint64_t>(S[--Sp].asInt());
    int64_t Idx = S[--Sp].asInt();
    ObjectRef Arr = S[--Sp].asRef();
    storePrimElement(Vm, T, Arr, Idx, V);
    break;
  }
  case Opcode::AALoad: {
    int64_t Idx = S[--Sp].asInt();
    ObjectRef Arr = S[--Sp].asRef();
    checkRefElement(Vm, T, Arr, Idx);
    S[Sp++] = Value::fromRef(
        Vm.readRef(T, Arr, static_cast<uint64_t>(Idx) * 8));
    break;
  }
  case Opcode::AAStore: {
    ObjectRef V = S[--Sp].asRef();
    int64_t Idx = S[--Sp].asInt();
    ObjectRef Arr = S[--Sp].asRef();
    checkRefElement(Vm, T, Arr, Idx);
    Vm.writeRef(T, Arr, static_cast<uint64_t>(Idx) * 8, V);
    break;
  }
  case Opcode::ArrayLength: {
    ObjectRef Arr = S[--Sp].asRef();
    // Length lives in the header word; touching it is a real access.
    Vm.readWord(T, Arr, 0);
    S[Sp++] = Value::fromInt(
        static_cast<int64_t>(Vm.objectInfo(T, Arr).Length));
    break;
  }
  case Opcode::GetField: {
    ObjectRef Obj = S[--Sp].asRef();
    uint64_t V = B == 4 ? Vm.readU32(T, Obj, Off) : Vm.readWord(T, Obj, Off);
    S[Sp++] = Value::fromInt(static_cast<int64_t>(V));
    break;
  }
  case Opcode::PutField: {
    uint64_t V = static_cast<uint64_t>(S[--Sp].asInt());
    ObjectRef Obj = S[--Sp].asRef();
    if (B == 4)
      Vm.writeU32(T, Obj, Off, static_cast<uint32_t>(V));
    else
      Vm.writeWord(T, Obj, Off, V);
    break;
  }
  case Opcode::GetRefField: {
    ObjectRef Obj = S[--Sp].asRef();
    S[Sp++] = Value::fromRef(Vm.readRef(T, Obj, Off));
    break;
  }
  case Opcode::PutRefField: {
    ObjectRef V = S[--Sp].asRef();
    ObjectRef Obj = S[--Sp].asRef();
    Vm.writeRef(T, Obj, Off, V);
    break;
  }
  default:
    assert(false && "not a memory-access opcode");
  }
}

/// Performs allocation opcode \p Op (new .. multianewarray; \p A is the
/// type, \p B the dimension count) reading its operands *without popping
/// them*, and returns the fresh reference. The caller commits afterwards
/// -- pops opcodePops(Op, B) slots and pushes the reference -- so a
/// GcRequest unwind leaves the operand stack intact and the instruction
/// re-executes cleanly after the safepoint GC.
DJX_ALWAYS_INLINE ObjectRef allocateFor(JavaVm &Vm, JavaThread &T, Opcode Op,
                                        int64_t A, int64_t B, const Value *S,
                                        uint32_t Sp) {
  const TypeId Type = static_cast<TypeId>(A);
  switch (Op) {
  case Opcode::New:
    return Vm.allocateObject(T, Type);
  case Opcode::NewArray:
  case Opcode::ANewArray: {
    assert(Sp > 0 && "operand stack underflow");
    int64_t Len = S[Sp - 1].asInt();
    assert(Len >= 0 && "negative array length");
    return Vm.allocateArray(T, Type, static_cast<uint64_t>(Len));
  }
  case Opcode::MultiANewArray: {
    // Dims are ints, so leaving them on the stack adds no GC roots.
    uint32_t NDims = static_cast<uint32_t>(B);
    assert(Sp >= NDims && "operand stack underflow");
    std::vector<uint64_t> Dims(NDims);
    for (uint32_t D = 0; D < NDims; ++D) {
      int64_t Len = S[Sp - NDims + D].asInt();
      assert(Len >= 0 && "negative array length");
      Dims[D] = static_cast<uint64_t>(Len);
    }
    return Vm.allocateMultiArray(T, Type, Dims);
  }
  default:
    assert(false && "not an allocation opcode");
    return kNullRef;
  }
}

} // namespace djx

#endif // DJX_INTERP_SEMANTICS_H
