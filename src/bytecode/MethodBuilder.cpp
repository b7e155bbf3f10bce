//===- MethodBuilder.cpp - Bytecode assembler ------------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/MethodBuilder.h"

#include <cassert>

using namespace djx;

MethodBuilder::MethodBuilder(std::string ClassName, std::string MethodName,
                             uint32_t NumArgs, uint32_t NumLocals) {
  assert(NumArgs <= NumLocals && "arguments live in local slots");
  M.ClassName = std::move(ClassName);
  M.MethodName = std::move(MethodName);
  M.NumArgs = NumArgs;
  M.NumLocals = NumLocals;
}

MethodBuilder &MethodBuilder::emit(Opcode Op, int64_t A, int64_t B) {
  assert(!Built && "builder already consumed");
  if (PendingLine != 0) {
    M.LineTable.push_back(
        LineEntry{static_cast<uint32_t>(M.Code.size()), PendingLine});
    PendingLine = 0;
  }
  M.Code.push_back(Instruction{Op, A, B});
  return *this;
}

MethodBuilder &MethodBuilder::line(uint32_t L) {
  assert(L > 0 && "line numbers are 1-based");
  PendingLine = L;
  return *this;
}

MethodBuilder &MethodBuilder::nop() { return emit(Opcode::Nop); }
MethodBuilder &MethodBuilder::iconst(int64_t V) {
  return emit(Opcode::IConst, V);
}
MethodBuilder &MethodBuilder::iload(uint32_t Slot) {
  assert(Slot < M.NumLocals && "local slot out of range");
  return emit(Opcode::ILoad, Slot);
}
MethodBuilder &MethodBuilder::istore(uint32_t Slot) {
  assert(Slot < M.NumLocals && "local slot out of range");
  return emit(Opcode::IStore, Slot);
}
MethodBuilder &MethodBuilder::aload(uint32_t Slot) {
  assert(Slot < M.NumLocals && "local slot out of range");
  return emit(Opcode::ALoad, Slot);
}
MethodBuilder &MethodBuilder::astore(uint32_t Slot) {
  assert(Slot < M.NumLocals && "local slot out of range");
  return emit(Opcode::AStore, Slot);
}
MethodBuilder &MethodBuilder::pop() { return emit(Opcode::Pop); }
MethodBuilder &MethodBuilder::dup() { return emit(Opcode::Dup); }
MethodBuilder &MethodBuilder::swap() { return emit(Opcode::Swap); }

MethodBuilder &MethodBuilder::iadd() { return emit(Opcode::IAdd); }
MethodBuilder &MethodBuilder::isub() { return emit(Opcode::ISub); }
MethodBuilder &MethodBuilder::imul() { return emit(Opcode::IMul); }
MethodBuilder &MethodBuilder::idiv() { return emit(Opcode::IDiv); }
MethodBuilder &MethodBuilder::irem() { return emit(Opcode::IRem); }
MethodBuilder &MethodBuilder::ineg() { return emit(Opcode::INeg); }
MethodBuilder &MethodBuilder::iand() { return emit(Opcode::IAnd); }
MethodBuilder &MethodBuilder::ior() { return emit(Opcode::IOr); }
MethodBuilder &MethodBuilder::ixor() { return emit(Opcode::IXor); }
MethodBuilder &MethodBuilder::ishl() { return emit(Opcode::IShl); }
MethodBuilder &MethodBuilder::ishr() { return emit(Opcode::IShr); }

Label MethodBuilder::newLabel() {
  Label L;
  L.Id = static_cast<uint32_t>(LabelBci.size());
  LabelBci.push_back(~0U);
  return L;
}

MethodBuilder &MethodBuilder::bind(Label L) {
  assert(L.Id < LabelBci.size() && "unknown label");
  assert(LabelBci[L.Id] == ~0U && "label bound twice");
  LabelBci[L.Id] = static_cast<uint32_t>(M.Code.size());
  return *this;
}

MethodBuilder &MethodBuilder::emitBranch(Opcode Op, Label L) {
  assert(L.Id < LabelBci.size() && "unknown label");
  Fixups.emplace_back(M.Code.size(), L.Id);
  return emit(Op, -1);
}

MethodBuilder &MethodBuilder::jmp(Label L) {
  return emitBranch(Opcode::Goto, L);
}
MethodBuilder &MethodBuilder::ifEq(Label L) {
  return emitBranch(Opcode::IfEq, L);
}
MethodBuilder &MethodBuilder::ifNe(Label L) {
  return emitBranch(Opcode::IfNe, L);
}
MethodBuilder &MethodBuilder::ifLt(Label L) {
  return emitBranch(Opcode::IfLt, L);
}
MethodBuilder &MethodBuilder::ifGe(Label L) {
  return emitBranch(Opcode::IfGe, L);
}
MethodBuilder &MethodBuilder::ifICmp(Opcode CmpOp, Label L) {
  assert(isICmpBranch(CmpOp) && "not a compare-branch opcode");
  return emitBranch(CmpOp, L);
}
MethodBuilder &MethodBuilder::ifNull(Label L) {
  return emitBranch(Opcode::IfNull, L);
}
MethodBuilder &MethodBuilder::ifNonNull(Label L) {
  return emitBranch(Opcode::IfNonNull, L);
}

MethodBuilder &MethodBuilder::newObject(int64_t TypeId) {
  return emit(Opcode::New, TypeId);
}
MethodBuilder &MethodBuilder::newArray(int64_t ArrayTypeId) {
  return emit(Opcode::NewArray, ArrayTypeId);
}
MethodBuilder &MethodBuilder::aNewArray(int64_t RefArrayTypeId) {
  return emit(Opcode::ANewArray, RefArrayTypeId);
}
MethodBuilder &MethodBuilder::multiANewArray(int64_t LeafArrayTypeId,
                                             uint32_t Dims) {
  assert(Dims >= 1 && "need at least one dimension");
  return emit(Opcode::MultiANewArray, LeafArrayTypeId, Dims);
}

MethodBuilder &MethodBuilder::paLoad() { return emit(Opcode::PALoad); }
MethodBuilder &MethodBuilder::paStore() { return emit(Opcode::PAStore); }
MethodBuilder &MethodBuilder::aaLoad() { return emit(Opcode::AALoad); }
MethodBuilder &MethodBuilder::aaStore() { return emit(Opcode::AAStore); }
MethodBuilder &MethodBuilder::arrayLength() {
  return emit(Opcode::ArrayLength);
}
MethodBuilder &MethodBuilder::getField(uint64_t Offset, uint32_t Width) {
  assert((Width == 4 || Width == 8) && "field width must be 4 or 8");
  return emit(Opcode::GetField, static_cast<int64_t>(Offset), Width);
}
MethodBuilder &MethodBuilder::putField(uint64_t Offset, uint32_t Width) {
  assert((Width == 4 || Width == 8) && "field width must be 4 or 8");
  return emit(Opcode::PutField, static_cast<int64_t>(Offset), Width);
}
MethodBuilder &MethodBuilder::getRefField(uint64_t Offset) {
  return emit(Opcode::GetRefField, static_cast<int64_t>(Offset));
}
MethodBuilder &MethodBuilder::putRefField(uint64_t Offset) {
  return emit(Opcode::PutRefField, static_cast<int64_t>(Offset));
}

MethodBuilder &MethodBuilder::invoke(const std::string &QualifiedCallee,
                                     uint32_t NumArgs) {
  int64_t Index = static_cast<int64_t>(M.CalleeRefs.size());
  M.CalleeRefs.push_back(QualifiedCallee);
  return emit(Opcode::Invoke, Index, NumArgs);
}

MethodBuilder &MethodBuilder::ret() { return emit(Opcode::Return); }
MethodBuilder &MethodBuilder::iret() { return emit(Opcode::IReturn); }
MethodBuilder &MethodBuilder::aret() { return emit(Opcode::AReturn); }

uint32_t MethodBuilder::currentBci() const {
  return static_cast<uint32_t>(M.Code.size());
}

BytecodeMethod MethodBuilder::build() {
  assert(!Built && "build() called twice");
  for (auto &[InstIndex, LabelId] : Fixups) {
    assert(LabelBci[LabelId] != ~0U && "unbound label at build()");
    M.Code[InstIndex].A = LabelBci[LabelId];
  }
  Built = true;
  return std::move(M);
}
