//===- MethodBuilder.h - Bytecode assembler ---------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fluent assembler for BytecodeMethod bodies, with forward-reference
/// labels and a line-number marker that populates the BCI -> line table
/// DJXPerf resolves through GetLineNumberTable.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_BYTECODE_METHODBUILDER_H
#define DJX_BYTECODE_METHODBUILDER_H

#include "bytecode/ClassFile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace djx {

/// Forward-referencable jump target.
struct Label {
  uint32_t Id = ~0U;
};

/// Assembles one BytecodeMethod.
class MethodBuilder {
public:
  MethodBuilder(std::string ClassName, std::string MethodName,
                uint32_t NumArgs, uint32_t NumLocals);

  // Source mapping: subsequent instructions belong to source line L.
  MethodBuilder &line(uint32_t L);

  // Constants, locals, stack.
  MethodBuilder &nop();
  MethodBuilder &iconst(int64_t V);
  MethodBuilder &iload(uint32_t Slot);
  MethodBuilder &istore(uint32_t Slot);
  MethodBuilder &aload(uint32_t Slot);
  MethodBuilder &astore(uint32_t Slot);
  MethodBuilder &pop();
  MethodBuilder &dup();
  MethodBuilder &swap();

  // Arithmetic.
  MethodBuilder &iadd();
  MethodBuilder &isub();
  MethodBuilder &imul();
  MethodBuilder &idiv();
  MethodBuilder &irem();
  MethodBuilder &ineg();
  MethodBuilder &iand();
  MethodBuilder &ior();
  MethodBuilder &ixor();
  MethodBuilder &ishl();
  MethodBuilder &ishr();

  // Control flow.
  Label newLabel();
  MethodBuilder &bind(Label L);
  MethodBuilder &jmp(Label L);
  MethodBuilder &ifEq(Label L);
  MethodBuilder &ifNe(Label L);
  MethodBuilder &ifLt(Label L);
  MethodBuilder &ifGe(Label L);
  MethodBuilder &ifICmp(Opcode CmpOp, Label L);
  MethodBuilder &ifNull(Label L);
  MethodBuilder &ifNonNull(Label L);

  // Allocation.
  MethodBuilder &newObject(int64_t TypeId);
  MethodBuilder &newArray(int64_t ArrayTypeId);
  MethodBuilder &aNewArray(int64_t RefArrayTypeId);
  MethodBuilder &multiANewArray(int64_t LeafArrayTypeId, uint32_t Dims);

  // Arrays and fields.
  MethodBuilder &paLoad();
  MethodBuilder &paStore();
  MethodBuilder &aaLoad();
  MethodBuilder &aaStore();
  MethodBuilder &arrayLength();
  MethodBuilder &getField(uint64_t Offset, uint32_t Width);
  MethodBuilder &putField(uint64_t Offset, uint32_t Width);
  MethodBuilder &getRefField(uint64_t Offset);
  MethodBuilder &putRefField(uint64_t Offset);

  // Calls and returns.
  MethodBuilder &invoke(const std::string &QualifiedCallee, uint32_t NumArgs);
  MethodBuilder &ret();
  MethodBuilder &iret();
  MethodBuilder &aret();

  /// Current BCI (index of the next instruction).
  uint32_t currentBci() const;

  /// Finalises the method; asserts all labels are bound.
  BytecodeMethod build();

private:
  MethodBuilder &emit(Opcode Op, int64_t A = 0, int64_t B = 0);
  MethodBuilder &emitBranch(Opcode Op, Label L);

  BytecodeMethod M;
  /// Label id -> bound BCI (or ~0U while unbound).
  std::vector<uint32_t> LabelBci;
  /// (instruction index, label id) fixups.
  std::vector<std::pair<size_t, uint32_t>> Fixups;
  uint32_t PendingLine = 0;
  bool Built = false;
};

} // namespace djx

#endif // DJX_BYTECODE_METHODBUILDER_H
