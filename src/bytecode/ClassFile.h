//===- ClassFile.h - Bytecode methods, classes, programs --------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Containers for bytecode: a BytecodeMethod (code + line table + callee
/// references), a ClassFile grouping methods, and a BytecodeProgram that
/// links Invoke sites by qualified name and registers every method with
/// the VM's MethodRegistry (so profilers can symbolise frames).
///
//===----------------------------------------------------------------------===//

#ifndef DJX_BYTECODE_CLASSFILE_H
#define DJX_BYTECODE_CLASSFILE_H

#include "bytecode/Opcode.h"
#include "jvm/MethodRegistry.h"

#include <string>
#include <vector>

namespace djx {

class JavaVm;

/// One bytecode method body.
struct BytecodeMethod {
  std::string ClassName;
  std::string MethodName;
  std::vector<Instruction> Code;
  /// Sorted (BCI, source line) pairs.
  std::vector<LineEntry> LineTable;
  /// Number of local variable slots (arguments occupy slots 0..N-1).
  uint32_t NumLocals = 0;
  uint32_t NumArgs = 0;
  /// Qualified callee names referenced by Invoke instructions; the A
  /// operand of an unlinked Invoke indexes this table.
  std::vector<std::string> CalleeRefs;
  /// Filled by BytecodeProgram::load: the registry id for this method.
  MethodId RegistryId = kInvalidMethod;
  /// Filled by BytecodeProgram::load from the Verifier: the peak operand
  /// stack depth (the JVM's max_stack). A frame reserves this many slots
  /// above its locals, so pushes need no bounds check.
  uint32_t MaxStack = 0;

  std::string qualifiedName() const { return ClassName + "." + MethodName; }
};

/// A group of methods sharing a class name.
struct ClassFile {
  std::string Name;
  std::vector<BytecodeMethod> Methods;
};

/// A linked program: all classes, with Invoke operands resolved to global
/// method indices and methods registered in the VM's MethodRegistry.
class BytecodeProgram {
public:
  /// Adds a class before load(). Returns its index.
  size_t addClass(ClassFile C);

  /// Registers every method with \p Vm and links Invoke sites. Must be
  /// called exactly once before execution; asserts on unresolved callees.
  void load(JavaVm &Vm);

  /// True once load() has run.
  bool isLoaded() const { return Loaded; }

  /// Global method index for "Class.method"; asserts when missing.
  size_t methodIndex(const std::string &QualifiedName) const;

  BytecodeMethod &method(size_t Index);
  const BytecodeMethod &method(size_t Index) const;
  size_t numMethods() const { return MethodList.size(); }

  std::vector<ClassFile> &classes() { return Classes; }
  const std::vector<ClassFile> &classes() const { return Classes; }

private:
  std::vector<ClassFile> Classes;
  /// Flattened (class, method) indices in load order.
  std::vector<std::pair<size_t, size_t>> MethodList;
  bool Loaded = false;
};

} // namespace djx

#endif // DJX_BYTECODE_CLASSFILE_H
