//===- ClassFile.cpp - Bytecode methods, classes, programs -----------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/ClassFile.h"

#include "bytecode/Verifier.h"
#include "jvm/JavaVm.h"
#include "support/VmError.h"

#include <cassert>
#include <unordered_map>

using namespace djx;

size_t BytecodeProgram::addClass(ClassFile C) {
  assert(!Loaded && "cannot add classes after load()");
  Classes.push_back(std::move(C));
  return Classes.size() - 1;
}

void BytecodeProgram::load(JavaVm &Vm) {
  assert(!Loaded && "program already loaded");
  // Class-load-time verification: reject malformed programs (bad operand
  // counts, out-of-range jump targets, arity mismatches) with a typed
  // error before any of it can reach the interpreter's asserts. Its
  // type-state pass also sizes every method's frame (MaxStack).
  VerifyResult VR = verifyProgram(*this);
  if (!VR.ok()) {
    std::string Msg = "program verification failed: ";
    for (size_t I = 0; I < VR.Errors.size(); ++I) {
      if (I) {
        if (I >= 4) {
          Msg += "; (+" + std::to_string(VR.Errors.size() - I) + " more)";
          break;
        }
        Msg += "; ";
      }
      Msg += VR.Errors[I];
    }
    throw VmError(VmErrorKind::InvalidBytecode, Msg);
  }
  std::unordered_map<std::string, size_t> NameToIndex;
  for (size_t CI = 0; CI < Classes.size(); ++CI) {
    ClassFile &C = Classes[CI];
    for (size_t MI = 0; MI < C.Methods.size(); ++MI) {
      BytecodeMethod &M = C.Methods[MI];
      assert(M.ClassName == C.Name && "method/class name mismatch");
      size_t Index = MethodList.size();
      bool Fresh = NameToIndex.emplace(M.qualifiedName(), Index).second;
      (void)Fresh;
      assert(Fresh && "duplicate method name in program");
      MethodList.emplace_back(CI, MI);
      M.RegistryId =
          Vm.methods().registerMethod(M.ClassName, M.MethodName, M.LineTable);
      M.MaxStack = VR.MaxStack[Index];
    }
  }
  // Link Invoke sites: rewrite A from a CalleeRefs index to the global
  // method index.
  for (auto &[CI, MI] : MethodList) {
    BytecodeMethod &M = Classes[CI].Methods[MI];
    for (Instruction &I : M.Code) {
      if (I.Op != Opcode::Invoke)
        continue;
      assert(I.A >= 0 &&
             static_cast<size_t>(I.A) < M.CalleeRefs.size() &&
             "bad callee table index");
      const std::string &Callee = M.CalleeRefs[I.A];
      auto It = NameToIndex.find(Callee);
      assert(It != NameToIndex.end() && "unresolved callee");
      I.A = static_cast<int64_t>(It->second);
    }
  }
  Loaded = true;
}

size_t BytecodeProgram::methodIndex(const std::string &QualifiedName) const {
  assert(Loaded && "program not loaded");
  for (size_t I = 0; I < MethodList.size(); ++I)
    if (method(I).qualifiedName() == QualifiedName)
      return I;
  assert(false && "unknown method");
  return 0;
}

BytecodeMethod &BytecodeProgram::method(size_t Index) {
  assert(Index < MethodList.size() && "method index out of range");
  auto &[CI, MI] = MethodList[Index];
  return Classes[CI].Methods[MI];
}

const BytecodeMethod &BytecodeProgram::method(size_t Index) const {
  assert(Index < MethodList.size() && "method index out of range");
  const auto &[CI, MI] = MethodList[Index];
  return Classes[CI].Methods[MI];
}
