//===- Verifier.h - Class-load-time bytecode verifier -----------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Class-load-time verifier. Each method gets three steps in order:
/// structural checks (branch targets and local indices in range, code
/// ends on an unconditional control transfer so control cannot fall off
/// the end, line table sorted), then Invoke resolution and arity, then
/// the type-state pass (src/analysis/TypeState.h) for underflow, merge
/// depths and type misuse. The type-state pass's peak depth is the
/// method's max_stack, which sizes the interpreter's frames. Returns
/// diagnostics instead of aborting so tests can assert on them.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_BYTECODE_VERIFIER_H
#define DJX_BYTECODE_VERIFIER_H

#include "bytecode/ClassFile.h"

#include <string>
#include <vector>

namespace djx {

/// Problems found in a program, and each method's frame size.
struct VerifyResult {
  std::vector<std::string> Errors;
  /// Peak operand-stack depth of each verified method, the JVM's
  /// max_stack (one entry per method, in the program's method order; 0
  /// for a method whose structure or calls are unsound). It bounds every
  /// depth any execution of the method reaches.
  std::vector<uint32_t> MaxStack;
  bool ok() const { return Errors.empty(); }
};

/// Verifies every method of \p P; aggregates errors with method prefixes.
/// Invoke callees resolve within \p P, so each call's push is exact.
VerifyResult verifyProgram(const BytecodeProgram &P);

} // namespace djx

#endif // DJX_BYTECODE_VERIFIER_H
