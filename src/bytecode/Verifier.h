//===- Verifier.h - Structural bytecode checks ------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight structural verifier run before a method executes or is
/// instrumented: branch targets in range, local indices in range, code
/// ends on an unconditional control transfer (so control cannot fall off
/// the end), line table sorted, and no operand-stack underflow. Its
/// depth pass also yields each method's max_stack, which sizes the
/// interpreter's frames. Returns diagnostics instead of aborting so tests
/// can assert on them.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_BYTECODE_VERIFIER_H
#define DJX_BYTECODE_VERIFIER_H

#include "bytecode/ClassFile.h"

#include <string>
#include <vector>

namespace djx {

/// Structural problems found in one method, and its frame size.
struct VerifyResult {
  std::vector<std::string> Errors;
  /// Peak operand-stack depth of each verified method, the JVM's
  /// max_stack (one entry per method, in the program's method order; 0
  /// for a method whose structure is unsound). It bounds every depth
  /// any execution of the method reaches.
  std::vector<uint32_t> MaxStack;
  bool ok() const { return Errors.empty(); }
};

/// Verifies one method body. Without a program an Invoke's callee is
/// unknown, so it counts as maybe pushing a value.
VerifyResult verifyMethod(const BytecodeMethod &M);

/// Verifies every method of \p P; aggregates errors with method prefixes.
/// Invoke pushes are exact here: each callee's return kind is known.
VerifyResult verifyProgram(const BytecodeProgram &P);

} // namespace djx

#endif // DJX_BYTECODE_VERIFIER_H
