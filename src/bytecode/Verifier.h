//===- Verifier.h - Structural bytecode checks ------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight structural verifier run before a method executes or is
/// instrumented: branch targets in range, local indices in range, code
/// ends on an unconditional control transfer, and line table sorted.
/// Returns diagnostics instead of aborting so tests can assert on them.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_BYTECODE_VERIFIER_H
#define DJX_BYTECODE_VERIFIER_H

#include "bytecode/ClassFile.h"

#include <string>
#include <vector>

namespace djx {

/// Structural problems found in one method.
struct VerifyResult {
  std::vector<std::string> Errors;
  bool ok() const { return Errors.empty(); }
};

/// Verifies one method body.
VerifyResult verifyMethod(const BytecodeMethod &M);

/// Verifies every method of \p P; aggregates errors with method prefixes.
VerifyResult verifyProgram(const BytecodeProgram &P);

} // namespace djx

#endif // DJX_BYTECODE_VERIFIER_H
