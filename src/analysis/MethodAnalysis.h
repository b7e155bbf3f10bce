//===- MethodAnalysis.h - One-stop per-method analysis bundle ---*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience facade running the src/analysis/ pipeline over one
/// method: CFG + dominators/loops and type-state inference (per-block
/// frames, per-pc depths, escape facts). The TraceCompiler and the static
/// allocation-site report consume this; the Verifier drives the passes
/// directly because it wants the diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_ANALYSIS_METHODANALYSIS_H
#define DJX_ANALYSIS_METHODANALYSIS_H

#include "analysis/TypeState.h"

namespace djx {

struct MethodAnalysis {
  Cfg G;
  TypeStateResult Types;

  static MethodAnalysis analyze(const BytecodeMethod &M,
                                const CalleeResolver &Resolve = nullptr) {
    MethodAnalysis A;
    A.G = Cfg::build(M);
    A.Types = inferTypeStates(M, A.G, Resolve);
    return A;
  }
};

} // namespace djx

#endif // DJX_ANALYSIS_METHODANALYSIS_H
