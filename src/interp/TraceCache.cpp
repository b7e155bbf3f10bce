//===- TraceCache.cpp - Per-interpreter hot-trace cache --------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "interp/TraceCache.h"

#include "analysis/MethodAnalysis.h"
#include "bytecode/ClassFile.h"
#include "bytecode/Disassembler.h"

#include <cassert>

using namespace djx;

const MethodAnalysis *TraceCache::analysisFor(const BytecodeMethod &M) {
  auto It = Analyses.find(&M);
  if (It != Analyses.end())
    return It->second.get();
  CalleeResolver Resolve = nullptr;
  if (Program && Program->isLoaded())
    Resolve = [P = Program](const Instruction &I) -> const BytecodeMethod * {
      size_t Idx = static_cast<size_t>(I.A);
      return Idx < P->numMethods() ? &P->method(Idx) : nullptr;
    };
  auto A =
      std::make_unique<MethodAnalysis>(MethodAnalysis::analyze(M, Resolve));
  const MethodAnalysis *Out = A.get();
  Analyses.emplace(&M, std::move(A));
  return Out;
}

const CompiledTrace *TraceCache::bump(Site &S, const BytecodeMethod &M,
                                      uint32_t Pc) {
  assert(S.St == Site::Cold && "bump on a non-cold site");
  if (++S.Count < Cfg.HotThreshold)
    return nullptr;
  // Saturate so an invalidated site re-crosses the threshold on its very
  // next visit instead of warming up from zero again.
  S.Count = Cfg.HotThreshold;
  if (std::optional<CompiledTrace> T =
          compileTrace(M, Pc, Cfg, analysisFor(M))) {
    S.Trace = std::make_unique<CompiledTrace>(std::move(*T));
    S.St = Site::Compiled;
    ++St.Compiles;
    return S.Trace.get();
  }
  S.St = Site::Dead;
  ++St.DeadSites;
  return nullptr;
}

void TraceCache::invalidate() {
  for (std::vector<Site> &Sites : Methods)
    for (Site &S : Sites)
      if (S.St == Site::Compiled) {
        S.Trace.reset();
        S.St = Site::Cold;
      }
  ++St.Invalidations;
}

uint32_t TraceCache::siteCount(size_t MethodIndex, uint32_t Pc) const {
  if (MethodIndex >= Methods.size())
    return 0;
  const std::vector<Site> &Sites = Methods[MethodIndex];
  if (Pc >= Sites.size())
    return 0;
  return Sites[Pc].Count;
}

std::string TraceCache::renderAll(const BytecodeProgram &P) const {
  std::string Out;
  for (size_t MI = 0; MI < Methods.size(); ++MI)
    for (const Site &S : Methods[MI])
      if (S.St == Site::Compiled && S.Trace)
        Out += disassembleTrace(P.method(MI), *S.Trace);
  return Out;
}
